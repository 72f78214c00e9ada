package admission_test

import (
	"fmt"

	"rta/internal/admission"
	"rta/internal/model"
)

// Example admits requests until the processor saturates, then frees
// capacity by removing a job.
func Example() {
	c := admission.New([]model.Processor{{Name: "CPU", Sched: model.SPP}},
		admission.DeadlineMonotonic)
	mk := func(name string, deadline, exec model.Ticks) model.Job {
		return model.Job{Name: name, Deadline: deadline,
			Subjobs:  []model.Subjob{{Proc: 0, Exec: exec}},
			Releases: []model.Ticks{0, 20, 40}}
	}
	for _, j := range []model.Job{mk("a", 10, 4), mk("b", 15, 6), mk("c", 12, 6)} {
		ok, err := c.Request(j)
		if err != nil {
			panic(err)
		}
		fmt.Println(j.Name, ok)
	}
	if _, err := c.RemoveErr("b"); err != nil {
		panic(err)
	}
	ok, _ := c.Request(mk("d", 18, 6))
	fmt.Println("after removing b, d:", ok)
	// Output:
	// a true
	// b true
	// c false
	// after removing b, d: true
}
