package periodic_test

import (
	"context"
	"fmt"

	"rta/internal/model"
	"rta/internal/periodic"
	"rta/internal/spp"
)

// Example expands a classic periodic pipeline into a release trace and
// analyzes it exactly.
func Example() {
	procs := []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}}
	tasks := []periodic.Task{
		{Name: "ctl", Period: 10, Deadline: 20, Subjobs: []model.Subjob{
			{Proc: 0, Exec: 2, Priority: 0}, {Proc: 1, Exec: 3, Priority: 0}}},
		{Name: "log", Period: 25, Deadline: 50, Subjobs: []model.Subjob{
			{Proc: 0, Exec: 6, Priority: 1}, {Proc: 1, Exec: 4, Priority: 1}}},
	}
	sys, err := periodic.Build(procs, tasks, periodic.Config{HorizonHyperperiods: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("hyperperiod:", periodic.Hyperperiod(tasks, 1<<40))
	res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("wcrt:", res.WCRT)
	// Output:
	// hyperperiod: 50
	// wcrt: [5 14]
}
