package envelope_test

import (
	"fmt"

	"rta/internal/envelope"
)

// ExampleLeakyBucket shows the worst-case release pattern of a bursty
// contract: up to 3 instances back to back, one per 10 ticks sustained.
func ExampleLeakyBucket() {
	e := envelope.LeakyBucket(3, 10, 8)
	fmt.Println(e.MaximalTrace(8))
	// Output:
	// [0 0 0 10 20 30 40 50]
}

// ExampleFromTrace abstracts a measured trace into the tightest contract
// it satisfies.
func ExampleFromTrace() {
	trace := []int64{0, 2, 2, 30, 31, 60}
	e := envelope.FromTrace(trace, 4)
	fmt.Println(e.MinGap)
	fmt.Println(e.Admits(trace))
	fmt.Println(e.Admits([]int64{0, 0, 0})) // denser than observed
	// Output:
	// [0 2 29 31]
	// true
	// false
}
