package curve_test

import (
	"fmt"

	"rta/internal/curve"
)

// ExampleServiceTransform walks Theorem 3 on a tiny scenario: one subjob
// with two instances (execution time 3) released at t=0 and t=4 on an
// otherwise idle preemptive processor.
func ExampleServiceTransform() {
	demand := curve.Staircase([]curve.Time{0, 4}, 3)
	service := curve.ServiceTransform(curve.Identity(), demand)
	for _, t := range []curve.Time{0, 2, 3, 5, 8} {
		fmt.Printf("S(%d) = %d\n", t, service.Eval(t))
	}
	// Output:
	// S(0) = 0
	// S(2) = 2
	// S(3) = 3
	// S(5) = 4
	// S(8) = 6
}

// ExampleCurve_CompletionTimes derives departure times via Theorem 2.
func ExampleCurve_CompletionTimes() {
	demand := curve.Staircase([]curve.Time{0, 4}, 3)
	service := curve.ServiceTransform(curve.Identity(), demand)
	fmt.Println(service.CompletionTimes(3, 2))
	// Output:
	// [3 7]
}

// ExampleAvailability shows how higher-priority service reduces what is
// left for a lower-priority subjob (Equation 10).
func ExampleAvailability() {
	// The higher-priority subjob occupies [0,2) and [4,6).
	hi := curve.ServiceTransform(curve.Identity(), curve.Staircase([]curve.Time{0, 4}, 2))
	avail := curve.Availability([]*curve.Curve{hi})
	for _, t := range []curve.Time{2, 4, 6, 8} {
		fmt.Printf("A(%d) = %d\n", t, avail.Eval(t))
	}
	// Output:
	// A(2) = 0
	// A(4) = 2
	// A(6) = 2
	// A(8) = 4
}

// ExampleUtilization evaluates Theorem 7 for a FCFS processor: the busy
// time tracks the arrived work with unit slope.
func ExampleUtilization() {
	total := curve.Staircase([]curve.Time{2, 2}, 5) // two arrivals of work 5 at t=2
	u := curve.Utilization(total)
	for _, t := range []curve.Time{0, 2, 7, 12, 20} {
		fmt.Printf("U(%d) = %d\n", t, u.Eval(t))
	}
	// Output:
	// U(0) = 0
	// U(2) = 0
	// U(7) = 5
	// U(12) = 10
	// U(20) = 10
}
