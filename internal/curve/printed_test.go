package curve_test

// This file documents why the library deviates from Theorem 5 as printed
// (Equations 16-17): evaluated literally, the printed lower service bound
// exceeds the service a real schedule delivers, i.e. it is not a lower
// bound. The scenario needs nothing exotic - one non-preemptive processor,
// one low-priority blocker, one high-priority subjob arriving while the
// blocker runs.

import (
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/sim"
)

// TestPrintedTheorem5IsUnsound builds the scenario
//
//	P1 (SPNP):  blocker  prio 1, exec 9, released at t=5
//	            victim   prio 0, exec 2, released at t=10
//
// The blocker holds the processor over [5,14), so the victim is served
// [14,16): its true service function is 0 until 14. Equation (16) as
// printed (with blocking b = 9 = the blocker's execution time, and no
// higher-priority interference, so B(t) = (t-9)^+ per Equation 17) already
// credits the victim 3 units of service at t = 12 - more than the
// schedule delivered and more even than the 2 units that exist. The sound
// replacement (curve.LowerServiceNPIn) stays below the true service at all
// times.
func TestPrintedTheorem5IsUnsound(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPNP}},
		Jobs: []model.Job{
			{Name: "victim", Deadline: 100,
				Subjobs:  []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}},
				Releases: []model.Ticks{10}},
			{Name: "blocker", Deadline: 100,
				Subjobs:  []model.Subjob{{Proc: 0, Exec: 9, Priority: 1}},
				Releases: []model.Ticks{5}},
		},
	}
	res := sim.Run(sys)
	if dep := res.Departure[0][0][0]; dep != 16 {
		t.Fatalf("victim departs at %d, want 16 (schedule changed?)", dep)
	}
	// True cumulative service of the victim on this trace.
	trueService := func(at model.Ticks) model.Ticks {
		switch {
		case at <= 14:
			return 0
		case at >= 16:
			return 2
		default:
			return at - 14
		}
	}

	const b = model.Ticks(9)
	demand := curve.Staircase([]model.Ticks{10}, 2)
	// Equation (17) with no higher-priority subjobs: B(t) = 0 for t <= b,
	// t - b afterwards.
	B := func(at model.Ticks) model.Ticks {
		if at <= b {
			return 0
		}
		return at - b
	}
	// Equation (16), evaluated directly on the grid:
	// S(t) = min_{0<=s<=t-b} { B(t) - B(s) + c(s) } for t > b.
	printed := func(at model.Ticks) model.Ticks {
		if at <= b {
			return 0
		}
		best := model.Ticks(1 << 40)
		for s := model.Ticks(0); s <= at-b; s++ {
			if v := B(at) - B(s) + demand.Eval(s); v < best {
				best = v
			}
		}
		return best
	}

	unsoundAt := model.Ticks(-1)
	for at := model.Ticks(0); at <= 30; at++ {
		if printed(at) > trueService(at) {
			unsoundAt = at
			break
		}
	}
	if unsoundAt < 0 {
		t.Fatal("expected the printed Equation (16) to overshoot the true service; did the scenario change?")
	}

	// The library's corrected bound must stay below the true service.
	lower := curve.LowerServiceNPIn(nil, b, nil, nil, demand)
	for at := model.Ticks(0); at <= 40; at++ {
		if got := lower.Eval(at); got > trueService(at) {
			t.Fatalf("corrected bound %d exceeds true service %d at t=%d", got, trueService(at), at)
		}
	}
	// And it must still certify completion eventually (not collapse to 0).
	if dep := lower.Inverse(2); curve.IsInf(dep) {
		t.Fatal("corrected bound never certifies completion")
	}
}
