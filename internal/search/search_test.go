package search

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/envelope"
	"rta/internal/model"
	"rta/internal/spp"
)

// scenario builds a two-job single-SPNP-processor system whose worst
// case is NOT at the synchronous critical instant (non-preemptive
// blocking depends on phasing).
func scenario(sched model.Scheduler) (*model.System, []envelope.Envelope) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: sched}},
		Jobs: []model.Job{
			{Name: "hi", Deadline: 1 << 30,
				Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}}},
			{Name: "lo", Deadline: 1 << 30,
				Subjobs: []model.Subjob{{Proc: 0, Exec: 9, Priority: 1}}},
		},
	}
	envs := []envelope.Envelope{
		envelope.Periodic(20, 6),
		envelope.Periodic(30, 6),
	}
	// Placeholder releases so the system validates before search.
	sys.Jobs[0].Releases = envs[0].MaximalTrace(4)
	sys.Jobs[1].Releases = envs[1].MaximalTrace(4)
	return sys, envs
}

// TestFindsNonSynchronousWorstCaseSPNP: under SPNP the worst case for the
// high-priority job needs the blocker to start just before the release -
// a phasing the synchronous seed does not contain. The search must beat
// the critical-instant response.
func TestFindsNonSynchronousWorstCaseSPNP(t *testing.T) {
	sys, envs := scenario(model.SPNP)
	r := rand.New(rand.NewSource(5))
	res := WorstResponse(sys, envs, 4, 0, Options{Rounds: 400, Rand: r})
	// Synchronous: both release at 0; priority order serves hi first:
	// response 2. Worst case: lo starts at t-1, hi released at t:
	// response 2+8 = 10.
	if res.Best < 10 {
		t.Fatalf("search found %d, want >= 10 (blocking phasing)", res.Best)
	}
	// And the Theorem 4 bound on any found trace must still dominate.
	work := sys.Clone()
	for k := range work.Jobs {
		work.Jobs[k].Releases = res.Traces[k]
	}
	bound, err := analysis.Approximate(work)
	if err != nil {
		t.Fatal(err)
	}
	if !curve.IsInf(bound.WCRT[0]) && bound.WCRT[0] < res.Best {
		t.Fatalf("soundness counterexample: bound %d < found %d", bound.WCRT[0], res.Best)
	}
}

// TestSearchNeverBeatsExactBoundSPP: for preemptive priorities the
// critical instant is the worst case; the search (which only delays
// releases relative to it) must never exceed the synchronous response.
func TestSearchNeverBeatsExactBoundSPP(t *testing.T) {
	sys, envs := scenario(model.SPP)
	sync := sys.Clone()
	exact, err := spp.AnalyzeWith(context.Background(), sync, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	res := WorstResponse(sys, envs, 4, 0, Options{Rounds: 300, Rand: r})
	if res.Best > exact.WCRT[0] {
		t.Fatalf("search %d beats the critical-instant exact value %d on SPP", res.Best, exact.WCRT[0])
	}
	if res.Evaluations < 100 {
		t.Fatalf("suspiciously few evaluations: %d", res.Evaluations)
	}
}

// TestFoundTracesAreConsistent: every reported trace satisfies its
// envelope and has the requested instance count.
func TestFoundTracesAreConsistent(t *testing.T) {
	sys, envs := scenario(model.FCFS)
	r := rand.New(rand.NewSource(7))
	res := WorstResponse(sys, envs, 5, 1, Options{Rounds: 150, Rand: r})
	for k, tr := range res.Traces {
		if len(tr) != 5 {
			t.Fatalf("job %d trace has %d instances, want 5", k, len(tr))
		}
		if !envs[k].Admits(tr) {
			t.Fatalf("job %d trace violates its envelope: %v", k, tr)
		}
	}
}
