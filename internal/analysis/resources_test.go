package analysis

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
	"rta/internal/spp"
)

// TestResourceDominance: on systems with shared local resources under the
// immediate priority ceiling protocol, the approximate analysis (with PCP
// blocking terms) must still dominate the simulation instance by
// instance, for every critical-section placement the generator produces.
func TestResourceDominance(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 1500; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP}
		cfg.Resources = 2
		sys := randsys.New(r, cfg)
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

// TestResourceDominanceMixed: resources on SPP processors mixed with SPNP
// and FCFS processors elsewhere.
func TestResourceDominanceMixed(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 800; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		cfg.Resources = 2
		cfg.MaxPostDelay = 10
		sys := randsys.New(r, cfg)
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

// TestClassicPriorityInversion reproduces the textbook scenario the
// ceiling protocol exists for: a high-priority job arriving while a
// low-priority job holds their shared resource.
func TestClassicPriorityInversion(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			// High: exec 4, arrives at 3 (while low is inside its CS).
			{Deadline: 100, Subjobs: []model.Subjob{{
				Proc: 0, Exec: 4, Priority: 0,
				CS: []model.CriticalSection{{Resource: 1, Start: 1, Duration: 2}},
			}}, Releases: []model.Ticks{3}},
			// Low: exec 10, CS over executed time [2, 8) on the shared
			// resource; starts at 0.
			{Deadline: 100, Subjobs: []model.Subjob{{
				Proc: 0, Exec: 10, Priority: 5,
				CS: []model.CriticalSection{{Resource: 1, Start: 2, Duration: 6}},
			}}, Releases: []model.Ticks{0}},
		},
	}
	got := sim.Run(sys)
	// Low locks at executed 2 (t=2), raising to the ceiling (priority 0,
	// holder wins ties). High arrives at 3 but cannot preempt until the
	// lock is released at executed 8 (t=8). High then runs 8..12.
	if dep := got.Departure[0][0][0]; dep != 12 {
		t.Fatalf("high departs %d, want 12 (blocked by the critical section)", dep)
	}
	if dep := got.Departure[1][0][0]; dep != 14 {
		t.Fatalf("low departs %d, want 14 (2 remaining after the preemption)", dep)
	}

	// The analysis accounts at most one such blocking: bound >= simulated.
	res, err := Approximate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCRT[0] < got.WorstResponse(0) {
		t.Fatalf("bound %d below simulated %d", res.WCRT[0], got.WorstResponse(0))
	}
	// PCP blocking for the high job is the low job's 6-tick section.
	if b := sys.PCPBlocking(model.SubjobRef{Job: 0, Hop: 0}); b != 6 {
		t.Fatalf("PCPBlocking = %d, want 6", b)
	}
	// The low job blocks nobody below it.
	if b := sys.PCPBlocking(model.SubjobRef{Job: 1, Hop: 0}); b != 0 {
		t.Fatalf("PCPBlocking(low) = %d, want 0", b)
	}
}

// TestNoPreemptionInsideCeilingCS: a medium-priority job that does not
// use the resource must also wait while the ceiling is held, but only if
// the ceiling reaches its level.
func TestNoPreemptionInsideCeilingCS(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			// High (priority 0) shares resource 1 with low -> ceiling 0.
			{Deadline: 100, Subjobs: []model.Subjob{{
				Proc: 0, Exec: 2, Priority: 0,
				CS: []model.CriticalSection{{Resource: 1, Start: 0, Duration: 1}},
			}}, Releases: []model.Ticks{20}},
			// Medium (priority 2), no resources, arrives during low's CS.
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 2}},
				Releases: []model.Ticks{2}},
			// Low (priority 5) holds resource 1 over executed [1, 5).
			{Deadline: 100, Subjobs: []model.Subjob{{
				Proc: 0, Exec: 6, Priority: 5,
				CS: []model.CriticalSection{{Resource: 1, Start: 1, Duration: 4}},
			}}, Releases: []model.Ticks{0}},
		},
	}
	got := sim.Run(sys)
	// Low runs 0..1, locks (ceiling 0 beats medium's 2), runs 1..5
	// through the CS despite medium arriving at 2; medium runs 5..8; low
	// finishes 8..9.
	if dep := got.Departure[1][0][0]; dep != 8 {
		t.Fatalf("medium departs %d, want 8 (ceiling blocks it)", dep)
	}
	if dep := got.Departure[2][0][0]; dep != 9 {
		t.Fatalf("low departs %d, want 9", dep)
	}
	// Medium's PCP blocking term: low's 4-tick section (ceiling 0 <= 2).
	if b := sys.PCPBlocking(model.SubjobRef{Job: 1, Hop: 0}); b != 4 {
		t.Fatalf("PCPBlocking(medium) = %d, want 4", b)
	}
}

// TestExactRefusesResources: the exact path must hand resource systems to
// the approximate analysis.
func TestExactRefusesResources(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 10, Subjobs: []model.Subjob{{
				Proc: 0, Exec: 2,
				CS: []model.CriticalSection{{Resource: 0, Start: 0, Duration: 1}},
			}}, Releases: []model.Ticks{0}},
		},
	}
	if _, err := spp.AnalyzeWith(context.Background(), sys, 1, nil); err != spp.ErrResources {
		t.Fatalf("spp.Analyze err = %v, want ErrResources", err)
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "App" {
		t.Fatalf("Analyze method = %q, want App for resource systems", res.Method)
	}
}
