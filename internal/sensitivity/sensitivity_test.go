package sensitivity

import (
	"math"
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
)

func smallSystem() *model.System {
	return &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 10, Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}},
				Releases: []model.Ticks{0, 10, 20}},
			{Deadline: 30, Subjobs: []model.Subjob{{Proc: 0, Exec: 5, Priority: 1}},
				Releases: []model.Ticks{0, 15}},
		},
	}
}

func TestSlack(t *testing.T) {
	sys := smallSystem()
	slack, err := Slack(sys, ExactVerdict)
	if err != nil {
		t.Fatal(err)
	}
	// High job: response 2, slack 8. Low: response 7, slack 23.
	if slack[0] != 8 || slack[1] != 23 {
		t.Fatalf("slack = %v, want [8 23]", slack)
	}
	// A bound never certified to complete has no finite slack: it pins
	// to math.MinInt64+2, below every finite slack.
	never := func(sys *model.System) ([]model.Ticks, error) {
		return []model.Ticks{curve.Inf, 7}, nil
	}
	slack, err = Slack(sys, never)
	if err != nil {
		t.Fatal(err)
	}
	if slack[0] != math.MinInt64+2 || slack[1] != 23 {
		t.Fatalf("slack = %v, want [%d 23]", slack, int64(math.MinInt64+2))
	}
}

func TestScaleExec(t *testing.T) {
	sys := smallSystem()
	s2 := ScaleExec(sys, 3, 2)
	if s2.Jobs[0].Subjobs[0].Exec != 3 || s2.Jobs[1].Subjobs[0].Exec != 8 {
		t.Fatalf("scaled execs = %d, %d; want 3, 8 (ceil)",
			s2.Jobs[0].Subjobs[0].Exec, s2.Jobs[1].Subjobs[0].Exec)
	}
	if sys.Jobs[0].Subjobs[0].Exec != 2 {
		t.Fatal("ScaleExec mutated the original")
	}
	// Scaling down clamps at one tick.
	tiny := ScaleExec(sys, 1, 100)
	if tiny.Jobs[0].Subjobs[0].Exec != 1 {
		t.Fatal("scale-down must clamp at 1 tick")
	}
}

func TestBreakdownFindsFrontier(t *testing.T) {
	sys := smallSystem()
	scale, err := Breakdown(sys, ExactVerdict, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if scale < 1 {
		t.Fatalf("breakdown scale %.3f below 1", scale)
	}
	num := int64(scale * 64)
	// Every grid point up to the frontier is schedulable; the next one
	// (if inside the search range) is not.
	for n := int64(64); n <= num; n += 8 {
		if ok, _ := Schedulable(ScaleExec(sys, n, 64), ExactVerdict); !ok {
			t.Fatalf("scale %d/64 below frontier not schedulable", n)
		}
	}
	if ok, _ := Schedulable(ScaleExec(sys, num+1, 64), ExactVerdict); ok && float64(num+1)/64 <= 8 {
		t.Fatalf("system just above the frontier still schedulable")
	}
}

func TestBreakdownBaseUnschedulable(t *testing.T) {
	sys := smallSystem()
	sys.Jobs[0].Deadline = 1 // impossible: exec is 2
	if _, err := Breakdown(sys, ExactVerdict, 4, 64); err != ErrBaseUnschedulable {
		t.Fatalf("err = %v, want ErrBaseUnschedulable", err)
	}
}

// TestMonotoneOnSingleProcessor: on one preemptive processor, growing the
// execution times can only delay every departure (the demand curves grow
// pointwise and nothing else changes).
func TestMonotoneOnSingleProcessor(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		cfg := randsys.Default
		cfg.MaxStages = 1
		cfg.MaxProcsPerStage = 1
		cfg.Schedulers = []model.Scheduler{model.SPP}
		sys := randsys.New(r, cfg)
		base, err := ExactVerdict(sys)
		if err != nil {
			t.Fatal(err)
		}
		up, err := ExactVerdict(ScaleExec(sys, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		for k := range base {
			if up[k] < base[k] {
				t.Fatalf("trial %d: job %d response decreased from %d to %d when execs grew",
					trial, k+1, base[k], up[k])
			}
		}
	}
}

// TestDistributedAnomalyExists documents why Breakdown scans the frontier
// instead of binary-searching: in distributed systems, growing execution
// times can SHORTEN a response (a Graham-style anomaly - the longer
// upstream stage shifts an arrival past a burst of interference
// downstream). This test reproduces one such instance found by random
// search.
func TestDistributedAnomalyExists(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	found := false
	for trial := 0; trial < 300 && !found; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP}
		sys := randsys.New(r, cfg)
		base, err := ExactVerdict(sys)
		if err != nil {
			t.Fatal(err)
		}
		up, err := ExactVerdict(ScaleExec(sys, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		for k := range base {
			if up[k] < base[k] {
				found = true
			}
		}
	}
	if !found {
		t.Error("no scheduling anomaly found; if the generator changed, update this test rather than assuming monotonicity")
	}
}

func TestTheorem4Verdict(t *testing.T) {
	sys := smallSystem()
	sys.Procs[0].Sched = model.SPNP
	wcrt, err := Theorem4Verdict(sys)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactVerdict(func() *model.System {
		s := sys.Clone()
		s.Procs[0].Sched = model.SPP
		return s
	}())
	if err != nil {
		t.Fatal(err)
	}
	for k := range wcrt {
		if wcrt[k] < exact[k] {
			t.Fatalf("job %d: Theorem 4 SPNP bound %d below preemptive exact %d is implausible",
				k+1, wcrt[k], exact[k])
		}
	}
}
