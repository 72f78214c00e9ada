package admission

import (
	"fmt"
	"testing"
	"time"

	"rta/internal/analysis"
	"rta/internal/benchsys"
	"rta/internal/model"
)

// churnSetup names the benchsys job shop's jobs (the controller keys on
// names) and derives the two churned requests: the last admitted job,
// cycled out and back in, and an unschedulable probe that must be
// rejected.
func churnSetup() (*model.System, model.Job, model.Job) {
	sys := benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
	for k := range sys.Jobs {
		sys.Jobs[k].Name = fmt.Sprintf("J%02d", k)
	}
	last := sys.Jobs[len(sys.Jobs)-1]
	probe := last
	probe.Name = "probe"
	probe.Deadline = 1
	return sys, last, probe
}

// churnWarmOp admits the whole job shop through a session-backed
// controller and returns one churn cycle against it: remove the last job,
// re-admit it, and reject the probe.
func churnWarmOp(tb testing.TB) func() {
	sys, last, probe := churnSetup()
	ctl, err := NewWithOptions(sys.Procs, KeepPriorities, analysis.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, j := range sys.Jobs {
		if ok, err := ctl.Request(j); err != nil || !ok {
			tb.Fatalf("seed admit %s: ok=%v err=%v", j.Name, ok, err)
		}
	}
	return func() {
		if ok, err := ctl.RemoveErr(last.Name); err != nil || !ok {
			tb.Fatalf("remove: ok=%v err=%v", ok, err)
		}
		if ok, err := ctl.Request(last); err != nil || !ok {
			tb.Fatalf("re-admit: ok=%v err=%v", ok, err)
		}
		if ok, err := ctl.Request(probe); err != nil || ok {
			tb.Fatalf("probe: ok=%v err=%v (want rejection)", ok, err)
		}
	}
}

// churnColdOp is churnWarmOp's reference: it decides the same cycle by
// re-analyzing the whole trial system per decision, the way a controller
// without a warm session would. Removal is a plain slice cut, so the cost
// per cycle is two full analyses of the 50-job trial systems.
func churnColdOp(tb testing.TB) func() {
	sys, last, probe := churnSetup()
	request := func(jobs []model.Job, j model.Job) bool {
		trial := &model.System{
			Procs: sys.Procs,
			Jobs:  append(append([]model.Job(nil), jobs...), j),
		}
		res, err := analysis.AnalyzeOpts(trial, analysis.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		return res.Schedulable(trial)
	}
	cut := sys.Jobs[:len(sys.Jobs)-1]
	return func() {
		if !request(cut, last) {
			tb.Fatal("re-admit rejected")
		}
		if request(sys.Jobs, probe) {
			tb.Fatal("probe admitted (want rejection)")
		}
	}
}

func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkAdmissionChurnWarm runs one remove/re-admit/reject cycle per
// op against the full admitted job shop through the warm controller.
func BenchmarkAdmissionChurnWarm(b *testing.B) { runOp(b, churnWarmOp(b)) }

// BenchmarkAdmissionChurnCold decides the same cycle by cold re-analysis.
func BenchmarkAdmissionChurnCold(b *testing.B) { runOp(b, churnColdOp(b)) }

// TestChurnAllocsPinned pins the allocations per op of both churn
// benchmarks at their recorded counts plus 5% (go1.24, GOMAXPROCS 1 as
// testing.AllocsPerRun sets it); the counts repeat to within 0.1%.
func TestChurnAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds heap allocations")
	}
	for _, r := range []struct {
		name   string
		op     func()
		allocs float64
	}{
		{"AdmissionChurnWarm", churnWarmOp(t), 13379},
		{"AdmissionChurnCold", churnColdOp(t), 39317},
	} {
		got := testing.AllocsPerRun(3, r.op)
		t.Logf("%-20s %6.0f allocs/op (pinned %.0f)", r.name, got, r.allocs)
		if got > r.allocs*1.05 {
			t.Errorf("%s: %.0f allocs/op, more than 5%% over the pinned %.0f", r.name, got, r.allocs)
		}
	}
}

// TestChurnWarmSpeedupFloor requires the warm churn cycle to run at least
// 5x faster than its cold reference. Warm and cold rounds interleave and
// each side keeps its fastest round, so load from other processes slows
// both sides alike and cannot fake a regression.
func TestChurnWarmSpeedupFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	const floor = 5.0
	warm, cold := churnWarmOp(t), churnColdOp(t)
	perOp := func(op func(), n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(start) / time.Duration(n)
	}
	bestWarm, bestCold := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for round := 0; round < 3; round++ {
		bestWarm = min(bestWarm, perOp(warm, 10))
		bestCold = min(bestCold, perOp(cold, 3))
	}
	ratio := float64(bestCold) / float64(bestWarm)
	t.Logf("warm %v/op, cold %v/op: %.1fx", bestWarm, bestCold, ratio)
	if ratio < floor {
		t.Errorf("warm churn is %.1fx faster than cold, want at least %.0fx", ratio, floor)
	}
}
