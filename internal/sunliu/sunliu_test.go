package sunliu

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/spp"
)

// toModel converts a periodic task set into a concrete-trace system with
// synchronous (phase zero) releases over the given horizon in ticks.
func toModel(sys *System, horizon model.Ticks) *model.System {
	out := &model.System{Procs: append([]model.Processor(nil), sys.Procs...)}
	for _, t := range sys.Tasks {
		var rel []model.Ticks
		for at := model.Ticks(0); at <= horizon; at += t.Period {
			rel = append(rel, at)
		}
		out.Jobs = append(out.Jobs, model.Job{
			Name: t.Name, Deadline: t.Deadline,
			Subjobs:  append([]model.Subjob(nil), t.Subjobs...),
			Releases: rel,
		})
	}
	return out
}

// TestClassicRateMonotonic reproduces the standard textbook example:
// tasks (C=1,T=4), (C=2,T=6), (C=3,T=10) under RM priorities on one CPU.
// Exact worst-case response times are 1, 3 and 10.
func TestClassicRateMonotonic(t *testing.T) {
	sys := &System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Tasks: []Task{
			{Period: 4, Deadline: 4, Subjobs: []model.Subjob{{Proc: 0, Exec: 1, Priority: 0}}},
			{Period: 6, Deadline: 6, Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 1}}},
			{Period: 10, Deadline: 10, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 2}}},
		},
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Ticks{1, 3, 10}
	for k, w := range want {
		if res.WCRT[k] != w {
			t.Errorf("task %d: WCRT = %d, want %d", k+1, res.WCRT[k], w)
		}
	}
	if !res.Schedulable(sys) {
		t.Error("set should be schedulable")
	}
}

// TestArbitraryDeadlineBusyPeriod: with response time beyond the period,
// later instances in the busy period must be examined (Lehoczky). Tasks
// (C=26,T=70) and (C=62,T=100): the low task's worst response is 118 at
// the second instance.
func TestArbitraryDeadlineBusyPeriod(t *testing.T) {
	sys := &System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Tasks: []Task{
			{Period: 70, Deadline: 70, Subjobs: []model.Subjob{{Proc: 0, Exec: 26, Priority: 0}}},
			{Period: 100, Deadline: 200, Subjobs: []model.Subjob{{Proc: 0, Exec: 62, Priority: 1}}},
		},
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCRT[0] != 26 {
		t.Errorf("high task WCRT = %d, want 26", res.WCRT[0])
	}
	if res.WCRT[1] != 118 {
		t.Errorf("low task WCRT = %d, want 118", res.WCRT[1])
	}
}

// TestOverloadDiverges: utilization above one must be rejected.
func TestOverloadDiverges(t *testing.T) {
	sys := &System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Tasks: []Task{
			{Period: 4, Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 0}}},
			{Period: 5, Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 1}}},
		},
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCRT[1] != Inf {
		t.Errorf("overloaded low task WCRT = %d, want Inf", res.WCRT[1])
	}
	if res.Schedulable(sys) {
		t.Error("overloaded set must be unschedulable")
	}
}

// randPeriodic draws a random periodic task set on a staged topology with
// bounded utilization.
func randPeriodic(r *rand.Rand, stages, procsPerStage, tasks int, maxUtil float64) *System {
	sys := &System{}
	for s := 0; s < stages; s++ {
		for p := 0; p < procsPerStage; p++ {
			sys.Procs = append(sys.Procs, model.Processor{Sched: model.SPP})
		}
	}
	// Budget utilization per processor.
	util := make([]float64, len(sys.Procs))
	for k := 0; k < tasks; k++ {
		period := model.Ticks(20 + r.Intn(200))
		task := Task{Period: period, Deadline: 16 * period}
		for s := 0; s < stages; s++ {
			proc := s*procsPerStage + r.Intn(procsPerStage)
			maxExec := int(float64(period) * (maxUtil - util[proc]))
			if maxExec < 1 {
				continue
			}
			exec := model.Ticks(1 + r.Intn(maxExec))
			util[proc] += float64(exec) / float64(period)
			task.Subjobs = append(task.Subjobs, model.Subjob{
				Proc: proc, Exec: exec, Priority: r.Intn(4),
			})
		}
		if len(task.Subjobs) == 0 {
			task.Subjobs = append(task.Subjobs, model.Subjob{Proc: 0, Exec: 1, Priority: r.Intn(4)})
			util[0] += 1.0 / float64(period)
		}
		sys.Tasks = append(sys.Tasks, task)
	}
	return sys
}

// TestSingleStageMatchesExact: on a single processor with synchronous
// periodic releases, the holistic analysis coincides with the exact
// trace-based analysis (the paper's Figure 3 (a)/(d) anchor).
func TestSingleStageMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		sys := randPeriodic(r, 1, 1, 1+r.Intn(4), 0.85)
		res, err := Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		// Horizon: cover the initial (synchronous, critical-instant) busy
		// period with slack.
		var horizon model.Ticks
		for k := range sys.Tasks {
			if res.WCRT[k] == Inf {
				horizon = 0
				break
			}
			if e := res.WCRT[k] + 2*sys.Tasks[k].Period; e > horizon {
				horizon = e
			}
		}
		if horizon == 0 {
			continue // divergent (pessimistic) case: nothing to compare
		}
		msys := toModel(sys, horizon)
		ex, err := spp.AnalyzeWith(context.Background(), msys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Tasks {
			if ex.WCRT[k] != res.WCRT[k] {
				t.Fatalf("trial %d: task %d exact %d != holistic %d\ntasks: %+v",
					trial, k+1, ex.WCRT[k], res.WCRT[k], sys.Tasks)
			}
		}
	}
}

// TestMultiStageDominatesExact: with two or more stages the holistic
// bound must dominate the exact analysis - usually strictly, which is the
// paper's central comparison (Figure 3 (c)/(f)).
func TestMultiStageDominatesExact(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	looser := 0
	cases := 0
	for trial := 0; trial < 300; trial++ {
		sys := randPeriodic(r, 2+r.Intn(2), 2, 2+r.Intn(3), 0.7)
		res, err := Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		var horizon model.Ticks
		for k := range sys.Tasks {
			if horizon < 8*sys.Tasks[k].Period {
				horizon = 8 * sys.Tasks[k].Period
			}
		}
		msys := toModel(sys, horizon)
		ex, err := spp.AnalyzeWith(context.Background(), msys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Tasks {
			if res.WCRT[k] == Inf {
				continue
			}
			cases++
			if ex.WCRT[k] > res.WCRT[k] {
				t.Fatalf("trial %d: task %d exact %d exceeds holistic bound %d",
					trial, k+1, ex.WCRT[k], res.WCRT[k])
			}
			if len(sys.Tasks[k].Subjobs) > 1 && ex.WCRT[k] < res.WCRT[k] {
				looser++
			}
		}
	}
	if looser == 0 {
		t.Error("holistic bound was never strictly looser on multi-stage tasks; the paper's comparison should show pessimism")
	}
	if cases == 0 {
		t.Error("no comparable cases generated")
	}
}
