package periodic

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/spp"
	"rta/internal/sunliu"
)

func TestGCDLCMHyperperiod(t *testing.T) {
	if g := GCD(12, 18); g != 6 {
		t.Errorf("GCD(12,18) = %d", g)
	}
	if l := LCM(4, 6, 1<<40); l != 12 {
		t.Errorf("LCM(4,6) = %d", l)
	}
	if l := LCM(1<<30, (1<<30)+1, 1<<40); l != 1<<40 {
		t.Errorf("LCM overflow must saturate: %d", l)
	}
	tasks := []Task{{Period: 4}, {Period: 6}, {Period: 10}}
	if h := Hyperperiod(tasks, 1<<40); h != 60 {
		t.Errorf("Hyperperiod = %d, want 60", h)
	}
}

func TestBuildExpandsReleases(t *testing.T) {
	procs := []model.Processor{{Sched: model.SPP}}
	tasks := []Task{
		{Name: "a", Period: 10, Phase: 0, Deadline: 10,
			Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}}},
		{Name: "b", Period: 15, Phase: 3, Deadline: 15,
			Subjobs: []model.Subjob{{Proc: 0, Exec: 4, Priority: 1}}},
	}
	sys, err := Build(procs, tasks, Config{HorizonHyperperiods: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod 30, horizon 60: task a releases 0,10,...,60 (7), task b
	// 3,18,33,48 (4).
	if n := len(sys.Jobs[0].Releases); n != 7 {
		t.Fatalf("a releases %d, want 7: %v", n, sys.Jobs[0].Releases)
	}
	if n := len(sys.Jobs[1].Releases); n != 4 {
		t.Fatalf("b releases %d, want 4: %v", n, sys.Jobs[1].Releases)
	}
	if sys.Jobs[1].Releases[0] != 3 {
		t.Fatalf("phase not honored: %v", sys.Jobs[1].Releases)
	}
}

// TestSynchronousMatchesHolistic: for synchronous periodic single-node
// sets the trace-based exact analysis over one expanded horizon matches
// the holistic bound (which is exact there).
func TestSynchronousMatchesHolistic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		procs := []model.Processor{{Sched: model.SPP}}
		n := 1 + r.Intn(4)
		var tasks []Task
		hs := &sunliu.System{Procs: procs}
		util := 0.0
		for i := 0; i < n; i++ {
			period := model.Ticks(10 + r.Intn(90))
			maxExec := int(float64(period) * (0.9 - util))
			if maxExec < 1 {
				break
			}
			exec := model.Ticks(1 + r.Intn(maxExec))
			util += float64(exec) / float64(period)
			sj := []model.Subjob{{Proc: 0, Exec: exec, Priority: i}}
			tasks = append(tasks, Task{Period: period, Deadline: 8 * period, Subjobs: sj})
			hs.Tasks = append(hs.Tasks, sunliu.Task{Period: period, Deadline: 8 * period, Subjobs: sj})
		}
		if len(tasks) == 0 {
			continue
		}
		hol, err := sunliu.Analyze(hs)
		if err != nil {
			t.Fatal(err)
		}
		skip := false
		for k := range hol.WCRT {
			if hol.WCRT[k] == sunliu.Inf {
				skip = true
			}
		}
		if skip {
			continue
		}
		sys, err := Build(procs, tasks, Config{HorizonHyperperiods: 1, MaxHorizon: 1 << 17})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tasks {
			if res.WCRT[k] != hol.WCRT[k] {
				t.Fatalf("trial %d: task %d trace-exact %d != holistic %d",
					trial, k+1, res.WCRT[k], hol.WCRT[k])
			}
		}
	}
}

// TestHorizonStability: with synchronous release, extending the horizon
// beyond one hyperperiod never changes the exact WCRT.
func TestHorizonStability(t *testing.T) {
	procs := []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}}
	tasks := []Task{
		{Period: 8, Deadline: 100, Subjobs: []model.Subjob{
			{Proc: 0, Exec: 2, Priority: 0}, {Proc: 1, Exec: 3, Priority: 0}}},
		{Period: 12, Deadline: 200, Subjobs: []model.Subjob{
			{Proc: 0, Exec: 3, Priority: 1}, {Proc: 1, Exec: 2, Priority: 1}}},
	}
	var prev []model.Ticks
	for _, hp := range []int{1, 2, 4} {
		sys, err := Build(procs, tasks, Config{HorizonHyperperiods: hp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for k := range prev {
				if res.WCRT[k] != prev[k] {
					t.Fatalf("WCRT changed from %v at %d hyperperiods: %v", prev, hp, res.WCRT)
				}
			}
		}
		prev = res.WCRT
	}
}

func TestBuildErrors(t *testing.T) {
	procs := []model.Processor{{Sched: model.SPP}}
	if _, err := Build(procs, nil, Config{}); err == nil {
		t.Error("empty task set accepted")
	}
	bad := []Task{{Period: 0, Deadline: 5, Subjobs: []model.Subjob{{Proc: 0, Exec: 1}}}}
	if _, err := Build(procs, bad, Config{}); err == nil {
		t.Error("zero period accepted")
	}
	neg := []Task{{Period: 5, Phase: -1, Deadline: 5, Subjobs: []model.Subjob{{Proc: 0, Exec: 1}}}}
	if _, err := Build(procs, neg, Config{}); err == nil {
		t.Error("negative phase accepted")
	}
}
