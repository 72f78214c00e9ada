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

// observedBacklog computes the true maximum number of simultaneously
// pending instances of subjob (k,j) from the simulated arrival and
// departure times.
func observedBacklog(res *sim.Result, k, j int) int {
	type ev struct {
		at    model.Ticks
		delta int
	}
	var evs []ev
	for i := range res.Arrival[k][j] {
		evs = append(evs, ev{res.Arrival[k][j][i], +1})
		evs = append(evs, ev{res.Departure[k][j][i], -1})
	}
	// Sort by time; departures before arrivals at the same instant (a
	// completing instance is not pending when its successor arrives).
	for i := 1; i < len(evs); i++ {
		for x := i; x > 0; x-- {
			a, b := evs[x-1], evs[x]
			if b.at < a.at || (b.at == a.at && b.delta < a.delta) {
				evs[x-1], evs[x] = b, a
			} else {
				break
			}
		}
	}
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// TestExactBacklogMatchesSimulation: the exact analysis' backlog equals
// the simulator's on all-SPP systems.
func TestExactBacklogMatchesSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	for trial := 0; trial < 800; trial++ {
		sys := randsys.New(r, randsys.Default)
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				want := observedBacklog(got, k, j)
				if res.Backlog[k][j] != want {
					t.Fatalf("trial %d: T_{%d,%d} backlog analysis %d, simulation %d\nsystem: %+v",
						trial, k+1, j+1, res.Backlog[k][j], want, sys)
				}
			}
		}
	}
}

// TestBacklogBoundDominates: the approximate backlog bound covers the
// simulated maximum queue depth, and so does the iterative one on systems
// with physical and logical loops.
func TestBacklogBoundDominates(t *testing.T) {
	check := func(label string, trial int, sys *model.System, res *Result) {
		t.Helper()
		got := sim.Run(sys)
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				bound := res.Hops[k][j].Backlog
				if bound < 0 {
					continue // unbounded: nothing to check
				}
				if want := observedBacklog(got, k, j); bound < want {
					t.Fatalf("%s trial %d: T_{%d,%d} backlog bound %d below simulated %d\nsystem: %+v",
						label, trial, k+1, j+1, bound, want, sys)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(96))
	for trial := 0; trial < 800; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sys := randsys.New(r, cfg)
		res, err := Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		check("Approximate", trial, sys, res)
	}
	r = rand.New(rand.NewSource(97))
	for trial := 0; trial < 400; trial++ {
		cfg := randsys.Default
		cfg.Loops = true
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sys := randsys.New(r, cfg)
		if res, err := Iterative(sys, 0); err == nil {
			check("Iterative", trial, sys, res)
		}
	}
}

// TestBacklogBurst: a burst of n simultaneous releases on an idle
// processor yields backlog exactly n.
func TestBacklogBurst(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 1000, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 0}},
				Releases: []model.Ticks{5, 5, 5, 5}},
		},
	}
	res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backlog[0][0] != 4 {
		t.Fatalf("backlog = %d, want 4", res.Backlog[0][0])
	}
}
