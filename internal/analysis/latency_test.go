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

// latencyCfg enables random inter-hop communication latencies.
func latencyCfg(scheds ...model.Scheduler) randsys.Config {
	cfg := randsys.Default
	cfg.Schedulers = scheds
	cfg.MaxPostDelay = 25
	return cfg
}

// TestExactEqualsSimulationWithLatency extends the core exactness
// property to systems with constant inter-hop communication latencies.
func TestExactEqualsSimulationWithLatency(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 1000; trial++ {
		sys := randsys.New(r, latencyCfg(model.SPP))
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			if res.WCRT[k] != got.WorstResponse(k) {
				t.Fatalf("trial %d: WCRT job %d: analysis %d, simulation %d\nsystem: %+v",
					trial, k+1, res.WCRT[k], got.WorstResponse(k), sys)
			}
			for j := range sys.Jobs[k].Subjobs {
				for i := range sys.Jobs[k].Releases {
					if res.Departure[k][j][i] != got.Departure[k][j][i] {
						t.Fatalf("trial %d: departure T_{%d,%d} inst %d: analysis %d, simulation %d",
							trial, k+1, j+1, i, res.Departure[k][j][i], got.Departure[k][j][i])
					}
				}
			}
		}
	}
}

// TestApproximateDominatesWithLatency extends the dominance property.
func TestApproximateDominatesWithLatency(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 800; trial++ {
		sys := randsys.New(r, latencyCfg(model.SPP, model.SPNP, model.FCFS))
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

// TestLatencyShiftsPipeline: a known two-hop chain with latency 7 between
// hops.
func TestLatencyShiftsPipeline(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 3, Priority: 0, PostDelay: 7},
				{Proc: 1, Exec: 2, Priority: 0},
			}, Releases: []model.Ticks{0, 20}},
		},
	}
	res, err := Exact(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Hop 1 departs at 3; hop 2 arrives at 10, departs at 12.
	if res.WCRT[0] != 12 {
		t.Fatalf("WCRT = %d, want 12 (3 exec + 7 link + 2 exec)", res.WCRT[0])
	}
	got := sim.Run(sys)
	if got.WorstResponse(0) != 12 {
		t.Fatalf("simulated = %d, want 12", got.WorstResponse(0))
	}
	// Theorem 4 path must include the link latency too.
	sys.Procs[0].Sched = model.SPNP
	sys.Procs[1].Sched = model.SPNP
	app, err := Approximate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if app.WCRTSum[0] < 12 {
		t.Fatalf("Theorem 4 bound %d below the physical minimum 12", app.WCRTSum[0])
	}
}
