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

func syncCfg(scheds ...model.Scheduler) randsys.Config {
	cfg := randsys.Default
	cfg.Schedulers = scheds
	cfg.SyncPolicies = []model.SyncPolicy{
		model.DirectSync, model.PhaseModification, model.ReleaseGuard,
	}
	cfg.MaxPostDelay = 8
	return cfg
}

// TestExactEqualsSimulationWithSyncPolicies: the release transformations
// of Phase Modification and Release Guard are deterministic functions of
// the departure times, so the trace-exact analysis must still match the
// simulator instant by instant.
func TestExactEqualsSimulationWithSyncPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 1500; trial++ {
		sys := randsys.New(r, syncCfg(model.SPP))
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				for i := range sys.Jobs[k].Releases {
					if res.Arrival[k][j][i] != got.Arrival[k][j][i] {
						t.Fatalf("trial %d (%s): arrival T_{%d,%d} inst %d: analysis %d, sim %d\nsystem: %+v",
							trial, sys.Jobs[k].Sync, k+1, j+1, i, res.Arrival[k][j][i], got.Arrival[k][j][i], sys)
					}
					if res.Departure[k][j][i] != got.Departure[k][j][i] {
						t.Fatalf("trial %d (%s): departure T_{%d,%d} inst %d: analysis %d, sim %d\nsystem: %+v",
							trial, sys.Jobs[k].Sync, k+1, j+1, i, res.Departure[k][j][i], got.Departure[k][j][i], sys)
					}
				}
			}
		}
	}
}

// TestApproximateDominatesWithSyncPolicies extends the bracketing
// property to all three synchronization policies and scheduler mixes.
func TestApproximateDominatesWithSyncPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 1200; trial++ {
		sys := randsys.New(r, syncCfg(model.SPP, model.SPNP, model.FCFS))
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

// TestPhaseModificationShapesArrivals: with phases at least the
// worst-case per-hop responses, every hop's arrivals replicate the
// first-hop trace exactly (the property PM exists for).
func TestPhaseModificationShapesArrivals(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 1000, Sync: model.PhaseModification,
				Phases: []model.Ticks{0, 50},
				Subjobs: []model.Subjob{
					{Proc: 0, Exec: 5, Priority: 0},
					{Proc: 1, Exec: 5, Priority: 0},
				},
				Releases: []model.Ticks{0, 100, 200}},
		},
	}
	got := sim.Run(sys)
	for i, rel := range sys.Jobs[0].Releases {
		if got.Arrival[0][1][i] != rel+50 {
			t.Fatalf("hop 2 arrival %d = %d, want %d (phase-locked)", i, got.Arrival[0][1][i], rel+50)
		}
	}
}

// TestReleaseGuardRestoresSeparation: bursty completions are spread to at
// least the period downstream.
func TestReleaseGuardRestoresSeparation(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 1000, Sync: model.ReleaseGuard, Period: 20,
				Subjobs: []model.Subjob{
					{Proc: 0, Exec: 2, Priority: 0},
					{Proc: 1, Exec: 2, Priority: 0},
				},
				// A burst: all three released together.
				Releases: []model.Ticks{0, 0, 0}},
		},
	}
	got := sim.Run(sys)
	arr := got.Arrival[0][1]
	for i := 1; i < len(arr); i++ {
		if arr[i]-arr[i-1] < 20 {
			t.Fatalf("hop 2 arrivals %v violate the guard period", arr)
		}
	}
	// And the exact analysis reproduces them.
	res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr {
		if res.Arrival[0][1][i] != arr[i] {
			t.Fatalf("analysis arrival %d = %d, sim %d", i, res.Arrival[0][1][i], arr[i])
		}
	}
}

// TestSyncAddsLatency: on an otherwise idle system, PM and RG can only
// delay completions relative to direct synchronization - the average-cost
// observation of the paper's introduction.
func TestSyncAddsLatency(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	for trial := 0; trial < 300; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP}
		sys := randsys.New(r, cfg)
		ds := sim.Run(sys)
		for _, sync := range []model.SyncPolicy{model.PhaseModification, model.ReleaseGuard} {
			alt := sys.Clone()
			for k := range alt.Jobs {
				alt.Jobs[k].Sync = sync
				if sync == model.PhaseModification {
					alt.Jobs[k].Phases = make([]model.Ticks, len(alt.Jobs[k].Subjobs))
					cum := model.Ticks(0)
					for j := 1; j < len(alt.Jobs[k].Subjobs); j++ {
						cum += alt.Jobs[k].Subjobs[j-1].Exec + alt.Jobs[k].Subjobs[j-1].PostDelay
						alt.Jobs[k].Phases[j] = cum + 10
					}
				} else {
					alt.Jobs[k].Period = 15
				}
			}
			as := sim.Run(alt)
			for k := range sys.Jobs {
				for i := range sys.Jobs[k].Releases {
					last := len(sys.Jobs[k].Subjobs) - 1
					if as.Departure[k][last][i] < ds.Departure[k][last][i] {
						// Synchronization delaying releases can reorder
						// contention, so a strict per-instance claim only
						// holds for isolated jobs; check single-job draws.
						if len(sys.Jobs) == 1 {
							t.Fatalf("trial %d: %s finished instance earlier than DS on an isolated job",
								trial, sync)
						}
					}
				}
			}
		}
	}
}
