package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
)

// TestIterativeDominatesSimulationLoops: the conclusion's fixed-point
// extension must still bracket the simulated schedule on systems with
// physical and logical loops. A converged result must bound every job:
// an Inf WCRT there means the iteration saturated instead of converging.
func TestIterativeDominatesSimulationLoops(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	converged, diverged, jobs := 0, 0, 0
	for trial := 0; trial < 1500; trial++ {
		cfg := randsys.Default
		cfg.Loops = true
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sys := randsys.New(r, cfg)
		res, err := Iterative(sys, 0)
		if err != nil {
			diverged++
			continue // reported unschedulable; nothing to check
		}
		converged++
		jobs += len(sys.Jobs)
		for k, w := range res.WCRT {
			if curve.IsInf(w) {
				t.Fatalf("trial %d: converged, but job %d has an Inf WCRT\nsystem: %+v", trial, k+1, sys)
			}
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			hops := res.Hops[k]
			for j := range sys.Jobs[k].Subjobs {
				for i := range sys.Jobs[k].Releases {
					sd := got.Departure[k][j][i]
					if dl := hops[j].DepLate[i]; !curve.IsInf(dl) && dl < sd {
						t.Fatalf("trial %d: T_{%d,%d} inst %d: DepLate %d < simulated %d\nsystem: %+v",
							trial, k+1, j+1, i, dl, sd, sys)
					}
					if de := hops[j].DepEarly[i]; de > sd {
						t.Fatalf("trial %d: T_{%d,%d} inst %d: DepEarly %d > simulated %d\nsystem: %+v",
							trial, k+1, j+1, i, de, sd, sys)
					}
				}
			}
			if w := got.WorstResponse(k); res.WCRT[k] < w {
				t.Fatalf("trial %d: job %d WCRT %d < simulated %d", trial, k+1, res.WCRT[k], w)
			}
		}
	}
	if converged == 0 {
		t.Fatal("iteration never converged on loop systems")
	}
	t.Logf("converged on %d/%d loop systems (%d diverged), %d jobs bounded", converged, converged+diverged, diverged, jobs)
}

// TestIterativeDominatesSimulationAcyclic: on acyclic systems the
// iterative scheme is just another sound analysis.
func TestIterativeDominatesSimulationAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 800; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sys := randsys.New(r, cfg)
		res, err := Iterative(sys, 0)
		if err != nil {
			continue
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			if w := got.WorstResponse(k); !curve.IsInf(res.WCRT[k]) && res.WCRT[k] < w {
				t.Fatalf("trial %d: job %d WCRT %d < simulated %d\nsystem: %+v",
					trial, k+1, res.WCRT[k], w, sys)
			}
		}
	}
}

// TestIterativeMatchesApproximateAcyclic: on an acyclic system every
// strongly connected component is a single subjob evaluated once from
// final inputs, so Iterative is the Approximate sweep field for field -
// chains and fork-join jobs, latencies, sync policies and resources
// included - at one and at eight workers.
func TestIterativeMatchesApproximateAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	for trial := 0; trial < 300; trial++ {
		cfg.MaxPostDelay = 3 * (trial % 2)
		cfg.Resources = trial % 3 / 2
		cfg.SyncPolicies = nil
		if trial%5 == 0 {
			cfg.SyncPolicies = []model.SyncPolicy{model.DirectSync, model.PhaseModification, model.ReleaseGuard}
		}
		sys := randsys.New(r, cfg)
		if trial%2 == 1 {
			sys = randsys.ForkJoin(r, cfg)
		}
		want, werr := ApproximateOpts(sys, Options{})
		for _, workers := range []int{1, 8} {
			got, gerr := IterativeOpts(sys, 0, Options{Workers: workers})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d workers %d: error mismatch %v vs %v", trial, workers, werr, gerr)
			}
			if werr != nil {
				continue
			}
			requireSameResult(t, "Iterative vs Approximate", want, got)
		}
	}
}

// TestIterativeFixedPoint: a converged run is a fixed point of the
// per-subjob map on every cyclic component. One more evaluation of any
// member, its arrivals re-pulled first, moves no merge and reproduces
// its row. And every hop's late arrivals, inside the loops or not, are
// the join of its predecessors' final late departures. Eight workers
// reach the same result field for field, diverged runs included.
func TestIterativeFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	cfg := randsys.Default
	cfg.Loops = true
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		sys := randsys.New(r, cfg)
		rv, err := analyzeCold(sys, modeIterative, 0, Options{})
		par, perr := IterativeOpts(sys, 0, Options{Workers: 8})
		if (err == nil) != (perr == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, err, perr)
		}
		requireSameResult(t, "Iterative 1 vs 8 workers", rv.res, par)
		if err != nil {
			continue
		}
		st, topo := rv.st, rv.topo
		var scratch [1]int
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				preds := sys.Jobs[k].HopPreds(j, &scratch)
				if len(preds) == 0 {
					continue
				}
				want := sys.JoinReleases(k, j, preds, func(p int) []model.Ticks { return st.hops[k][p].DepLate })
				if !sameTicks(st.hops[k][j].ArrLate, want) {
					t.Fatalf("trial %d: T_{%d,%d} late arrivals %v, want %v", trial, k+1, j+1, st.hops[k][j].ArrLate, want)
				}
			}
		}
		comps, _ := topo.Components()
		for _, comp := range comps {
			if len(comp) == 1 && !slices.Contains(topo.Deps(comp[0]), comp[0]) {
				continue
			}
			checked++
			for _, id := range comp {
				ref := topo.Subjobs()[id]
				hop := &st.hops[ref.Job][ref.Hop]
				before := *hop
				before.ArrLate = slices.Clone(hop.ArrLate)
				before.DepLate = slices.Clone(hop.DepLate)
				arrMoved := st.pullLate(id)
				svcMoved, depMoved := st.computeSubjob(ref, true)
				if arrMoved || svcMoved || depMoved {
					t.Fatalf("trial %d: T_{%d,%d} moved after convergence (arr %v svc %v dep %v)",
						trial, ref.Job+1, ref.Hop+1, arrMoved, svcMoved, depMoved)
				}
				if !sameTicks(before.ArrLate, hop.ArrLate) || !sameTicks(before.DepLate, hop.DepLate) ||
					!before.SvcLo.Equal(hop.SvcLo) || !before.SvcHi.Equal(hop.SvcHi) ||
					before.Local != hop.Local || before.Backlog != hop.Backlog {
					t.Fatalf("trial %d: T_{%d,%d} row changed after convergence", trial, ref.Job+1, ref.Hop+1)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no converged cyclic component to check")
	}
}

// TestIterativeHandlesRevisit: a job visiting the same processor twice
// (physical loop) is rejected by the worklist analyses but handled here.
func TestIterativeHandlesRevisit(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 3, Priority: 1},
				{Proc: 1, Exec: 4, Priority: 0},
				{Proc: 0, Exec: 2, Priority: 0}, // revisit of P0
			}, Releases: []model.Ticks{0, 20}},
		},
	}
	if _, err := Approximate(sys); err != ErrCyclic {
		t.Fatalf("Approximate err = %v, want ErrCyclic", err)
	}
	res, err := Iterative(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(sys)
	if w := got.WorstResponse(0); res.WCRT[0] < w {
		t.Fatalf("WCRT %d < simulated %d", res.WCRT[0], w)
	}
	// Alone in the system: the simulation takes exactly 9 per instance,
	// and the bound should be reasonably close (within the blocking-free
	// pipeline slack).
	if got.WorstResponse(0) != 9 {
		t.Fatalf("simulated response = %d, want 9", got.WorstResponse(0))
	}
	if res.WCRT[0] > 30 {
		t.Errorf("iterative bound %d unexpectedly loose for an isolated chain", res.WCRT[0])
	}
}
