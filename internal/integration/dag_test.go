package integration

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
	"rta/internal/spp"
)

// TestForkJoinOrderingLatticeSPP extends the ordering lattice to
// fork-join precedence DAGs: on random series-parallel jobs over SPP
// processors, the trace-exact analysis must still coincide with the
// simulation (the join rule is exact, not just safe), and the
// approximate bounds must bracket both.
func TestForkJoinOrderingLatticeSPP(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for trial := 0; trial < 400; trial++ {
		cfg := randsys.Default
		cfg.MaxPostDelay = 8
		cfg.MaxWidth = 3
		sys := randsys.ForkJoin(r, cfg)

		simRes := sim.Run(sys)
		exact, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		app, err := analysis.Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := analysis.Iterative(sys, 0)
		if err != nil {
			iter = nil // divergence is a valid outcome
		}

		for k := range sys.Jobs {
			w := simRes.WorstResponse(k)
			if exact.WCRT[k] != w {
				t.Fatalf("trial %d job %d: exact %d != sim %d", trial, k+1, exact.WCRT[k], w)
			}
			if !curve.IsInf(app.WCRT[k]) {
				if app.WCRT[k] < exact.WCRT[k] {
					t.Fatalf("trial %d job %d: approx tight %d < exact %d", trial, k+1, app.WCRT[k], exact.WCRT[k])
				}
				if !curve.IsInf(app.WCRTSum[k]) && app.WCRTSum[k] < app.WCRT[k] {
					t.Fatalf("trial %d job %d: longest-path sum %d < tight %d", trial, k+1, app.WCRTSum[k], app.WCRT[k])
				}
			}
			if iter != nil && !curve.IsInf(iter.WCRT[k]) && iter.WCRT[k] < w {
				t.Fatalf("trial %d job %d: iterative %d < sim %d", trial, k+1, iter.WCRT[k], w)
			}
		}
		if app.Schedulable(sys) && !exact.Schedulable(sys) {
			t.Fatalf("trial %d: approximate admits but exact rejects", trial)
		}
	}
}

// TestForkJoinBracketingMixed drives the simulation-bracketing property
// for fork-join jobs over every registered discipline, with DirectSync
// and PhaseModification synchronization in the mix. (ReleaseGuard is
// excluded: with parallel branches, the guard's release order between
// instances that join at the same tick is implementation-defined, so
// simulation and analysis may legitimately order them differently.)
func TestForkJoinBracketingMixed(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 300; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = randsys.MixedSchedulers()
		cfg.SyncPolicies = []model.SyncPolicy{model.DirectSync, model.PhaseModification}
		cfg.MaxWidth = 3
		cfg.MaxPostDelay = 6
		sys := randsys.ForkJoin(r, cfg)

		simRes := sim.Run(sys)
		app, err := analysis.Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := analysis.Iterative(sys, 0)
		if err != nil {
			iter = nil
		}
		for k := range sys.Jobs {
			w := simRes.WorstResponse(k)
			if !curve.IsInf(app.WCRT[k]) && app.WCRT[k] < w {
				t.Fatalf("trial %d job %d: tight %d < sim %d", trial, k+1, app.WCRT[k], w)
			}
			if !curve.IsInf(app.WCRTSum[k]) && app.WCRTSum[k] < w {
				t.Fatalf("trial %d job %d: longest-path sum %d < sim %d", trial, k+1, app.WCRTSum[k], w)
			}
			if iter != nil && !curve.IsInf(iter.WCRT[k]) && iter.WCRT[k] < w {
				t.Fatalf("trial %d job %d: iterative %d < sim %d", trial, k+1, iter.WCRT[k], w)
			}
		}
	}
}
