// Package integration cross-validates every engine in the module on the
// same randomized systems: the ordering lattice
//
//	simulation <= exact = tight(approx on SPP) <= Theorem-4 sum
//	simulation <= iterative
//	holistic >= exact (periodic, SPP)
//	CPA >= exact on maximal traces
//
// must hold simultaneously, together with schedulability-decision
// consistency between bounds and verdicts. Any regression in one engine
// that the per-package suites miss tends to break an inequality here.
package integration

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/periodic"
	"rta/internal/randsys"
	"rta/internal/sched"
	_ "rta/internal/sched/tdma" // register the TDMA policy for the mixed draws
	"rta/internal/sim"
	"rta/internal/spp"
	"rta/internal/sunliu"
)

func TestOrderingLatticeSPP(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 600; trial++ {
		cfg := randsys.Default
		cfg.MaxPostDelay = 10
		sys := randsys.New(r, cfg)

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
			// Divergence is a valid outcome; the other engines already
			// cross-check below.
			iter = nil
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
					t.Fatalf("trial %d job %d: thm4 %d < tight %d", trial, k+1, app.WCRTSum[k], app.WCRT[k])
				}
			}
			if iter != nil && !curve.IsInf(iter.WCRT[k]) && iter.WCRT[k] < w {
				t.Fatalf("trial %d job %d: iterative %d < sim %d", trial, k+1, iter.WCRT[k], w)
			}
		}

		// Decision consistency: if the Theorem 4 sum admits, the exact
		// analysis admits (bounds only shrink down the lattice).
		if app.Schedulable(sys) && !exact.Schedulable(sys) {
			t.Fatalf("trial %d: Theorem 4 admits but exact rejects", trial)
		}
	}
}

func TestOrderingLatticeMixedSchedulers(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	for trial := 0; trial < 600; trial++ {
		cfg := randsys.Default
		// Every registered discipline, including TDMA, joins the mix.
		cfg.Schedulers = randsys.MixedSchedulers()
		cfg.Resources = 2
		cfg.MaxPostDelay = 8
		sys := randsys.New(r, cfg)

		simRes := sim.Run(sys)
		app, err := analysis.Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			w := simRes.WorstResponse(k)
			if !curve.IsInf(app.WCRT[k]) && app.WCRT[k] < w {
				t.Fatalf("trial %d job %d: tight %d < sim %d", trial, k+1, app.WCRT[k], w)
			}
			if !curve.IsInf(app.WCRTSum[k]) && app.WCRTSum[k] < w {
				t.Fatalf("trial %d job %d: thm4 %d < sim %d", trial, k+1, app.WCRTSum[k], w)
			}
		}
	}
}

// TestBracketingPerPolicy drives the simulation-bracketing property
// separately for every registered policy: on homogeneous random systems of
// each discipline, the observed responses must never exceed the analytic
// upper bounds (the per-instance pipeline bound and the Theorem 4 sum).
// The loop is registry-driven, so a newly registered discipline is covered
// without touching this test.
func TestBracketingPerPolicy(t *testing.T) {
	for _, pol := range sched.Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(105 + int64(pol.Scheduler())))
			for trial := 0; trial < 300; trial++ {
				cfg := randsys.Default
				cfg.Schedulers = []model.Scheduler{pol.Scheduler()}
				cfg.MaxPostDelay = 6
				sys := randsys.New(r, cfg)

				simRes := sim.Run(sys)
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
					if !curve.IsInf(app.WCRT[k]) && app.WCRT[k] < w {
						t.Fatalf("trial %d job %d: tight %d < sim %d", trial, k+1, app.WCRT[k], w)
					}
					if !curve.IsInf(app.WCRTSum[k]) && app.WCRTSum[k] < w {
						t.Fatalf("trial %d job %d: thm4 %d < sim %d", trial, k+1, app.WCRTSum[k], w)
					}
					if iter != nil && !curve.IsInf(iter.WCRT[k]) && iter.WCRT[k] < w {
						t.Fatalf("trial %d job %d: iterative %d < sim %d", trial, k+1, iter.WCRT[k], w)
					}
				}
			}
		})
	}
}

// TestPeriodicTriangle: holistic >= trace-exact == simulation on
// multi-stage periodic systems, per draw.
func TestPeriodicTriangle(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 200; trial++ {
		procs := []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}}
		var tasks []periodic.Task
		hs := &sunliu.System{Procs: procs}
		util := [2]float64{}
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			period := model.Ticks(16 + r.Intn(60))
			var subjobs []model.Subjob
			for p := 0; p < 2; p++ {
				maxExec := int(float64(period) * (0.8 - util[p]))
				if maxExec < 1 {
					continue
				}
				exec := model.Ticks(1 + r.Intn(maxExec))
				util[p] += float64(exec) / float64(period)
				subjobs = append(subjobs, model.Subjob{Proc: p, Exec: exec, Priority: i})
			}
			if len(subjobs) == 0 {
				continue
			}
			tasks = append(tasks, periodic.Task{Period: period, Deadline: 1 << 30, Subjobs: subjobs})
			hs.Tasks = append(hs.Tasks, sunliu.Task{Period: period, Deadline: 1 << 30, Subjobs: subjobs})
		}
		if len(tasks) == 0 {
			continue
		}
		sys, err := periodic.Build(procs, tasks, periodic.Config{HorizonHyperperiods: 1, MaxHorizon: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		simRes := sim.Run(sys)
		hol, err := sunliu.Analyze(hs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tasks {
			if exact.WCRT[k] != simRes.WorstResponse(k) {
				t.Fatalf("trial %d: exact != sim", trial)
			}
			if hol.WCRT[k] != sunliu.Inf && hol.WCRT[k] < exact.WCRT[k] {
				t.Fatalf("trial %d task %d: holistic %d < exact %d", trial, k+1, hol.WCRT[k], exact.WCRT[k])
			}
		}
	}
}

// TestBacklogLattice: exact backlog == simulated; approximate bound >=
// exact.
func TestBacklogLattice(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	for trial := 0; trial < 300; trial++ {
		sys := randsys.New(r, randsys.Default)
		exact, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		app, err := analysis.Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				if b := app.Hops[k][j].Backlog; b >= 0 && b < exact.Backlog[k][j] {
					t.Fatalf("trial %d T_{%d,%d}: approx backlog %d < exact %d",
						trial, k+1, j+1, b, exact.Backlog[k][j])
				}
			}
		}
	}
}
