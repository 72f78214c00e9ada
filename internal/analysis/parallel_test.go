package analysis

import (
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"

	_ "rta/internal/sched/tdma" // register TDMA for the all-policy mix
)

// sameTicks compares two bound vectors including Inf sentinels.
func sameTicks(a, b []model.Ticks) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSameResult asserts field-for-field equality of two analysis
// results, down to the per-hop curves.
func requireSameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if serial.Method != parallel.Method {
		t.Fatalf("%s: Method %q != %q", label, serial.Method, parallel.Method)
	}
	if !sameTicks(serial.WCRT, parallel.WCRT) {
		t.Fatalf("%s: WCRT mismatch:\n%v\n%v", label, serial.WCRT, parallel.WCRT)
	}
	if !sameTicks(serial.WCRTSum, parallel.WCRTSum) {
		t.Fatalf("%s: WCRTSum mismatch:\n%v\n%v", label, serial.WCRTSum, parallel.WCRTSum)
	}
	if (serial.Hops == nil) != (parallel.Hops == nil) || len(serial.Hops) != len(parallel.Hops) {
		t.Fatalf("%s: Hops shape mismatch", label)
	}
	for k := range serial.Hops {
		for j := range serial.Hops[k] {
			sh, ph := &serial.Hops[k][j], &parallel.Hops[k][j]
			if !sameTicks(sh.ArrEarly, ph.ArrEarly) || !sameTicks(sh.ArrLate, ph.ArrLate) ||
				!sameTicks(sh.DepEarly, ph.DepEarly) || !sameTicks(sh.DepLate, ph.DepLate) {
				t.Fatalf("%s: hop (%d,%d) arrival/departure bounds differ", label, k, j)
			}
			if sh.Local != ph.Local || sh.Backlog != ph.Backlog {
				t.Fatalf("%s: hop (%d,%d) Local/Backlog differ", label, k, j)
			}
			if !sh.SvcLo.Equal(ph.SvcLo) || !sh.SvcHi.Equal(ph.SvcHi) {
				t.Fatalf("%s: hop (%d,%d) service curves differ", label, k, j)
			}
		}
	}
	if (serial.Exact == nil) != (parallel.Exact == nil) {
		t.Fatalf("%s: Exact presence differs", label)
	}
	if serial.Exact != nil {
		se, pe := serial.Exact, parallel.Exact
		if !sameTicks(se.WCRT, pe.WCRT) {
			t.Fatalf("%s: exact WCRT mismatch", label)
		}
		for k := range se.Departure {
			for j := range se.Departure[k] {
				if !sameTicks(se.Arrival[k][j], pe.Arrival[k][j]) ||
					!sameTicks(se.Departure[k][j], pe.Departure[k][j]) {
					t.Fatalf("%s: exact traces differ at (%d,%d)", label, k, j)
				}
				if !se.Service[k][j].Equal(pe.Service[k][j]) {
					t.Fatalf("%s: exact service differs at (%d,%d)", label, k, j)
				}
				if se.Backlog[k][j] != pe.Backlog[k][j] {
					t.Fatalf("%s: exact backlog differs at (%d,%d)", label, k, j)
				}
			}
		}
	}
}

// TestParallelDeterminism: for every scheduler mix and worker count, the
// level-parallel engines return results field-identical to the serial
// sweep (run under -race in CI to double as the data-race check).
func TestParallelDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	for trial := 0; trial < 60; trial++ {
		cfg.Resources = trial % 2
		sys := randsys.New(r, cfg)
		serial, serr := AnalyzeOpts(sys, Options{Workers: 1})
		for _, workers := range []int{2, 4, 8, -1} {
			parallel, perr := AnalyzeOpts(sys, Options{Workers: workers})
			if (serr == nil) != (perr == nil) {
				t.Fatalf("trial %d workers %d: error mismatch %v vs %v", trial, workers, serr, perr)
			}
			if serr != nil {
				continue
			}
			requireSameResult(t, "Analyze", serial, parallel)
		}
	}
}

// TestParallelDeterminismAllPolicies: the same serial-vs-parallel
// field-identity check with every registered discipline in the mix —
// including TDMA, whose service bounds come through the policy registry
// rather than the built-in switch — so policy-specific memoization paths
// are covered by the identity check too.
func TestParallelDeterminismAllPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	cfg := randsys.Default
	cfg.Schedulers = randsys.MixedSchedulers()
	cfg.Resources = 1
	for trial := 0; trial < 40; trial++ {
		sys := randsys.New(r, cfg)
		serial, serr := AnalyzeOpts(sys, Options{Workers: 1})
		for _, workers := range []int{2, 8} {
			parallel, perr := AnalyzeOpts(sys, Options{Workers: workers})
			if (serr == nil) != (perr == nil) {
				t.Fatalf("trial %d workers %d: error mismatch %v vs %v", trial, workers, serr, perr)
			}
			if serr != nil {
				continue
			}
			requireSameResult(t, "AnalyzeAllPolicies", serial, parallel)
		}
	}
}

// TestParallelDeterminismExact: the all-SPP exact engine specifically
// (deep Service/Arrival/Departure traces compared instance by instance).
func TestParallelDeterminismExact(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP}
	for trial := 0; trial < 40; trial++ {
		sys := randsys.New(r, cfg)
		serial, serr := ExactOpts(sys, Options{Workers: 1})
		parallel, perr := ExactOpts(sys, Options{Workers: 8})
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, serr, perr)
		}
		if serr != nil {
			continue
		}
		requireSameResult(t, "Exact", serial, parallel)
	}
}

// TestIterativeDivergencePartial: when the iteration exhausts its round
// budget, only the jobs still moving (and those depending on them) are
// reported unbounded; an independent converged job keeps its finite
// bound. Regression test for the blanket Inf stamping.
func TestIterativeDivergencePartial(t *testing.T) {
	// A random loop system whose fixed point needs more than two rounds
	// (seed picked by scanning randsys; asserted below so a generator
	// change cannot silently void the test), plus an independent job on
	// its own processor that converges in the first round.
	cfg := randsys.Default
	cfg.Loops = true
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	sys := randsys.New(rand.New(rand.NewSource(36)), cfg)
	if _, err := Iterative(sys, 0); err != nil {
		t.Skip("seed no longer converges at the default budget; repick the seed")
	}
	loopJobs := len(sys.Jobs)
	own := len(sys.Procs)
	sys.Procs = append(sys.Procs, model.Processor{Sched: model.SPP})
	releases := []model.Ticks{0, 10, 20, 30}
	sys.Jobs = append(sys.Jobs, model.Job{
		Deadline: 1 << 30,
		Releases: releases,
		Subjobs:  []model.Subjob{{Proc: own, Exec: 1}},
	})

	res, err := Iterative(sys, 2)
	if err == nil {
		t.Fatal("expected non-convergence within 2 rounds")
	}
	if res.Method != "App/Iterative(diverged)" {
		t.Fatalf("Method = %q", res.Method)
	}
	someInf := false
	for k := 0; k < loopJobs; k++ {
		if curve.IsInf(res.WCRT[k]) {
			someInf = true
		}
	}
	if !someInf {
		t.Fatalf("no looping job reported unbounded: %v", res.WCRT[:loopJobs])
	}
	indep := loopJobs
	if curve.IsInf(res.WCRT[indep]) || curve.IsInf(res.WCRTSum[indep]) {
		t.Fatal("independent converged job was stamped unbounded")
	}
	// The independent job's bound must equal what it gets analyzed alone.
	alone := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{{
			Deadline: 1 << 30, Releases: releases,
			Subjobs: []model.Subjob{{Proc: 0, Exec: 1}},
		}},
	}
	want, aerr := Iterative(alone, 0)
	if aerr != nil {
		t.Fatalf("standalone analysis failed: %v", aerr)
	}
	if res.WCRT[indep] != want.WCRT[0] || res.WCRTSum[indep] != want.WCRTSum[0] {
		t.Fatalf("independent job bound %d/%d, want %d/%d",
			res.WCRT[indep], res.WCRTSum[indep], want.WCRT[0], want.WCRTSum[0])
	}
}
