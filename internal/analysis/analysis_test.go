package analysis

import (
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
)

// domCfg exercises every scheduler mix.
func domCfg(scheds ...model.Scheduler) randsys.Config {
	cfg := randsys.Default
	cfg.Schedulers = scheds
	return cfg
}

// checkDominates asserts the approximate bounds bracket the simulated
// schedule: per-hop arrival and departure bounds hold instance by
// instance, and the end-to-end bounds dominate the observed responses.
func checkDominates(t *testing.T, trial int, sys *model.System, res *Result, got *sim.Result) {
	t.Helper()
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			hop := res.Hops[k][j]
			for i := range sys.Jobs[k].Releases {
				sa, sd := got.Arrival[k][j][i], got.Departure[k][j][i]
				if hop.ArrEarly[i] > sa {
					t.Fatalf("trial %d: T_{%d,%d} inst %d: ArrEarly %d > simulated arrival %d\nsystem: %+v",
						trial, k+1, j+1, i, hop.ArrEarly[i], sa, sys)
				}
				if !curve.IsInf(hop.ArrLate[i]) && hop.ArrLate[i] < sa {
					t.Fatalf("trial %d: T_{%d,%d} inst %d: ArrLate %d < simulated arrival %d\nsystem: %+v",
						trial, k+1, j+1, i, hop.ArrLate[i], sa, sys)
				}
				if hop.DepEarly[i] > sd {
					t.Fatalf("trial %d: T_{%d,%d} inst %d: DepEarly %d > simulated departure %d\nsystem: %+v",
						trial, k+1, j+1, i, hop.DepEarly[i], sd, sys)
				}
				if !curve.IsInf(hop.DepLate[i]) && hop.DepLate[i] < sd {
					t.Fatalf("trial %d: T_{%d,%d} inst %d: DepLate %d < simulated departure %d\nsystem: %+v",
						trial, k+1, j+1, i, hop.DepLate[i], sd, sys)
				}
			}
		}
		if w := got.WorstResponse(k); !curve.IsInf(res.WCRT[k]) && res.WCRT[k] < w {
			t.Fatalf("trial %d: job %d WCRT %d < simulated %d\nsystem: %+v", trial, k+1, res.WCRT[k], w, sys)
		}
		if !curve.IsInf(res.WCRTSum[k]) && res.WCRTSum[k] < res.WCRT[k] {
			t.Fatalf("trial %d: job %d Theorem 4 sum %d < pipeline bound %d",
				trial, k+1, res.WCRTSum[k], res.WCRT[k])
		}
	}
}

func TestApproximateDominatesSimulationSPNP(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1500; trial++ {
		sys := randsys.New(r, domCfg(model.SPNP))
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

func TestApproximateDominatesSimulationFCFS(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 1500; trial++ {
		sys := randsys.New(r, domCfg(model.FCFS))
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

func TestApproximateDominatesSimulationMixed(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 1500; trial++ {
		sys := randsys.New(r, domCfg(model.SPP, model.SPNP, model.FCFS))
		res, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDominates(t, trial, sys, res, sim.Run(sys))
	}
}

// TestApproximateSPPNeverBeatsExact: on all-SPP systems, the approximate
// bounds must dominate the exact analysis (which equals the simulation).
func TestApproximateSPPNeverBeatsExact(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 1000; trial++ {
		sys := randsys.New(r, domCfg(model.SPP))
		app, err := Approximate(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex, err := Exact(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := range sys.Jobs {
			if curve.IsInf(app.WCRT[k]) {
				continue
			}
			if app.WCRT[k] < ex.WCRT[k] {
				t.Fatalf("trial %d: job %d approximate %d < exact %d\nsystem: %+v",
					trial, k+1, app.WCRT[k], ex.WCRT[k], sys)
			}
		}
		checkDominates(t, trial, sys, app, sim.Run(sys))
	}
}

// TestAnalyzeDispatch verifies the method selection.
func TestAnalyzeDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	sysSPP := randsys.New(r, domCfg(model.SPP))
	res, err := Analyze(sysSPP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "SPP/Exact" {
		t.Fatalf("method = %q, want SPP/Exact", res.Method)
	}
	sysF := randsys.New(r, domCfg(model.FCFS))
	res, err = Analyze(sysF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "App" {
		t.Fatalf("method = %q, want App", res.Method)
	}
}

// TestSingleHopFCFSExactCase: one FCFS processor, one job - the bounds
// collapse to the exact completion times.
func TestSingleHopFCFSExactCase(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.FCFS}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 5}},
				Releases: []model.Ticks{0, 3, 20}},
		},
	}
	res, err := Approximate(sys)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(sys)
	want := []model.Ticks{5, 10, 25}
	for i, w := range want {
		if got.Departure[0][0][i] != w {
			t.Fatalf("simulated departure %d = %d, want %d", i, got.Departure[0][0][i], w)
		}
		if res.Hops[0][0].DepLate[i] != w {
			t.Errorf("DepLate[%d] = %d, want exact %d", i, res.Hops[0][0].DepLate[i], w)
		}
	}
	if res.WCRT[0] != 7 {
		t.Errorf("WCRT = %d, want 7", res.WCRT[0])
	}
}

// TestSPNPBlockingShows: a high-priority subjob on an SPNP processor must
// account one lower-priority execution of blocking.
func TestSPNPBlockingShows(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPNP}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}},
				Releases: []model.Ticks{10}},
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 9, Priority: 1}},
				Releases: []model.Ticks{0, 30}},
		},
	}
	res, err := Approximate(sys)
	if err != nil {
		t.Fatal(err)
	}
	// The high-priority job can be blocked by the 9-tick low job: its
	// bound must be at least 2 (execution) and account blocking (the
	// simulation shows 9-10+2 in the worst phasing; here release at 10
	// while low runs 0..9 -> start 10, but analysis must assume the
	// blocker just started: bound >= 2, and with blocking bound >= 2+9=11
	// is allowed; exact simulated response is 2).
	got := sim.Run(sys)
	if w := got.WorstResponse(0); res.WCRT[0] < w {
		t.Fatalf("WCRT %d < simulated %d", res.WCRT[0], w)
	}
	if res.WCRT[0] < 2 || res.WCRT[0] > 11 {
		t.Errorf("WCRT = %d, want within [2, 11]", res.WCRT[0])
	}
}

// TestFCFSDominatesAdversarialTieBreaks: the FCFS bounds must hold for
// EVERY resolution of simultaneous arrivals ("the processor arbitrarily
// picks", Section 4.2.3) - the scenario that breaks Theorem 8 as printed.
// Each system is simulated under many random tie-break orders; the
// analysis, computed once, must bracket them all.
func TestFCFSDominatesAdversarialTieBreaks(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 250; trial++ {
		cfg := domCfg(model.FCFS)
		cfg.Burstiness = 60 // force many simultaneous arrivals
		sys := randsys.New(r, cfg)
		res, err := Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 8; rep++ {
			keys := map[[3]int]int64{}
			got, err := sim.RunOpts(sys, sim.Options{TieBreak: func(j, h, i int) int64 {
				k := [3]int{j, h, i}
				if v, ok := keys[k]; ok {
					return v
				}
				v := r.Int63()
				keys[k] = v
				return v
			}})
			if err != nil {
				t.Fatal(err)
			}
			checkDominates(t, trial*100+rep, sys, res, got)
		}
	}
}

// TestHopInvariants: structural relations of the per-hop artifacts hold
// on random mixed systems: arrival and departure windows are ordered,
// service bounds are pointwise ordered, and windows nest along chains.
func TestHopInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		cfg := domCfg(model.SPP, model.SPNP, model.FCFS)
		cfg.MaxPostDelay = 9
		sys := randsys.New(r, cfg)
		res, err := Approximate(sys)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			for j, hop := range res.Hops[k] {
				for i := range sys.Jobs[k].Releases {
					if !curve.IsInf(hop.ArrLate[i]) && hop.ArrEarly[i] > hop.ArrLate[i] {
						t.Fatalf("trial %d T_{%d,%d} #%d: ArrEarly %d > ArrLate %d",
							trial, k+1, j+1, i, hop.ArrEarly[i], hop.ArrLate[i])
					}
					if !curve.IsInf(hop.DepLate[i]) && hop.DepEarly[i] > hop.DepLate[i] {
						t.Fatalf("trial %d T_{%d,%d} #%d: DepEarly %d > DepLate %d",
							trial, k+1, j+1, i, hop.DepEarly[i], hop.DepLate[i])
					}
					if hop.DepEarly[i] < hop.ArrEarly[i]+sys.Jobs[k].Subjobs[j].Exec {
						t.Fatalf("trial %d T_{%d,%d} #%d: DepEarly %d below arrival+exec",
							trial, k+1, j+1, i, hop.DepEarly[i])
					}
				}
				// Service bounds pointwise ordered over a sample grid.
				for x := model.Ticks(0); x < 300; x += 13 {
					if hop.SvcLo.Eval(x) > hop.SvcHi.Eval(x) {
						t.Fatalf("trial %d T_{%d,%d}: SvcLo > SvcHi at %d", trial, k+1, j+1, x)
					}
				}
				// Instances are ordered within each bound vector.
				for i := 1; i < len(hop.DepLate); i++ {
					if !curve.IsInf(hop.DepLate[i]) && curve.IsInf(hop.DepLate[i-1]) {
						t.Fatalf("trial %d T_{%d,%d}: Inf not a suffix in DepLate", trial, k+1, j+1)
					}
					if hop.DepEarly[i] < hop.DepEarly[i-1] {
						t.Fatalf("trial %d T_{%d,%d}: DepEarly not monotone", trial, k+1, j+1)
					}
				}
			}
		}
	}
}
