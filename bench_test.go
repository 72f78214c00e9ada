package rta_test

// The benchmark harness regenerates every panel of the paper's evaluation
// (Figures 3 and 4) and reports the admission probabilities as benchmark
// metrics, next to micro-benchmarks of the analysis engines and the
// ablations called out in DESIGN.md. Full-fidelity runs (1000 sets/point,
// the paper's scale) are produced by cmd/rta-jobshop; the benchmarks use
// a reduced set count so the whole suite stays minutes, not hours.

import (
	"context"
	"fmt"
	"testing"

	"rta"
	"rta/internal/analysis"
	"rta/internal/cpa"
	"rta/internal/curve"
	"rta/internal/envelope"
	"rta/internal/experiments"
	"rta/internal/metrics"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/spp"
	"rta/internal/stats"
	"rta/internal/sunliu"
	"rta/internal/workload"
)

// benchSets is the per-point sample size used inside benchmarks.
const benchSets = 24

var benchUtils = []float64{0.3, 0.6, 0.9}

// runPanel sweeps one panel per iteration and reports the admission
// probability of every method at each utilization as metrics.
func runPanel(b *testing.B, cfg workload.Config, methods []experiments.Method) {
	b.Helper()
	var panel experiments.Panel
	for i := 0; i < b.N; i++ {
		var err error
		panel, err = experiments.Sweep(cfg, experiments.Options{
			Seed: 1, Sets: benchSets, Utilizations: benchUtils, Methods: methods,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range panel.Points {
		for m, pr := range pt.Admission {
			name := fmt.Sprintf("admit(%s)@%.1f", m, pt.Utilization)
			b.ReportMetric(pr.Estimate(), name)
		}
	}
}

// ---- Figure 3: periodic arrivals (Equations 25/26) ----

func benchFigure3(b *testing.B, stages int, deadlineFactor float64) {
	cfg := workload.Default
	cfg.Arrival = workload.Periodic
	cfg.Stages = stages
	cfg.DeadlineFactor = deadlineFactor
	runPanel(b, cfg, []experiments.Method{
		experiments.SPPExact, experiments.SunLiu, experiments.SPNPApp, experiments.FCFSApp,
	})
}

func BenchmarkFigure3a_1Stage_Deadline2x(b *testing.B)  { benchFigure3(b, 1, 2) }
func BenchmarkFigure3b_2Stages_Deadline2x(b *testing.B) { benchFigure3(b, 2, 2) }
func BenchmarkFigure3c_4Stages_Deadline2x(b *testing.B) { benchFigure3(b, 4, 2) }
func BenchmarkFigure3d_1Stage_Deadline4x(b *testing.B)  { benchFigure3(b, 1, 4) }
func BenchmarkFigure3e_2Stages_Deadline4x(b *testing.B) { benchFigure3(b, 2, 4) }
func BenchmarkFigure3f_4Stages_Deadline4x(b *testing.B) { benchFigure3(b, 4, 4) }

// ---- Figure 4: aperiodic/bursty arrivals (Equations 27/28) ----

func benchFigure4(b *testing.B, mean, scale float64) {
	cfg := workload.Default
	cfg.Arrival = workload.Aperiodic
	cfg.Stages = 4
	cfg.DeadlineScale = scale
	cfg.DeadlineOffset = mean - scale
	if cfg.DeadlineOffset < 0 {
		cfg.DeadlineOffset = 0
	}
	runPanel(b, cfg, []experiments.Method{
		experiments.SPPExact, experiments.SPNPApp, experiments.FCFSApp,
	})
}

func BenchmarkFigure4a_Mean6_Std1(b *testing.B)  { benchFigure4(b, 6, 1) }
func BenchmarkFigure4b_Mean6_Std2(b *testing.B)  { benchFigure4(b, 6, 2) }
func BenchmarkFigure4c_Mean6_Std4(b *testing.B)  { benchFigure4(b, 6, 4) }
func BenchmarkFigure4d_Mean10_Std1(b *testing.B) { benchFigure4(b, 10, 1) }
func BenchmarkFigure4e_Mean10_Std2(b *testing.B) { benchFigure4(b, 10, 2) }
func BenchmarkFigure4f_Mean10_Std4(b *testing.B) { benchFigure4(b, 10, 4) }

// ---- Ablations ----

// BenchmarkAblationUtilizationNormalization compares the as-printed
// Equation (26) workload (realized utilization below the parameter)
// against the normalized form the experiments default to.
func BenchmarkAblationUtilizationNormalization(b *testing.B) {
	for _, norm := range []bool{false, true} {
		name := "asPrinted"
		if norm {
			name = "normalized"
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.Default
			cfg.Stages = 2
			cfg.NormalizeUtilization = norm
			runPanel(b, cfg, []experiments.Method{experiments.SPPExact})
		})
	}
}

// BenchmarkAblationHorizon measures how the trace horizon changes the
// exact WCRT (the worst case should stabilize once the horizon covers the
// critical busy window) and what it costs.
func BenchmarkAblationHorizon(b *testing.B) {
	for _, hp := range []float64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("periods=%g", hp), func(b *testing.B) {
			cfg := workload.Default
			cfg.Stages = 2
			cfg.Utilization = 0.7
			cfg.HorizonPeriods = hp
			var mean float64
			for i := 0; i < b.N; i++ {
				var s stats.Summary
				for set := 0; set < benchSets; set++ {
					r := stats.NewRand(7, int64(set))
					d, err := workload.Generate(r, cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := spp.AnalyzeWith(context.Background(), d.WithScheduler(model.SPP), 1, nil)
					if err != nil {
						b.Fatal(err)
					}
					for k := range res.WCRT {
						s.Add(float64(res.WCRT[k]))
					}
				}
				mean = s.Mean()
			}
			b.ReportMetric(mean, "meanWCRT")
		})
	}
}

// BenchmarkAblationTheorem4VsPerInstance quantifies the pessimism of the
// paper's Equation (11) sum against the per-instance pipeline bound the
// same bookkeeping provides.
func BenchmarkAblationTheorem4VsPerInstance(b *testing.B) {
	cfg := workload.Default
	cfg.Stages = 4
	cfg.Utilization = 0.6
	var ratio stats.Summary
	for i := 0; i < b.N; i++ {
		ratio = stats.Summary{}
		for set := 0; set < benchSets; set++ {
			r := stats.NewRand(9, int64(set))
			d, err := workload.Generate(r, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sys := d.WithScheduler(model.SPNP)
			res, err := analysis.Approximate(sys)
			if err != nil {
				b.Fatal(err)
			}
			for k := range res.WCRT {
				if !rta.IsInf(res.WCRTSum[k]) && res.WCRT[k] > 0 {
					ratio.Add(float64(res.WCRTSum[k]) / float64(res.WCRT[k]))
				}
			}
		}
	}
	b.ReportMetric(ratio.Mean(), "sum/perInstance")
}

// ---- Engine micro-benchmarks ----

func benchDraw(util float64, stages int) *workload.Draw {
	cfg := workload.Default
	cfg.Stages = stages
	cfg.Utilization = util
	r := stats.NewRand(3, 0)
	d, err := workload.Generate(r, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func BenchmarkExactAnalysis(b *testing.B) {
	d := benchDraw(0.7, 4)
	sys := d.WithScheduler(model.SPP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spp.AnalyzeWith(context.Background(), sys, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproximateSPNP(b *testing.B) {
	d := benchDraw(0.7, 4)
	sys := d.WithScheduler(model.SPNP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Approximate(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproximateFCFS(b *testing.B) {
	d := benchDraw(0.7, 4)
	sys := d.WithScheduler(model.FCFS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Approximate(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulation(b *testing.B) {
	d := benchDraw(0.7, 4)
	sys := d.WithScheduler(model.SPP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rta.Simulate(sys)
	}
}

func BenchmarkCurveServiceTransform(b *testing.B) {
	// A representative transform: 256-instance staircase against a
	// throttled availability.
	var jumps []curve.Time
	for i := 0; i < 256; i++ {
		jumps = append(jumps, curve.Time(i*37))
	}
	demand := curve.Staircase(jumps, 11)
	higher := curve.Staircase(jumps, 5)
	avail := curve.Availability([]*curve.Curve{curve.ServiceTransform(curve.Identity(), higher)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve.ServiceTransform(avail, demand)
	}
}

func BenchmarkCurveInverse(b *testing.B) {
	var jumps []curve.Time
	for i := 0; i < 1024; i++ {
		jumps = append(jumps, curve.Time(i*13))
	}
	s := curve.ServiceTransform(curve.Identity(), curve.Staircase(jumps, 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CompletionTimes(7, 1024)
	}
}

// BenchmarkExtensionBurstSweep is an extension experiment beyond the
// paper's figures: admission probability as a function of burst size at a
// constant average arrival rate (the title's "bursty job arrivals" made
// quantitative). Larger bursts concentrate the same long-run load into
// spikes; the trace-exact SPP analysis prices exactly that.
func BenchmarkExtensionBurstSweep(b *testing.B) {
	for _, burst := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			cfg := workload.Default
			cfg.Stages = 2
			cfg.Arrival = workload.Bursty
			cfg.BurstSize = burst
			cfg.DeadlineFactor = 3
			runPanel(b, cfg, []experiments.Method{experiments.SPPExact, experiments.SPNPApp})
		})
	}
}

// BenchmarkExtensionSyncProtocols is a second extension experiment: the
// paper's introduction argues that synchronization protocols (Sun&Liu's
// Phase Modification, Release Guard) simplify analysis but add average
// latency, and that direct synchronization with the exact analysis wins
// on both axes. This bench measures all three on the same periodic job
// shops: worst-case bound (exact, per policy) and mean simulated
// response, reported as metrics relative to direct synchronization.
func BenchmarkExtensionSyncProtocols(b *testing.B) {
	cfg := workload.Default
	cfg.Stages = 3
	cfg.Utilization = 0.5
	var wcrtPM, wcrtRG, meanPM, meanRG stats.Summary
	for i := 0; i < b.N; i++ {
		wcrtPM, wcrtRG, meanPM, meanRG = stats.Summary{}, stats.Summary{}, stats.Summary{}, stats.Summary{}
		for set := 0; set < benchSets; set++ {
			r := stats.NewRand(17, int64(set))
			d, err := workload.Generate(r, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ds := d.WithScheduler(model.SPP)
			dsRes, err := spp.AnalyzeWith(context.Background(), ds, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			dsSim := metrics.Summarize(ds, rta.Simulate(ds))

			// Phase Modification: offsets from the holistic per-hop
			// bounds, the way [1] deploys it.
			hol, err := sunliu.Analyze(d.SunLiu())
			if err != nil {
				b.Fatal(err)
			}
			pm := ds.Clone()
			usable := true
			for k := range pm.Jobs {
				pm.Jobs[k].Sync = model.PhaseModification
				pm.Jobs[k].Phases = make([]model.Ticks, len(pm.Jobs[k].Subjobs))
				for j := 1; j < len(pm.Jobs[k].Subjobs); j++ {
					if hol.HopResponse[k][j-1] == sunliu.Inf {
						usable = false
					} else {
						pm.Jobs[k].Phases[j] = hol.HopResponse[k][j-1]
					}
				}
			}
			rg := ds.Clone()
			for k := range rg.Jobs {
				rg.Jobs[k].Sync = model.ReleaseGuard
				rg.Jobs[k].Period = d.Period[k]
			}
			rgRes, err := spp.AnalyzeWith(context.Background(), rg, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			rgSim := metrics.Summarize(rg, rta.Simulate(rg))
			for k := range ds.Jobs {
				if dsRes.WCRT[k] > 0 && !rta.IsInf(rgRes.WCRT[k]) {
					wcrtRG.Add(float64(rgRes.WCRT[k]) / float64(dsRes.WCRT[k]))
				}
				if dsSim.Jobs[k].Mean > 0 {
					meanRG.Add(rgSim.Jobs[k].Mean / dsSim.Jobs[k].Mean)
				}
			}
			if usable {
				pmRes, err := spp.AnalyzeWith(context.Background(), pm, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				pmSim := metrics.Summarize(pm, rta.Simulate(pm))
				for k := range ds.Jobs {
					if dsRes.WCRT[k] > 0 && !rta.IsInf(pmRes.WCRT[k]) {
						wcrtPM.Add(float64(pmRes.WCRT[k]) / float64(dsRes.WCRT[k]))
					}
					if dsSim.Jobs[k].Mean > 0 {
						meanPM.Add(pmSim.Jobs[k].Mean / dsSim.Jobs[k].Mean)
					}
				}
			}
		}
	}
	b.ReportMetric(wcrtPM.Mean(), "wcrt(PM/DS)")
	b.ReportMetric(wcrtRG.Mean(), "wcrt(RG/DS)")
	b.ReportMetric(meanPM.Mean(), "meanResp(PM/DS)")
	b.ReportMetric(meanRG.Mean(), "meanResp(RG/DS)")
}

// BenchmarkExtensionCPAComparison positions the paper's trace-exact
// analysis against a modern envelope-based Compositional Performance
// Analysis baseline (internal/cpa, pyCPA-style) on the same workloads:
// periodic job shops analyzed by CPA from periodic envelopes and by the
// trace analysis from the synchronous traces. The reported metric is the
// mean ratio CPA-bound / trace-exact WCRT (>= 1; the gap is the price of
// abstracting traces into envelopes and propagating jitter).
func BenchmarkExtensionCPAComparison(b *testing.B) {
	for _, util := range []float64{0.5, 0.8} {
		b.Run(fmt.Sprintf("util=%g", util), func(b *testing.B) {
			benchCPAComparison(b, util)
		})
	}
}

func benchCPAComparison(b *testing.B, util float64) {
	cfg := workload.Default
	cfg.Stages = 3
	cfg.Utilization = util
	var ratio stats.Summary
	admitCPA, admitExact := 0, 0
	for i := 0; i < b.N; i++ {
		ratio = stats.Summary{}
		admitCPA, admitExact = 0, 0
		for set := 0; set < benchSets; set++ {
			r := stats.NewRand(21, int64(set))
			d, err := workload.Generate(r, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sys := d.WithScheduler(model.SPP)
			exact, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			csys := &cpa.System{Procs: sys.Procs}
			for k := range sys.Jobs {
				csys.Tasks = append(csys.Tasks, cpa.Task{
					Deadline: sys.Jobs[k].Deadline,
					Arrival:  envelope.Periodic(d.Period[k], 8),
					Subjobs:  sys.Jobs[k].Subjobs,
				})
			}
			cres, err := cpa.Analyze(csys)
			if err != nil {
				b.Fatal(err)
			}
			if cres.Schedulable(csys) {
				admitCPA++
			}
			ok := true
			for k := range sys.Jobs {
				if rta.IsInf(exact.WCRT[k]) || exact.WCRT[k] > sys.Jobs[k].Deadline {
					ok = false
				}
				if exact.WCRT[k] > 0 && cres.WCRT[k] != cpa.Inf {
					ratio.Add(float64(cres.WCRT[k]) / float64(exact.WCRT[k]))
				}
			}
			if ok {
				admitExact++
			}
		}
	}
	b.ReportMetric(ratio.Mean(), "cpaBound/exact")
	b.ReportMetric(float64(admitExact)/float64(benchSets), "admit(exact)")
	b.ReportMetric(float64(admitCPA)/float64(benchSets), "admit(CPA)")
}

// BenchmarkExtensionSynchronousVsRandomPhases quantifies how much of the
// rejection at high utilization is the synchronous critical instant of
// Equation (25): with random phases the same job sets admit far more.
func BenchmarkExtensionSynchronousVsRandomPhases(b *testing.B) {
	for _, phases := range []bool{false, true} {
		name := "synchronous"
		if phases {
			name = "randomPhases"
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.Default
			cfg.Stages = 2
			cfg.RandomPhases = phases
			runPanel(b, cfg, []experiments.Method{experiments.SPPExact})
		})
	}
}

// BenchmarkExtensionPrioritySynthesis measures the admission gained by
// replacing Equation (24)'s relative-deadline-monotonic priorities with
// Audsley synthesis on the same draws.
func BenchmarkExtensionPrioritySynthesis(b *testing.B) {
	cfg := workload.Default
	cfg.Stages = 2
	cfg.Utilization = 0.85
	cfg.DeadlineFactor = 1.5
	rdmAdmit, audAdmit := 0, 0
	for i := 0; i < b.N; i++ {
		rdmAdmit, audAdmit = 0, 0
		for set := 0; set < benchSets; set++ {
			r := stats.NewRand(29, int64(set))
			d, err := workload.Generate(r, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sys := d.WithScheduler(model.SPP)
			res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Schedulable(sys) {
				rdmAdmit++
			}
			synth := sys.Clone()
			ok, err := priority.Audsley(synth, func(s *model.System, job int) (bool, error) {
				r, err := spp.AnalyzeWith(context.Background(), s, 1, nil)
				if err != nil {
					return false, err
				}
				return !rta.IsInf(r.WCRT[job]) && r.WCRT[job] <= s.Jobs[job].Deadline, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				audAdmit++
			}
		}
	}
	b.ReportMetric(float64(rdmAdmit)/benchSets, "admit(RDM)")
	b.ReportMetric(float64(audAdmit)/benchSets, "admit(Audsley)")
}

// BenchmarkExtensionHeterogeneous exercises the paper's "heterogeneous
// systems" claim: the same job shop with stage-alternating schedulers
// (SPP, SPNP, FCFS, SPP) analyzed end to end by the Theorem 4 pipeline.
func BenchmarkExtensionHeterogeneous(b *testing.B) {
	cfg := workload.Default
	cfg.Stages = 4
	cfg.DeadlineFactor = 4
	var pr stats.Proportion
	for i := 0; i < b.N; i++ {
		pr = stats.Proportion{}
		for set := 0; set < benchSets; set++ {
			for _, u := range benchUtils {
				c := cfg
				c.Utilization = u
				r := stats.NewRand(31, int64(set)*7+int64(u*100))
				d, err := workload.Generate(r, c)
				if err != nil {
					b.Fatal(err)
				}
				sys := d.System.Clone()
				scheds := []model.Scheduler{model.SPP, model.SPNP, model.FCFS, model.SPP}
				for p := range sys.Procs {
					sys.Procs[p].Sched = scheds[(p/cfg.ProcsPerStage)%len(scheds)]
				}
				res, err := analysis.Approximate(sys)
				if err != nil {
					b.Fatal(err)
				}
				pr.Add(res.Schedulable(sys))
			}
		}
	}
	b.ReportMetric(pr.Estimate(), "admit(hetero)")
}

// BenchmarkExtensionOtherParameters backs the paper's closing remark that
// "other parameter values led to similar observations": the Figure 3
// ordering at a fixed utilization, swept over the number of jobs and
// processors per stage.
func BenchmarkExtensionOtherParameters(b *testing.B) {
	for _, jobs := range []int{4, 8, 12} {
		for _, procs := range []int{2, 3} {
			b.Run(fmt.Sprintf("jobs=%d_procs=%d", jobs, procs), func(b *testing.B) {
				cfg := workload.Default
				cfg.Stages = 2
				cfg.Jobs = jobs
				cfg.ProcsPerStage = procs
				cfg.Utilization = 0.8
				var ex, sl stats.Proportion
				for i := 0; i < b.N; i++ {
					ex, sl = stats.Proportion{}, stats.Proportion{}
					for set := 0; set < benchSets; set++ {
						r := stats.NewRand(37, int64(set))
						d, err := workload.Generate(r, cfg)
						if err != nil {
							b.Fatal(err)
						}
						got, err := experiments.Admit(d, []experiments.Method{experiments.SPPExact, experiments.SunLiu})
						if err != nil {
							b.Fatal(err)
						}
						ex.Add(got[experiments.SPPExact])
						sl.Add(got[experiments.SunLiu])
						if got[experiments.SunLiu] && !got[experiments.SPPExact] {
							b.Fatal("ordering violated: S&L admitted where exact rejected")
						}
					}
				}
				b.ReportMetric(ex.Estimate(), "admit(exact)")
				b.ReportMetric(sl.Estimate(), "admit(S&L)")
			})
		}
	}
}

// BenchmarkExtensionTightAdmission compares the paper's Equation (11)
// admission (sum of per-hop bounds) against admission on the per-instance
// pipeline bound the same bookkeeping provides, for both approximate
// methods.
func BenchmarkExtensionTightAdmission(b *testing.B) {
	cfg := workload.Default
	cfg.Stages = 2
	cfg.DeadlineFactor = 2
	runPanel(b, cfg, []experiments.Method{
		experiments.SPNPApp, experiments.SPNPAppTight,
		experiments.FCFSApp, experiments.FCFSAppTight,
	})
}
