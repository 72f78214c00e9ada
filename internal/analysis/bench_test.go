package analysis

import (
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
)

// largeSystem is benchsys.Large; the generator lives in its own package
// so the rta-bench command measures the identical workload.
func largeSystem(jobs, hops, instances int, sched model.Scheduler) *model.System {
	return benchsys.Large(jobs, hops, instances, sched)
}

const (
	benchJobs      = benchsys.Jobs
	benchHops      = benchsys.Hops
	benchInstances = benchsys.Instances
)

func benchAnalyze(b *testing.B, sched model.Scheduler, workers int) {
	sys := largeSystem(benchJobs, benchHops, benchInstances, sched)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproximateOpts(sys, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeApproximateSPNP is the headline large-system benchmark of
// the tracked perf trajectory: 50 jobs x 8 hops, SPNP everywhere.
func BenchmarkLargeApproximateSPNP(b *testing.B) { benchAnalyze(b, model.SPNP, 1) }

// BenchmarkLargeApproximateFCFS exercises the k-way workload summation on
// FCFS processors (50 staircases per processor).
func BenchmarkLargeApproximateFCFS(b *testing.B) { benchAnalyze(b, model.FCFS, 1) }

// BenchmarkLargeApproximateSPP runs the Theorem 4 pipeline with
// preemptive processors (blocking-free service bounds).
func BenchmarkLargeApproximateSPP(b *testing.B) { benchAnalyze(b, model.SPP, 1) }

// Worker variants: the same pipelines under the level-parallel engine.
// On a single-core host they chiefly measure pool overhead; on multicore
// they expose the level-width speedup.
func BenchmarkLargeApproximateSPNP4Workers(b *testing.B) { benchAnalyze(b, model.SPNP, 4) }
func BenchmarkLargeApproximateSPNP8Workers(b *testing.B) { benchAnalyze(b, model.SPNP, 8) }
func BenchmarkLargeApproximateFCFS4Workers(b *testing.B) { benchAnalyze(b, model.FCFS, 4) }
func BenchmarkLargeApproximateFCFS8Workers(b *testing.B) { benchAnalyze(b, model.FCFS, 8) }

// BenchmarkLargeExactSPP runs the exact trace analysis on the all-SPP
// system, serial vs pooled.
func benchExact(b *testing.B, workers int) {
	sys := largeSystem(benchJobs, benchHops, benchInstances, model.SPP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactOpts(sys, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLargeExactSPP(b *testing.B)         { benchExact(b, 1) }
func BenchmarkLargeExactSPP4Workers(b *testing.B) { benchExact(b, 4) }

// BenchmarkLargeIterative runs the fixed-point engine on the same acyclic
// system: every component is a single subjob, so it is the Approximate
// sweep plus the step accounting.
func BenchmarkLargeIterative(b *testing.B) {
	sys := largeSystem(benchJobs, benchHops, benchInstances, model.SPNP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Iterative(sys, 0); err != nil {
			b.Fatal(err)
		}
	}
}
