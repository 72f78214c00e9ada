package analysis

import (
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
)

// largeSystem is benchsys.Large, the 50x8 job shop shared with the
// admission and serve benchmarks and with bench/'s serve-large workload.
func largeSystem(jobs, hops, instances int, sched model.Scheduler) *model.System {
	return benchsys.Large(jobs, hops, instances, sched)
}

const (
	benchJobs      = benchsys.Jobs
	benchHops      = benchsys.Hops
	benchInstances = benchsys.Instances
)

// largeForkJoin is largeSystem with every chain folded into a
// deterministic fork-join DAG: hops pair up into parallel diamond rungs
// (hop 0 forks to hops 1 and 2, which join into hop 3, which forks again,
// ...), with a trailing chain hop when the count doesn't divide. Same
// processors, execution times, priorities, and release traces as
// largeSystem, so the pair isolates the cost of DAG bookkeeping against
// the chain baseline.
func largeForkJoin(jobs, hops, instances int, sched model.Scheduler) *model.System {
	sys := largeSystem(jobs, hops, instances, sched)
	for k := range sys.Jobs {
		job := &sys.Jobs[k]
		prec := make([][]int, len(job.Subjobs))
		j := 1
		for j+1 < len(job.Subjobs) {
			prec[j] = []int{j - 1}
			prec[j+1] = []int{j - 1}
			if j+2 < len(job.Subjobs) {
				prec[j+2] = []int{j, j + 1}
			}
			j += 3
		}
		for ; j < len(job.Subjobs); j++ {
			prec[j] = []int{j - 1}
		}
		job.Precedence = prec
	}
	return sys
}

// Each tracked workload is an op constructor: it builds the system once
// and returns one analysis of it. The Benchmark functions time the op and
// TestLargeAllocsPinned counts its allocations, so both measure the same
// workload.

func approxOp(tb testing.TB, sys *model.System, workers int) func() {
	return func() {
		if _, err := ApproximateOpts(sys, Options{Workers: workers}); err != nil {
			tb.Fatal(err)
		}
	}
}

func exactOp(tb testing.TB, workers int) func() {
	sys := largeSystem(benchJobs, benchHops, benchInstances, model.SPP)
	return func() {
		if _, err := ExactOpts(sys, Options{Workers: workers}); err != nil {
			tb.Fatal(err)
		}
	}
}

func iterativeOp(tb testing.TB) func() {
	sys := largeSystem(benchJobs, benchHops, benchInstances, model.SPNP)
	return func() {
		if _, err := Iterative(sys, 0); err != nil {
			tb.Fatal(err)
		}
	}
}

func largeOp(tb testing.TB, sched model.Scheduler, workers int) func() {
	return approxOp(tb, largeSystem(benchJobs, benchHops, benchInstances, sched), workers)
}

// forkJoinOp is the fork-join twin of largeOp(SPNP, 1): the delta
// against BenchmarkLargeApproximateSPNP prices the DAG bookkeeping itself.
func forkJoinOp(tb testing.TB) func() {
	return approxOp(tb, largeForkJoin(benchJobs, benchHops, benchInstances, model.SPNP), 1)
}

func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkLargeApproximateSPNP is the headline large-system benchmark of
// the tracked perf trajectory: 50 jobs x 8 hops, SPNP everywhere.
func BenchmarkLargeApproximateSPNP(b *testing.B) { runOp(b, largeOp(b, model.SPNP, 1)) }

// BenchmarkLargeApproximateFCFS exercises the k-way workload summation on
// FCFS processors (50 staircases per processor).
func BenchmarkLargeApproximateFCFS(b *testing.B) { runOp(b, largeOp(b, model.FCFS, 1)) }

// BenchmarkLargeApproximateSPP runs the Theorem 4 pipeline with
// preemptive processors (blocking-free service bounds).
func BenchmarkLargeApproximateSPP(b *testing.B) { runOp(b, largeOp(b, model.SPP, 1)) }

// Worker variants: the same pipelines under the level-parallel engine.
// On a single-core host they chiefly measure pool overhead; on multicore
// they expose the level-width speedup.
func BenchmarkLargeApproximateSPNP4Workers(b *testing.B) { runOp(b, largeOp(b, model.SPNP, 4)) }
func BenchmarkLargeApproximateSPNP8Workers(b *testing.B) { runOp(b, largeOp(b, model.SPNP, 8)) }
func BenchmarkLargeApproximateFCFS4Workers(b *testing.B) { runOp(b, largeOp(b, model.FCFS, 4)) }
func BenchmarkLargeApproximateFCFS8Workers(b *testing.B) { runOp(b, largeOp(b, model.FCFS, 8)) }

// BenchmarkForkJoinApproximate runs the Theorem 4 pipeline on the
// fork-join twin of the SPNP job shop.
func BenchmarkForkJoinApproximate(b *testing.B) { runOp(b, forkJoinOp(b)) }

// BenchmarkLargeExactSPP runs the exact trace analysis on the all-SPP
// system, serial vs pooled.
func BenchmarkLargeExactSPP(b *testing.B)         { runOp(b, exactOp(b, 1)) }
func BenchmarkLargeExactSPP4Workers(b *testing.B) { runOp(b, exactOp(b, 4)) }

// BenchmarkLargeIterative runs the fixed-point engine on the same acyclic
// system: every component is a single subjob, so it is the Approximate
// sweep plus the step accounting.
func BenchmarkLargeIterative(b *testing.B) { runOp(b, iterativeOp(b)) }

// TestLargeAllocsPinned pins the allocations per op of every large-system
// benchmark above. Allocation counts do not depend on the host, so unlike
// ns/op they can be gated tightly: each row fails above its recorded count
// plus 5% (go1.24, GOMAXPROCS 1 as testing.AllocsPerRun sets it). The
// counts repeat to within 0.1%, and one extra allocation per subjob is
// +8.5% on LargeExactSPP. AllocsPerRun's warm-up call absorbs the
// system's one-time topology build, so a pin is the steady-state count;
// a benchmark run at small b.N reports more.
func TestLargeAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds heap allocations")
	}
	for _, r := range []struct {
		name   string
		op     func()
		allocs float64
	}{
		{"LargeApproximateSPNP", largeOp(t, model.SPNP, 1), 9451},
		{"LargeApproximateSPNP4Workers", largeOp(t, model.SPNP, 4), 9460},
		{"LargeApproximateSPNP8Workers", largeOp(t, model.SPNP, 8), 9464},
		{"LargeApproximateFCFS", largeOp(t, model.FCFS, 1), 9091},
		{"LargeApproximateFCFS4Workers", largeOp(t, model.FCFS, 4), 9103},
		{"LargeApproximateFCFS8Workers", largeOp(t, model.FCFS, 8), 9104},
		{"LargeApproximateSPP", largeOp(t, model.SPP, 1), 8925},
		{"ForkJoinApproximate", forkJoinOp(t), 10063},
		{"LargeExactSPP", exactOp(t, 1), 4690},
		{"LargeExactSPP4Workers", exactOp(t, 4), 4705},
		{"LargeIterative", iterativeOp(t), 9435},
	} {
		got := testing.AllocsPerRun(3, r.op)
		t.Logf("%-30s %6.0f allocs/op (pinned %.0f)", r.name, got, r.allocs)
		if got > r.allocs*1.05 {
			t.Errorf("%s: %.0f allocs/op, more than 5%% over the pinned %.0f", r.name, got, r.allocs)
		}
	}
}
