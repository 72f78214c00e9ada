package curve

// Microbenchmarks for the curve-arithmetic hot paths: two-curve addition,
// k-way summation, pseudo-inversion and completion-time extraction on
// large staircases. Run with
//
//	go test -bench . -benchmem ./internal/curve/
//
// and compare against a baseline with benchstat or by eyeballing ns/op.

import (
	"math/rand"
	"testing"
)

// benchStaircase builds a dense bursty staircase with n jumps.
func benchStaircase(n int, seed int64) *Curve {
	r := rand.New(rand.NewSource(seed))
	times := make([]Time, n)
	t := Time(0)
	for i := range times {
		if r.Intn(4) > 0 { // 25% coincident releases (bursts)
			t += Time(1 + r.Intn(9))
		}
		times[i] = t
	}
	return Staircase(times, Value(1+seed%3))
}

func BenchmarkAddLarge(b *testing.B) {
	f := benchStaircase(2000, 1)
	g := benchStaircase(2000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(g)
	}
}

func BenchmarkSum16Way(b *testing.B) {
	curves := make([]*Curve, 16)
	for i := range curves {
		curves[i] = benchStaircase(500, int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(curves...)
	}
}

// BenchmarkSum16WayRepeatedAdd is the pre-optimization shape of the same
// computation (15 pairwise merges over ever-larger intermediates), kept
// for comparison against BenchmarkSum16Way.
func BenchmarkSum16WayRepeatedAdd(b *testing.B) {
	curves := make([]*Curve, 16)
	for i := range curves {
		curves[i] = benchStaircase(500, int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := curves[0]
		for _, c := range curves[1:] {
			acc = acc.Add(c)
		}
	}
}

func BenchmarkInverseLarge(b *testing.B) {
	f := benchStaircase(4000, 3)
	top := f.f.pts[len(f.f.pts)-1].Y
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := Value(0); y <= top; y += top / 64 {
			f.Inverse(y)
		}
	}
}

func BenchmarkCompletionTimesLarge(b *testing.B) {
	f := benchStaircase(4000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CompletionTimes(2, 2000)
	}
}

// The kernels below evaluate one curve at every breakpoint of another; they
// run against a warm Scratch so ns/op measures the walk, not the allocator.
// Results go to package-level sinks so the calls cannot be optimized away.
var (
	sinkPL    pl
	sinkCurve *Curve
	sinkValue Value
)

func BenchmarkMinLowerLarge(b *testing.B) {
	f := benchStaircase(4000, 1).f
	g := benchStaircase(4000, 2).f
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPL = f.minLowerIn(sc, g)
		sc.Reset()
	}
}

func BenchmarkComposeMonotoneLarge(b *testing.B) {
	f := benchStaircase(2000, 3).f
	g := Utilization(benchStaircase(4000, 4)).f
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPL = composeMonotone(sc, f, g)
		sc.Reset()
	}
}

func BenchmarkLowerServiceNPLarge(b *testing.B) {
	hp := Utilization(benchStaircase(2000, 5))
	ni := NewNPInterference(SubResidual(nil, hp), SubResidual(nil, hp))
	demand := benchStaircase(4000, 6)
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCurve = ni.LowerServiceNP(sc, 2, demand)
		sc.Reset()
	}
}

func BenchmarkComposeFCFSLarge(b *testing.B) {
	demand := benchStaircase(2000, 7)
	total := Sum(demand, benchStaircase(2000, 8))
	util := Utilization(total)
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCurve = ComposeFCFSIn(sc, demand, total, util, false)
		sinkCurve = ComposeFCFSIn(sc, demand, total, util, true)
		sc.Reset()
	}
}

// benchBacklog returns 4,000 release times and the completion times of a
// processor serving them at two ticks per instance.
func benchBacklog() (arr, dep []Time) {
	arr = benchStaircase(4000, 9).JumpTimes(1)
	dep = Utilization(Staircase(arr, 2)).CompletionTimes(2, len(arr))
	return arr, dep
}

func BenchmarkBacklogLarge(b *testing.B) {
	arr, dep := benchBacklog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValue = MaxBacklog(arr, dep)
	}
}
