package metrics

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
)

func TestSummarizeHandComputed(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 5, Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}},
				Releases: []model.Ticks{0, 10, 20, 30}},
			{Deadline: 6, Subjobs: []model.Subjob{{Proc: 0, Exec: 4, Priority: 1}},
				Releases: []model.Ticks{0, 10}},
		},
	}
	res := sim.Run(sys)
	rep := Summarize(sys, res)

	hi := rep.Jobs[0]
	if hi.Count != 4 || hi.Min != 2 || hi.Max != 2 || hi.Mean != 2 || hi.Misses != 0 {
		t.Fatalf("high metrics = %+v", hi)
	}
	lo := rep.Jobs[1]
	// Low responses: starts after high (2..6) -> 6, both instances.
	if lo.Count != 2 || lo.Min != 6 || lo.Max != 6 {
		t.Fatalf("low metrics = %+v", lo)
	}
	if lo.Misses != 0 {
		t.Fatalf("low misses = %d, want 0 (deadline 6)", lo.Misses)
	}
	cpu := rep.Procs[0]
	if cpu.Busy != 4*2+2*4 {
		t.Fatalf("busy = %d, want 16", cpu.Busy)
	}
	if cpu.Preemptions != 0 {
		t.Fatalf("preemptions = %d, want 0 (no overlap in this schedule)", cpu.Preemptions)
	}
}

func TestMissCounting(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 3, Subjobs: []model.Subjob{{Proc: 0, Exec: 4, Priority: 0}},
				Releases: []model.Ticks{0, 10}},
		},
	}
	rep := Summarize(sys, sim.Run(sys))
	if rep.Jobs[0].Misses != 2 {
		t.Fatalf("misses = %d, want 2 (response 4 > deadline 3)", rep.Jobs[0].Misses)
	}
	if r := rep.Jobs[0].MissRatio(); r != 1 {
		t.Fatalf("miss ratio = %v, want 1", r)
	}
}

// TestInvariants: on random systems the metrics must satisfy structural
// relations: min <= p50 <= p90 <= p99 <= max, busy = total work,
// utilization <= 1.
func TestInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sys := randsys.New(r, cfg)
		rep := Summarize(sys, sim.Run(sys))
		for k, m := range rep.Jobs {
			if !(m.Min <= m.P50 && m.P50 <= m.P90 && m.P90 <= m.P99 && m.P99 <= m.Max) {
				t.Fatalf("trial %d job %d: quantiles out of order: %+v", trial, k, m)
			}
			if float64(m.Min) > m.Mean || m.Mean > float64(m.Max) {
				t.Fatalf("trial %d job %d: mean outside range: %+v", trial, k, m)
			}
		}
		for p, pm := range rep.Procs {
			if pm.Busy != sys.TotalWork(p) {
				t.Fatalf("trial %d: P%d busy %d != total work %d", trial, p+1, pm.Busy, sys.TotalWork(p))
			}
			if pm.Span > 0 && pm.Utilization() > 1.0000001 {
				t.Fatalf("trial %d: P%d utilization %v > 1", trial, p+1, pm.Utilization())
			}
			if pm.Preemptions < 0 {
				t.Fatalf("trial %d: negative preemptions", trial)
			}
		}
	}
}

func TestRender(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Name: "CPU", Sched: model.SPP}},
		Jobs: []model.Job{
			{Name: "a", Deadline: 10, Subjobs: []model.Subjob{{Proc: 0, Exec: 1}},
				Releases: []model.Ticks{0}},
		},
	}
	var buf bytes.Buffer
	Render(&buf, sys, Summarize(sys, sim.Run(sys)))
	out := buf.String()
	if !strings.Contains(out, "CPU") || !strings.Contains(out, "p99") || !strings.Contains(out, "a") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

// TestQuantileNearestRank pins the nearest-rank convention — rank
// ceil(q*n), 1-indexed — on hand-checked samples. The n=7/q=0.9 and
// n=10/q=0.99 rows fail under the old int(q*n+0.5)-1 rounding, which sat
// between nearest-rank and rounding-half-up without being either.
func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []model.Ticks {
		xs := make([]model.Ticks, n)
		for i := range xs {
			xs[i] = model.Ticks(i + 1) // sorted 1..n
		}
		return xs
	}
	cases := []struct {
		name   string
		sorted []model.Ticks
		q      float64
		want   model.Ticks
	}{
		{"empty", nil, 0.5, 0},
		{"single", seq(1), 0.99, 1},
		{"p50-even", seq(10), 0.50, 5},    // ceil(5.0) = 5
		{"p50-odd", seq(5), 0.50, 3},      // ceil(2.5) = 3
		{"p50-two", seq(2), 0.50, 1},      // ceil(1.0) = 1
		{"p90-n7", seq(7), 0.90, 7},       // ceil(6.3) = 7; old code gave 6
		{"p90-n10", seq(10), 0.90, 9},     // ceil(9.0) = 9
		{"p95-n20", seq(20), 0.95, 19},    // ceil(19.0) = 19 despite 0.95*20 > 19 in float64
		{"p99-n10", seq(10), 0.99, 10},    // ceil(9.9) = 10
		{"p99-n100", seq(100), 0.99, 99},  // ceil(99.0) = 99 despite float rounding of 0.99*100
		{"p99-n101", seq(101), 0.99, 100}, // ceil(99.99) = 100
		{"p25-n8", seq(8), 0.25, 2},       // ceil(2.0) = 2
		{"p10-n7", seq(7), 0.10, 1},       // ceil(0.7) = 1
		{"q0", seq(9), 0, 1},              // clamped to the minimum
		{"q1", seq(9), 1, 9},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Quantile(n=%d, q=%v) = %d, want %d", c.name, len(c.sorted), c.q, got, c.want)
		}
	}
}
