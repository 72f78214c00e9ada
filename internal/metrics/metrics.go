// Package metrics summarizes simulator output beyond the worst case: full
// response-time distributions, quantiles, deadline-miss ratios and
// processor utilization. The paper's analysis is about hard guarantees
// (the maximum), but the same simulator runs double as soft-real-time
// evidence - how far the typical response sits below the bound - which is
// what the average-case cost of the paper's synchronization-free design
// shows up as.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"

	"rta/internal/model"
	"rta/internal/sim"
)

// JobMetrics summarizes the observed end-to-end responses of one job.
type JobMetrics struct {
	// Count is the number of completed instances.
	Count int
	// Min/Mean/Max of the observed responses.
	Min, Max model.Ticks
	Mean     float64
	// P50, P90, P99 are order quantiles of the observed responses
	// (nearest-rank).
	P50, P90, P99 model.Ticks
	// Misses is the number of instances whose response exceeded the
	// job's end-to-end deadline.
	Misses int
}

// MissRatio returns the fraction of instances that missed the deadline.
func (m JobMetrics) MissRatio() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Misses) / float64(m.Count)
}

// ProcMetrics summarizes one processor's schedule.
type ProcMetrics struct {
	// Busy is the total executed time.
	Busy model.Ticks
	// Span is the time from the first segment start to the last segment
	// end (0 when the processor never ran).
	Span model.Ticks
	// Segments is the number of execution segments (preemptions split
	// instances into several).
	Segments int
	// Preemptions is the number of segments beyond one per instance.
	Preemptions int
}

// Utilization returns busy time over the active span.
func (p ProcMetrics) Utilization() float64 {
	if p.Span == 0 {
		return 0
	}
	return float64(p.Busy) / float64(p.Span)
}

// Report holds the full summary of one simulation run.
type Report struct {
	Jobs  []JobMetrics
	Procs []ProcMetrics
}

// Summarize computes the report for a simulation of sys.
func Summarize(sys *model.System, res *sim.Result) *Report {
	rep := &Report{
		Jobs:  make([]JobMetrics, len(sys.Jobs)),
		Procs: make([]ProcMetrics, len(sys.Procs)),
	}
	for k := range sys.Jobs {
		responses := append([]model.Ticks(nil), res.Response[k]...)
		sort.Slice(responses, func(a, b int) bool { return responses[a] < responses[b] })
		m := &rep.Jobs[k]
		m.Count = len(responses)
		if m.Count == 0 {
			continue
		}
		m.Min = responses[0]
		m.Max = responses[m.Count-1]
		var sum float64
		for _, r := range responses {
			sum += float64(r)
			if r > sys.Jobs[k].Deadline {
				m.Misses++
			}
		}
		m.Mean = sum / float64(m.Count)
		m.P50 = quantile(responses, 0.50)
		m.P90 = quantile(responses, 0.90)
		m.P99 = quantile(responses, 0.99)
	}
	for p := range sys.Procs {
		pm := &rep.Procs[p]
		segs := res.Segments[p]
		pm.Segments = len(segs)
		if len(segs) == 0 {
			continue
		}
		first, last := segs[0].From, segs[0].To
		instances := map[[3]int]bool{}
		for _, s := range segs {
			pm.Busy += s.To - s.From
			if s.From < first {
				first = s.From
			}
			if s.To > last {
				last = s.To
			}
			instances[[3]int{s.Job, s.Hop, s.Idx}] = true
		}
		pm.Span = last - first
		pm.Preemptions = len(segs) - len(instances)
	}
	return rep
}

// quantileEps absorbs float rounding in q*n: products like 0.95*20 land a
// hair above the exact integer 19 in float64, which would push Ceil one
// rank too high.
const quantileEps = 1e-9

// Quantile returns the nearest-rank q-quantile of the sorted values: the
// element at rank ceil(q*n), 1-indexed, clamped to [1, n]. This is the
// standard nearest-rank definition (the smallest value with at least a
// fraction q of the sample at or below it); the whole toolkit shares this
// one implementation — the serve load-test harness and the simulator
// reports must not grow a second convention.
func Quantile(sorted []model.Ticks, q float64) model.Ticks {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - quantileEps))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantile is the package-internal alias Summarize uses.
func quantile(sorted []model.Ticks, q float64) model.Ticks {
	return Quantile(sorted, q)
}

// Render writes the report as aligned text tables.
func Render(w io.Writer, sys *model.System, rep *Report) {
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s %8s %8s %6s\n",
		"job", "count", "min", "mean", "p50", "p90", "p99", "max", "miss%")
	for k, m := range rep.Jobs {
		fmt.Fprintf(w, "%-12s %8d %8d %8.1f %8d %8d %8d %8d %6.2f\n",
			sys.JobName(k), m.Count, m.Min, m.Mean, m.P50, m.P90, m.P99, m.Max,
			100*m.MissRatio())
	}
	fmt.Fprintf(w, "\n%-12s %10s %10s %10s %12s %8s\n",
		"processor", "busy", "span", "segments", "preemptions", "util")
	for p, pm := range rep.Procs {
		fmt.Fprintf(w, "%-12s %10d %10d %10d %12d %8.3f\n",
			sys.ProcName(p), pm.Busy, pm.Span, pm.Segments, pm.Preemptions, pm.Utilization())
	}
}
