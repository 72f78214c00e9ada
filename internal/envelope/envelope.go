// Package envelope connects the paper's trace-based analysis to
// envelope-based workload specifications, the form in which "bursty job
// arrivals" are usually contracted (leaky buckets, periodic-with-jitter,
// minimum-distance functions a la Cruz).
//
// An Envelope bounds how many instances may be released in any window:
// at most Count(delta) instances in any half-open window of length delta.
// Two directions are supported:
//
//   - FromTrace extracts the tightest minimum-distance envelope a
//     concrete trace satisfies, so measured traces can be abstracted and
//     compared against contracts;
//   - MaximalTrace generates the greedy earliest trace consistent with an
//     envelope: every instance arrives as early as the envelope permits,
//     starting with a maximal burst at time zero. Feeding the maximal
//     traces of all jobs (synchronously) into the trace-based analyses
//     yields the classical critical-instant admission test for
//     envelope-specified workloads.
//
// For preemptive static priorities the synchronous maximal trace is the
// textbook worst case; for non-preemptive and FCFS scheduling worst-case
// release patterns are not characterized in general (scheduling
// anomalies), so envelope-based admission on those schedulers uses the
// Theorem 4 bounds of the maximal trace and should be read as the
// standard critical-instant heuristic. The package tests probe both
// claims empirically against randomized envelope-consistent traces.
package envelope

import (
	"fmt"
	"sort"

	"rta/internal/model"
)

// Envelope is a minimum-distance arrival constraint: MinGap[i] is the
// minimum time between an instance and the (i+2)-nd one after it, i.e.
// any i+2 consecutive instances span at least MinGap[i] ticks.
// Equivalently, any window of length MinGap[i] - 1 holds at most i+1
// instances. MinGap must be non-decreasing (it is superadditive after
// Normalize). An empty MinGap means "no constraint beyond one instance at
// a time is known" and is invalid for trace generation.
//
// The common contracts embed naturally:
//
//   - a periodic stream with period T: MinGap[i] = (i+1)*T;
//   - period T with jitter J: MinGap[i] = max(0, (i+1)*T - J);
//   - a leaky bucket with burst B, one instance per T on average:
//     MinGap[i] = 0 for i+2 <= B, then (i+2-B)*T.
type Envelope struct {
	MinGap []model.Ticks
}

// Periodic returns the envelope of a strictly periodic stream.
func Periodic(period model.Ticks, n int) Envelope {
	e := Envelope{MinGap: make([]model.Ticks, n)}
	for i := range e.MinGap {
		e.MinGap[i] = model.Ticks(i+1) * period
	}
	return e
}

// PeriodicJitter returns the envelope of a periodic stream whose releases
// may be displaced by up to jitter.
func PeriodicJitter(period, jitter model.Ticks, n int) Envelope {
	e := Envelope{MinGap: make([]model.Ticks, n)}
	for i := range e.MinGap {
		g := model.Ticks(i+1)*period - jitter
		if g < 0 {
			g = 0
		}
		e.MinGap[i] = g
	}
	return e
}

// LeakyBucket returns the envelope of a stream that may burst `burst`
// instances back to back but averages one instance per `period`.
func LeakyBucket(burst int, period model.Ticks, n int) Envelope {
	if burst < 1 {
		burst = 1
	}
	e := Envelope{MinGap: make([]model.Ticks, n)}
	for i := range e.MinGap {
		if i+2 <= burst {
			e.MinGap[i] = 0
		} else {
			e.MinGap[i] = model.Ticks(i+2-burst) * period
		}
	}
	return e
}

// Validate checks the structural requirements.
func (e Envelope) Validate() error {
	if len(e.MinGap) == 0 {
		return fmt.Errorf("envelope: empty minimum-distance vector")
	}
	for i, g := range e.MinGap {
		if g < 0 {
			return fmt.Errorf("envelope: negative gap at %d", i)
		}
		if i > 0 && g < e.MinGap[i-1] {
			return fmt.Errorf("envelope: gaps must be non-decreasing (index %d)", i)
		}
	}
	return nil
}

// Admits reports whether the trace satisfies the envelope.
func (e Envelope) Admits(trace []model.Ticks) bool {
	for i := range trace {
		for k := range e.MinGap {
			j := i + k + 1
			if j >= len(trace) {
				break
			}
			if trace[j]-trace[i] < e.MinGap[k] {
				return false
			}
		}
	}
	return true
}

// FromTrace extracts the tightest minimum-distance envelope the trace
// satisfies, up to groups of maxGroup+1 instances.
func FromTrace(trace []model.Ticks, maxGroup int) Envelope {
	if !sort.SliceIsSorted(trace, func(a, b int) bool { return trace[a] < trace[b] }) {
		panic("envelope: trace not sorted")
	}
	if maxGroup > len(trace)-1 {
		maxGroup = len(trace) - 1
	}
	if maxGroup < 1 {
		maxGroup = 1
	}
	e := Envelope{MinGap: make([]model.Ticks, maxGroup)}
	for k := 0; k < maxGroup; k++ {
		var minGap model.Ticks = -1
		for i := 0; i+k+1 < len(trace); i++ {
			if g := trace[i+k+1] - trace[i]; minGap < 0 || g < minGap {
				minGap = g
			}
		}
		if minGap < 0 {
			// Too few instances to constrain this group size; inherit.
			if k > 0 {
				minGap = e.MinGap[k-1]
			} else {
				minGap = 0
			}
		}
		e.MinGap[k] = minGap
	}
	// Enforce monotonicity (a longer group can never span less).
	for k := 1; k < maxGroup; k++ {
		if e.MinGap[k] < e.MinGap[k-1] {
			e.MinGap[k] = e.MinGap[k-1]
		}
	}
	return e
}

// extended returns the minimum-distance vector padded to n-1 entries by
// the standard superadditive extension: a group larger than the specified
// horizon spans at least a full specified group plus the extension of the
// remainder, g[k] = g[len-1] + g[k-len].
func (e Envelope) extended(n int) []model.Ticks {
	g := make([]model.Ticks, n-1)
	copy(g, e.MinGap)
	l := len(e.MinGap)
	for k := l; k < len(g); k++ {
		g[k] = g[l-1] + g[k-l]
	}
	return g
}

// MaximalTrace returns the greedy earliest trace of n instances
// consistent with the envelope, starting at time 0: instance j arrives at
//
//	t_j = max_{0 <= k < j} ( t_{j-k-1} + gap[k] )
//
// i.e. as early as every group constraint allows, with a maximal burst at
// time zero. Groups beyond the envelope's horizon use its superadditive
// extension. The result is the per-job critical-instant release pattern
// for envelope-based admission.
func (e Envelope) MaximalTrace(n int) []model.Ticks {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	if n <= 0 {
		return nil
	}
	g := e.extended(n)
	out := make([]model.Ticks, n)
	for j := 1; j < n; j++ {
		t := out[j-1]
		for k := 0; k < j; k++ {
			if c := out[j-k-1] + g[k]; c > t {
				t = c
			}
		}
		out[j] = t
	}
	return out
}

// Aggregate returns an envelope satisfied by the merge (superposition) of
// any traces satisfying the inputs: in a window holding n+2 aggregate
// instances, each source i contributes some k_i instances with
// sum k_i = n+2, so the window spans at least min over the splits of the
// per-source guarantees. The conservative closed form used here is the
// smallest per-source gap at each group size scaled by the worst split;
// exact aggregation is NP-hard in general, and this bound errs low (a
// valid envelope, possibly loose). Useful for admission of flow bundles.
func Aggregate(envs ...Envelope) Envelope {
	if len(envs) == 0 {
		return Envelope{}
	}
	// Result horizon: the smallest input horizon times the source count,
	// capped for practicality.
	minLen := len(envs[0].MinGap)
	for _, e := range envs {
		if len(e.MinGap) < minLen {
			minLen = len(e.MinGap)
		}
	}
	n := minLen * len(envs)
	out := Envelope{MinGap: make([]model.Ticks, n)}
	for g := range out.MinGap {
		// g+2 aggregate instances: the worst case spreads them across
		// sources as evenly as possible; a sound lower bound on the span
		// is the largest value v such that EVERY split forces some source
		// to hold ceil((g+2)/len) instances... we use the simple bound:
		// the source with the weakest guarantee carries them all is too
		// pessimistic the other way; instead take the best split bound:
		// span >= min_i MinGap_i[k-2] where k = ceil((g+2)/len(envs)),
		// since some source must receive at least k instances.
		k := (g + 2 + len(envs) - 1) / len(envs)
		if k < 2 {
			continue // no constraint forced on any single source
		}
		v := envs[0].gapFor(k)
		for _, e := range envs[1:] {
			if w := e.gapFor(k); w < v {
				v = w
			}
		}
		out.MinGap[g] = v
	}
	// Restore monotonicity.
	for i := 1; i < n; i++ {
		if out.MinGap[i] < out.MinGap[i-1] {
			out.MinGap[i] = out.MinGap[i-1]
		}
	}
	return out
}

// gapFor returns the declared (or extended) minimum span of k instances.
func (e Envelope) gapFor(k int) model.Ticks {
	if k <= 1 || len(e.MinGap) == 0 {
		return 0
	}
	i := k - 2
	l := len(e.MinGap)
	if i < l {
		return e.MinGap[i]
	}
	q := model.Ticks(i / l)
	return q*e.MinGap[l-1] + e.MinGap[i%l]
}
