// Package spnp computes the per-subjob service bounds of Section 4.2.2 for
// static-priority processors inside the approximate (Theorem 4) pipeline:
// non-preemptive (SPNP) processors with the blocking term of Equation (15),
// and preemptive (SPP) processors as the blocking-free special case.
//
// The bounds pair the sound variants of Theorems 5 and 6 (see the curve
// package for the derivation and the deviations from the printed formulas)
// with the arrival-bound bookkeeping of Lemmas 1 and 2:
//
//   - the lower service bound is computed from the subjob's *latest*
//     possible arrivals (its lower arrival function) and yields latest
//     completion times (Lemma 1's departure lower bound);
//   - the upper service bound is computed from the *earliest* possible
//     arrivals (the upper arrival function) and yields earliest completion
//     times (Lemma 2's arrival upper bound for the next hop).
//
// Interference is accounted with the matching polarity: the availability
// subtracted at the end of the busy window uses the higher-priority upper
// bounds, the window candidates use their lower bounds.
package spnp

import (
	"rta/internal/curve"
	"rta/internal/model"
)

// Interference carries the service bounds of one higher-priority subjob on
// the same processor.
type Interference struct {
	Lo, Hi *curve.Curve
}

// BoundsIn computes the (lower, upper) service bounds for one subjob.
//
// blocking is b_{k,j} of Equation (15) (zero on preemptive processors);
// interf are the bounds of all strictly higher-priority subjobs on the
// processor; demandLo/demandHi are the workload staircases built from the
// subjob's latest respectively earliest possible arrival times. The
// transform intermediates are carved from sc (nil = heap); the returned
// bounds are always heap-backed.
func BoundsIn(sc *curve.Scratch, blocking model.Ticks, interf []Interference, demandLo, demandHi *curve.Curve) (lo, hi *curve.Curve) {
	interfLo := make([]*curve.Curve, len(interf))
	interfHi := make([]*curve.Curve, len(interf))
	for i, x := range interf {
		interfLo[i] = x.Lo
		interfHi[i] = x.Hi
	}
	lo = curve.LowerServiceNPIn(sc, blocking, interfHi, interfLo, demandLo)
	hi = curve.UpperServiceNPIn(sc, interfLo, interfHi, demandHi)
	return lo, hi
}

// BoundsFromInterference is BoundsIn taking a precomputed interference
// bundle instead of the per-subjob list: the engines memoize one bundle
// per priority-prefix (sched.Memo), so the k-way interference merges and
// running maxima of Theorems 5 and 6 are derived once and shared by every
// subjob of the prefix. Exact integer sums and unique canonical curve
// representations make the results bit-identical to BoundsIn over the
// individual curves. The returned bounds are heap-backed.
func BoundsFromInterference(sc *curve.Scratch, blocking model.Ticks, ni *curve.NPInterference, demandLo, demandHi *curve.Curve) (lo, hi *curve.Curve) {
	lo = ni.LowerServiceNP(sc, blocking, demandLo)
	hi = ni.UpperServiceNP(sc, demandHi)
	return lo, hi
}
