// Package fcfs computes the per-subjob service bounds of Section 4.2.3 for
// first-come-first-served processors: the utilization function of
// Theorem 7 and the service bounds of Theorems 8 and 9.
//
// Inside the approximate (Theorem 4) pipeline the arrival functions of the
// subjobs sharing the processor are only known as bounds, so each
// ingredient is instantiated with the sound polarity:
//
//   - the *lower* service bound composes the subjob's latest-arrival
//     workload with the utilization of the latest-arrival total workload
//     against the earliest-arrival total workload threshold (all three
//     choices make the bound smaller, i.e. completions later);
//   - the *upper* service bound composes the earliest-arrival workload
//     with the utilization of the earliest-arrival total against the
//     latest-arrival total threshold, plus Theorem 9's +tau, capped by the
//     arrived work.
//
// With exact arrivals (e.g. on the first hop) both collapse to the paper's
// formulas, up to the simultaneous-arrival tie-breaking correction
// documented at curve.ComposeFCFSIn.
package fcfs

import (
	"rta/internal/curve"
	"rta/internal/model"
)

// BoundsFromTotals computes the (lower, upper) service bounds for one
// subjob on a FCFS processor.
//
// demandLo/demandHi are the subjob's workload staircases from latest and
// earliest arrivals; totalLo/totalHi the processor-wide sums of the same
// (Equation 21, including the subjob itself); exec the subjob's execution
// time tau. utilLo/utilHi are the utilization functions (Theorem 7) of
// totalLo and totalHi: they depend only on the processor-wide workload, so
// the engines compute each once per processor (sched.Memo) instead of once
// per subjob. Intermediates are carved from sc (nil = heap); the returned
// bounds are always heap-backed.
func BoundsFromTotals(sc *curve.Scratch, exec model.Ticks, demandLo, demandHi, totalLo, totalHi, utilLo, utilHi *curve.Curve) (lo, hi *curve.Curve) {
	lo = curve.ComposeFCFSIn(sc, demandLo, totalHi, utilLo, false) // Theorem 8
	hi = curve.ComposeFCFSIn(sc, demandHi, totalLo, utilHi, true). // Theorem 9
									AddConstIn(sc, exec).
									Min(demandHi)
	if sc != nil {
		lo = lo.Clone() // the composition is arena-backed; the bound is stored
	}
	return lo, hi
}
