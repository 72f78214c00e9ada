package spnp_test

import (
	"math/rand"
	"sort"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/spnp"
)

func randTrace(r *rand.Rand, n, span int) []model.Ticks {
	out := make([]model.Ticks, n)
	for i := range out {
		out[i] = model.Ticks(r.Intn(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chainBounds builds the service bounds of a priority-ordered set of
// subjobs (index 0 highest) from exact arrival traces, feeding each
// level's bounds as interference to the next - the way the analysis
// pipeline composes the package.
func chainBounds(arr [][]model.Ticks, exec []model.Ticks, blocking model.Ticks) (los, his []*curve.Curve) {
	var interf []spnp.Interference
	for s := range arr {
		demand := curve.Staircase(arr[s], curve.Value(exec[s]))
		lo, hi := spnp.BoundsIn(nil, blocking, interf, demand, demand)
		los = append(los, lo)
		his = append(his, hi)
		interf = append(interf, spnp.Interference{Lo: lo, Hi: hi})
	}
	return los, his
}

// TestBoundsOrderedAndValid: lower never exceeds upper pointwise, both
// satisfy the curve invariants, and both are monotone in time - across
// random priority chains with and without blocking.
func TestBoundsOrderedAndValid(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 300; trial++ {
		subs := 1 + r.Intn(4)
		arr := make([][]model.Ticks, subs)
		exec := make([]model.Ticks, subs)
		for s := range arr {
			arr[s] = randTrace(r, 1+r.Intn(6), 60)
			exec[s] = model.Ticks(1 + r.Intn(4))
		}
		blocking := model.Ticks(r.Intn(5))
		los, his := chainBounds(arr, exec, blocking)
		for s := range los {
			if err := los[s].Validate(); err != nil {
				t.Fatalf("trial %d: invalid lower bound: %v", trial, err)
			}
			if err := his[s].Validate(); err != nil {
				t.Fatalf("trial %d: invalid upper bound: %v", trial, err)
			}
			for x := model.Ticks(0); x < 200; x++ {
				if los[s].Eval(x) > his[s].Eval(x) {
					t.Fatalf("trial %d sub %d: lo(%d)=%d > hi(%d)=%d",
						trial, s, x, los[s].Eval(x), x, his[s].Eval(x))
				}
			}
		}
	}
}

// TestZeroInterferenceIdentity: with no higher-priority subjobs and no
// blocking, the processor is exclusively ours; the lower bound's
// completion times equal the exact single-queue recurrence
// c[i] = max(a[i], c[i-1]) + tau.
func TestZeroInterferenceIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 200; trial++ {
		arr := randTrace(r, 1+r.Intn(8), 50)
		exec := model.Ticks(1 + r.Intn(5))
		demand := curve.Staircase(arr, curve.Value(exec))
		lo, _ := spnp.BoundsIn(nil, 0, nil, demand, demand)
		late := lo.CompletionTimes(curve.Value(exec), len(arr))
		c := model.Ticks(0)
		for i, a := range arr {
			if a > c {
				c = a
			}
			c += exec
			if late[i] != c {
				t.Fatalf("trial %d inst %d: completion %d, recurrence %d (arr %v exec %d)",
					trial, i, late[i], c, arr, exec)
			}
		}
	}
}

// TestBlockingShift: Equation (15)'s blocking term never helps - the
// lower service bound with blocking sits pointwise at or below the
// blocking-free one - and leaves Theorem 6's upper bound untouched (a
// non-preemptive lower-priority job cannot speed us up). Without
// interference the delay is moreover at most b itself,
// lo_0(t-b) <= lo_b(t); with interference it can legitimately exceed b
// (the longer busy window accrues extra higher-priority work), so the
// two-sided check applies only to the interference-free case.
func TestBlockingShift(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 200; trial++ {
		subs := 1 + r.Intn(3)
		arr := make([][]model.Ticks, subs)
		exec := make([]model.Ticks, subs)
		for s := range arr {
			arr[s] = randTrace(r, 1+r.Intn(5), 50)
			exec[s] = model.Ticks(1 + r.Intn(4))
		}
		b := model.Ticks(1 + r.Intn(6))
		losFree, hisFree := chainBounds(arr, exec, 0)
		losBlk, hisBlk := chainBounds(arr, exec, b)
		s := subs - 1 // lowest priority feels the full chain
		for x := model.Ticks(0); x < 200; x++ {
			if losBlk[s].Eval(x) > losFree[s].Eval(x) {
				t.Fatalf("trial %d: blocking raised the lower bound at t=%d", trial, x)
			}
			if subs == 1 && x >= b && losBlk[s].Eval(x) < losFree[s].Eval(x-b) {
				t.Fatalf("trial %d: blocking %d delayed the interference-free lower bound by more than b at t=%d: %d < %d",
					trial, b, x, losBlk[s].Eval(x), losFree[s].Eval(x-b))
			}
		}
		if !hisBlk[0].Equal(hisFree[0]) {
			t.Fatalf("trial %d: blocking changed the top-priority upper bound", trial)
		}
	}
}

// TestInterferenceMonotone: adding a higher-priority subjob can only
// take service away - both bounds never rise anywhere.
func TestInterferenceMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 200; trial++ {
		own := randTrace(r, 1+r.Intn(5), 50)
		hiArr := randTrace(r, 1+r.Intn(5), 50)
		exec := model.Ticks(1 + r.Intn(4))
		hiExec := model.Ticks(1 + r.Intn(4))
		demand := curve.Staircase(own, curve.Value(exec))
		hiDemand := curve.Staircase(hiArr, curve.Value(hiExec))
		hlo, hhi := spnp.BoundsIn(nil, 0, nil, hiDemand, hiDemand)
		loAlone, hiAlone := spnp.BoundsIn(nil, 0, nil, demand, demand)
		loWith, hiWith := spnp.BoundsIn(nil, 0, []spnp.Interference{{Lo: hlo, Hi: hhi}}, demand, demand)
		for x := model.Ticks(0); x < 200; x++ {
			if loWith.Eval(x) > loAlone.Eval(x) {
				t.Fatalf("trial %d: interference raised the lower bound at t=%d", trial, x)
			}
			if hiWith.Eval(x) > hiAlone.Eval(x) {
				t.Fatalf("trial %d: interference raised the upper bound at t=%d", trial, x)
			}
		}
	}
}
