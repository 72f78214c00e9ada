package fcfs_test

import (
	"math/rand"
	"sort"
	"testing"

	"rta/internal/curve"
	"rta/internal/fcfs"
	"rta/internal/model"
)

// randTrace returns n strictly increasing arrival times in [0, span)
// (distinct across the whole processor so FCFS order is unambiguous and
// the bounds' tie-breaking cannot blur the simulation comparison).
func randTrace(r *rand.Rand, n int, used map[model.Ticks]bool, span int) []model.Ticks {
	out := make([]model.Ticks, 0, n)
	for len(out) < n {
		t := model.Ticks(r.Intn(span))
		if !used[t] {
			used[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simFCFS serves all instances of all subjobs in global arrival order and
// returns per-subjob completion times.
func simFCFS(arr [][]model.Ticks, exec []model.Ticks) [][]model.Ticks {
	type inst struct{ sub, idx int }
	var all []inst
	for s := range arr {
		for i := range arr[s] {
			all = append(all, inst{s, i})
		}
	}
	sort.Slice(all, func(a, b int) bool { return arr[all[a].sub][all[a].idx] < arr[all[b].sub][all[b].idx] })
	done := make([][]model.Ticks, len(arr))
	for s := range arr {
		done[s] = make([]model.Ticks, len(arr[s]))
	}
	clock := model.Ticks(0)
	for _, in := range all {
		if a := arr[in.sub][in.idx]; a > clock {
			clock = a
		}
		clock += exec[in.sub]
		done[in.sub][in.idx] = clock
	}
	return done
}

// bounds builds the Theorem 8/9 service bounds of subjob s from exact
// arrivals (demand lower and upper coincide).
func bounds(arr [][]model.Ticks, exec []model.Ticks, s int) (lo, hi *curve.Curve) {
	demand := curve.Staircase(arr[s], curve.Value(exec[s]))
	curves := make([]*curve.Curve, len(arr))
	for o := range arr {
		curves[o] = curve.Staircase(arr[o], curve.Value(exec[o]))
	}
	total := curve.Sum(curves...)
	util := curve.Utilization(total)
	return fcfs.BoundsFromTotals(nil, exec[s], demand, demand, total, total, util, util)
}

// TestBoundsBracketSimulation: on exact arrival traces the Theorem 8/9
// service bounds must bracket the true FCFS schedule - every completion
// no later than the lower bound's, no earlier than the upper bound's -
// with the bounds themselves ordered and structurally valid.
func TestBoundsBracketSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		subs := 1 + r.Intn(3)
		used := map[model.Ticks]bool{}
		arr := make([][]model.Ticks, subs)
		exec := make([]model.Ticks, subs)
		for s := range arr {
			arr[s] = randTrace(r, 1+r.Intn(6), used, 60)
			exec[s] = model.Ticks(1 + r.Intn(4))
		}
		done := simFCFS(arr, exec)
		for s := range arr {
			lo, hi := bounds(arr, exec, s)
			if err := lo.Validate(); err != nil {
				t.Fatalf("trial %d: invalid lower bound: %v", trial, err)
			}
			if err := hi.Validate(); err != nil {
				t.Fatalf("trial %d: invalid upper bound: %v", trial, err)
			}
			for x := model.Ticks(0); x < 200; x++ {
				if lo.Eval(x) > hi.Eval(x) {
					t.Fatalf("trial %d sub %d: lo(%d)=%d > hi(%d)=%d",
						trial, s, x, lo.Eval(x), x, hi.Eval(x))
				}
			}
			late := lo.CompletionTimes(curve.Value(exec[s]), len(arr[s]))
			early := hi.CompletionTimes(curve.Value(exec[s]), len(arr[s]))
			for i := range arr[s] {
				if curve.IsInf(late[i]) || late[i] < done[s][i] {
					t.Fatalf("trial %d sub %d inst %d: latest completion %d < simulated %d",
						trial, s, i, late[i], done[s][i])
				}
				if early[i] > done[s][i] {
					t.Fatalf("trial %d sub %d inst %d: earliest completion %d > simulated %d",
						trial, s, i, early[i], done[s][i])
				}
			}
		}
	}
}

// TestZeroInterferenceIdentity: a subjob alone on the processor is served
// work-conserving, so the lower bound's completion times equal the exact
// single-queue recurrence c[i] = max(a[i], c[i-1]) + tau.
func TestZeroInterferenceIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 200; trial++ {
		used := map[model.Ticks]bool{}
		arr := [][]model.Ticks{randTrace(r, 1+r.Intn(8), used, 50)}
		exec := []model.Ticks{model.Ticks(1 + r.Intn(5))}
		lo, _ := bounds(arr, exec, 0)
		late := lo.CompletionTimes(curve.Value(exec[0]), len(arr[0]))
		c := model.Ticks(0)
		for i, a := range arr[0] {
			if a > c {
				c = a
			}
			c += exec[0]
			if late[i] != c {
				t.Fatalf("trial %d inst %d: completion %d, recurrence %d (arr %v exec %d)",
					trial, i, late[i], c, arr[0], exec[0])
			}
		}
	}
}

// TestMonotoneInTotalWorkload: growing the processor-wide workload (an
// extra co-located subjob) can only delay service - the lower bound
// never rises anywhere.
func TestMonotoneInTotalWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		used := map[model.Ticks]bool{}
		own := randTrace(r, 1+r.Intn(5), used, 50)
		other := randTrace(r, 1+r.Intn(5), used, 50)
		exec := model.Ticks(1 + r.Intn(4))
		demand := curve.Staircase(own, curve.Value(exec))
		extra := curve.Staircase(other, curve.Value(1+r.Intn(4)))
		totalAlone := demand
		totalBoth := curve.Sum(demand, extra)
		utilAlone, utilBoth := curve.Utilization(totalAlone), curve.Utilization(totalBoth)
		loAlone, _ := fcfs.BoundsFromTotals(nil, exec, demand, demand, totalAlone, totalAlone, utilAlone, utilAlone)
		loBoth, _ := fcfs.BoundsFromTotals(nil, exec, demand, demand, totalBoth, totalBoth, utilBoth, utilBoth)
		for x := model.Ticks(0); x < 200; x++ {
			if loBoth.Eval(x) > loAlone.Eval(x) {
				t.Fatalf("trial %d: extra workload raised the lower bound at t=%d: %d > %d",
					trial, x, loBoth.Eval(x), loAlone.Eval(x))
			}
		}
	}
}
