// Package spp implements the paper's exact response-time analysis for
// distributed systems whose processors all use static priority preemptive
// scheduling (Section 4.1, Theorems 1-3).
//
// For each subjob, in dependency order, the analysis computes the exact
// service function (Theorem 3) from the service functions of the
// higher-priority subjobs on the same processor, derives the departure
// function (Theorem 2), and feeds it as the arrival function of the next
// hop. The end-to-end worst-case response time is the maximal horizontal
// distance between the last hop's departures and the first hop's arrivals
// (Theorem 1). All steps are exact integer arithmetic: on any concrete
// release trace the computed departure times equal the discrete-event
// simulation instant for instant.
package spp

import (
	"context"
	"errors"
	"fmt"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/par"
	"rta/internal/sched"
)

// Result is the full output of the exact analysis.
type Result struct {
	// WCRT[k] is the worst-case end-to-end response time of job k over
	// its release trace (Theorem 1).
	WCRT []model.Ticks
	// Arrival[k][j][i] is the (exact) release time of instance i of
	// subjob (k,j); hop 0 copies the input trace, later hops are the
	// departures of the previous hop (direct synchronization).
	Arrival [][][]model.Ticks
	// Departure[k][j][i] is the exact completion time of instance i of
	// subjob (k,j).
	Departure [][][]model.Ticks
	// Service[k][j] is the exact service function S_{k,j} of Theorem 3.
	Service [][]*curve.Curve
	// Backlog[k][j] is the exact maximum backlog of subjob (k,j): the
	// largest number of its instances simultaneously pending (released
	// but not completed), which sizes the subjob's input queue.
	Backlog [][]int
}

// ErrNotSPP is returned when some processor does not use SPP scheduling.
var ErrNotSPP = errors.New("spp: exact analysis requires SPP scheduling on every processor")

// ErrCyclic is returned when the subjob dependencies contain a cycle (a
// "physical loop" from a job revisiting a processor, or a "logical loop"
// through priorities); the iterative scheme in the analysis package
// handles those systems.
var ErrCyclic = errors.New("spp: cyclic subjob dependencies (physical or logical loop)")

// ErrResources is returned for systems with shared resources: resource
// blocking depends on run-time critical-section placement, so only the
// bound-based analyses apply (see analysis.Approximate).
var ErrResources = errors.New("spp: exact analysis does not support shared resources")

// AnalyzeWith runs the exact analysis on a valid, all-SPP system: a fresh
// NewResult shell with every subjob seeded, swept by Reanalyze. The subjob
// graph (precedence predecessors plus higher-priority neighbors; see
// model.Topology.Deps) is swept by par.Run's dependency-counter work
// queue on up to workers goroutines, and the output is field-identical
// for every worker count. ctx cancels the sweep between subjob
// evaluations (in-flight ones drain first, then a wrapped ctx.Err() is
// returned), and lim meters the curve breakpoints the run materializes
// (nil = unlimited). When the budget trips, a partial Result accompanies
// an error wrapping fault.ErrBudgetExceeded: jobs whose last hop was fully
// analyzed keep their exact WCRT, the rest report curve.Inf.
func AnalyzeWith(ctx context.Context, sys *model.System, workers int, lim *curve.Limiter) (_ *Result, err error) {
	defer fault.Boundary("spp.Analyze", &err)
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("spp: %w", err)
	}
	for p := range sys.Procs {
		if sys.Procs[p].Sched != model.SPP {
			return nil, ErrNotSPP
		}
	}
	if sys.HasResources() {
		return nil, ErrResources
	}
	topo := sys.Topology()
	if _, acyclic := topo.Components(); !acyclic {
		return nil, ErrCyclic
	}
	res := NewResult(sys)
	all := make([]int, len(topo.Subjobs()))
	for i := range all {
		all[i] = i
	}
	if err := Reanalyze(ctx, sys, sched.NewMemo(topo), res, all, workers, lim); err != nil {
		if errors.Is(err, fault.ErrBudgetExceeded) {
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// NewResult allocates an unanalyzed Result shell for sys: rows sized per
// job, source-hop arrivals (hop 0 for chain jobs) copied from the release
// traces, everything else zero. Reanalyze over every subjob id fills it;
// warm-start callers keep the shell resident and refill only dirty rows.
func NewResult(sys *model.System) *Result {
	res := &Result{
		WCRT:      make([]model.Ticks, len(sys.Jobs)),
		Arrival:   make([][][]model.Ticks, len(sys.Jobs)),
		Departure: make([][][]model.Ticks, len(sys.Jobs)),
		Service:   make([][]*curve.Curve, len(sys.Jobs)),
		Backlog:   make([][]int, len(sys.Jobs)),
	}
	topo := sys.Topology()
	for k := range sys.Jobs {
		hops := len(sys.Jobs[k].Subjobs)
		res.Arrival[k] = make([][]model.Ticks, hops)
		res.Departure[k] = make([][]model.Ticks, hops)
		res.Service[k] = make([]*curve.Curve, hops)
		res.Backlog[k] = make([]int, hops)
		for _, j := range topo.Sources(k) {
			res.Arrival[k][j] = append([]model.Ticks(nil), sys.Jobs[k].Releases...)
		}
	}
	return res
}

// Reanalyze re-runs the exact per-subjob analysis over the given subjob
// ids (sorted ascending, in sys.Topology() numbering) and recomputes every
// WCRT from the refreshed rows. The caller guarantees sys is a valid,
// acyclic, resource-free all-SPP system, memo belongs to the current
// topology with any stale prefix entries invalidated (sched.Memo.Extend),
// and every row a dirty subjob reads that is NOT in ids already holds its
// converged value — then the refreshed rows are bit-identical to a cold
// AnalyzeWith (which is Reanalyze over every id) at any worker count. On a
// tripped breakpoint budget the rows analyzed so far stay published and an
// error wrapping fault.ErrBudgetExceeded is returned.
func Reanalyze(ctx context.Context, sys *model.System, memo *sched.Memo, res *Result, ids []int, workers int, lim *curve.Limiter) error {
	topo := sys.Topology()
	refs := topo.Subjobs()
	var budgetErr error
	sweepErr := func() (swErr error) {
		defer func() {
			// A limiter trip panics a *curve.BudgetError out of a worker
			// (possibly fault-tagged); par.Run drains the in-flight work and
			// re-raises it, so recover it here and the rows analyzed so far
			// become a partial result. Any other panic keeps unwinding to
			// the entry boundary.
			if r := recover(); r != nil {
				if be, ok := fault.Payload(r).(*curve.BudgetError); ok {
					swErr = be
					return
				}
				panic(r)
			}
		}()
		return par.Run(ctx, ids, topo.Deps, topo.Dependents, workers, func(id int) {
			r := refs[id]
			fault.Tag(r.Job, r.Hop, sys.Subjob(r).Proc, func() {
				analyzeSubjob(sys, topo, memo, res, lim, r)
			})
		})
	}()
	if sweepErr != nil {
		if errors.Is(sweepErr, fault.ErrBudgetExceeded) {
			budgetErr = fmt.Errorf("spp: %w", sweepErr)
		} else {
			return fmt.Errorf("spp: %w", sweepErr)
		}
	}
	ComputeWCRT(sys, res)
	return budgetErr
}

// ComputeWCRT recomputes every job's Theorem 1 end-to-end response time
// from the Departure rows: an instance completes when the last of its
// sink hops does (the single last hop for chain jobs). Jobs with a sink
// lacking departure rows (budget-truncated run) report curve.Inf.
func ComputeWCRT(sys *model.System, res *Result) {
	topo := sys.Topology()
	for k := range sys.Jobs {
		var worst model.Ticks
		for _, j := range topo.Sinks(k) {
			if res.Departure[k][j] == nil {
				worst = curve.Inf
				break
			}
			for i, dep := range res.Departure[k][j] {
				if curve.IsInf(dep) {
					worst = curve.Inf
					break
				}
				if d := dep - sys.Jobs[k].Releases[i]; d > worst {
					worst = d
				}
			}
			if curve.IsInf(worst) {
				break
			}
		}
		res.WCRT[k] = worst
	}
}

// analyzeSubjob computes the exact service function and departure times of
// one subjob whose dependencies are already analyzed, charging the curves
// it materializes against lim (nil = unlimited).
func analyzeSubjob(sys *model.System, topo *model.Topology, memo *sched.Memo, res *Result, lim *curve.Limiter, r model.SubjobRef) {
	sj := sys.Subjob(r)
	// Non-source hops pull their exact arrivals from the precedence
	// predecessors' departure rows (all final — the dependency edges
	// cover them): the completions plus per-edge PostDelay join by
	// elementwise max, then the sync policy applies at this hop. Only
	// this subjob writes its own arrival row, so the sweep stays
	// race-free at any worker count; warm re-analysis recomputes the row
	// from whatever mix of refreshed and resident predecessor rows is
	// current, which is exactly the cold value.
	var scratchPreds [1]int
	job := &sys.Jobs[r.Job]
	if preds := job.HopPreds(r.Hop, &scratchPreds); len(preds) > 0 {
		res.Arrival[r.Job][r.Hop] = sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks {
			return res.Departure[r.Job][p]
		})
	}
	arr := res.Arrival[r.Job][r.Hop]
	// Per-evaluation arena: the demand staircase, availability and raw
	// service transform are intermediates; only the stored service
	// function is copied to the heap.
	sc := curve.GetScratch()
	defer curve.PutScratch(sc)
	demand := curve.StaircaseIn(sc, arr, sj.Exec)
	lim.Charge(demand)

	// Equation (10): availability is what the higher-priority subjobs on
	// this processor leave over — memoized per priority-prefix, since
	// Higher(r) is exactly the prefix before r's position and every
	// co-located subjob at that position shares the same availability.
	avail := memo.PrefixAvailability(sj.Proc, topo.PrioPos(r), func(o model.SubjobRef) *curve.Curve {
		return res.Service[o.Job][o.Hop]
	})

	// Equation (9): the exact service function.
	svc := curve.ServiceTransformIn(sc, avail, demand)
	lim.Charge(avail, svc)
	res.Service[r.Job][r.Hop] = svc.Clone() // svc is arena-backed; the result is stored

	// Theorem 2: departures are the instants S first reaches m*tau.
	dep := svc.CompletionTimes(sj.Exec, len(arr))
	res.Departure[r.Job][r.Hop] = dep
	res.Backlog[r.Job][r.Hop] = int(curve.MaxBacklog(arr, dep))
}

// Schedulable reports whether every job meets its end-to-end deadline
// under the computed worst-case response times.
func (r *Result) Schedulable(sys *model.System) bool {
	for k := range sys.Jobs {
		if curve.IsInf(r.WCRT[k]) || r.WCRT[k] > sys.Jobs[k].Deadline {
			return false
		}
	}
	return true
}
