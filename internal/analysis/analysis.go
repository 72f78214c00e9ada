// Package analysis orchestrates the paper's response-time analyses over
// whole distributed systems.
//
// Three entry points cover the paper's methods:
//
//   - Exact: Section 4.1 (Theorems 1-3) for systems whose processors all
//     run SPP; delegates to the spp package.
//   - Approximate: Section 4.2 (Theorem 4) for arbitrary mixes of
//     registered scheduling disciplines, propagating per-subjob arrival
//     bounds along each chain (Lemmas 1 and 2) and dispatching the
//     per-processor service bounds through the sched policy registry.
//   - Analyze: picks Exact when applicable (every processor's policy is
//     exact-capable), otherwise Approximate - the per-method selection
//     the paper's evaluation calls SPP/Exact, SPNP/App and FCFS/App.
//
// The approximate path reports two end-to-end bounds: the paper's
// Theorem 4 sum of per-hop local response times (Equation 11), used for
// the reproduction experiments, and a tighter per-instance pipeline bound
// (the horizontal deviation between the last hop's latest departures and
// the release trace) that the same bookkeeping yields for free; see
// Result.WCRT and Result.WCRTSum.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/sched"
	"rta/internal/spp"
)

// ErrCyclic is returned when the subjob dependency graph has a cycle; use
// Iterative for such systems.
var ErrCyclic = errors.New("analysis: cyclic subjob dependencies (physical or logical loop); use Iterative")

// ErrBudgetExceeded identifies runs stopped by an Options.Budget ceiling:
// errors.Is(err, ErrBudgetExceeded) holds on every budget-truncated result.
// Such runs still return a partial Result — jobs whose computation
// completed keep their finite bounds, the rest report curve.Inf.
var ErrBudgetExceeded = fault.ErrBudgetExceeded

// InternalError is the typed error the entry points return when an engine
// invariant panics mid-analysis; see package fault.
type InternalError = fault.InternalError

// Hop holds the per-subjob artifacts of the approximate analysis.
type Hop struct {
	// ArrEarly[i] / ArrLate[i] bound the release time of instance i at
	// this hop: the true release lies in [ArrEarly[i], ArrLate[i]].
	// ArrEarly is the pseudo-inverse of the paper's upper arrival bound
	// (Lemma 2), ArrLate of the lower one (Lemma 1).
	ArrEarly, ArrLate []model.Ticks
	// DepEarly[i] / DepLate[i] bound the completion time of instance i.
	DepEarly, DepLate []model.Ticks
	// SvcLo / SvcHi are the service bounds used (Theorems 5/6 or 8/9).
	SvcLo, SvcHi *curve.Curve
	// Local is the hop's local response bound d_{k,j} of Equation (12).
	Local model.Ticks
	// Backlog bounds the number of instances of this subjob that can be
	// pending simultaneously (arrival upper bound minus departure lower
	// bound); -1 when an instance is never certified to complete. Sizes
	// the subjob's input queue.
	Backlog int
}

// Result is the output of an end-to-end analysis.
type Result struct {
	// Method names the analysis actually used: "SPP/Exact" or "App".
	Method string
	// WCRT[k] is the tightest sound end-to-end response bound computed
	// for job k: exact for SPP/Exact, the per-instance pipeline bound for
	// the approximate path. curve.Inf when an instance is never served.
	WCRT []model.Ticks
	// WCRTSum[k] is Theorem 4's end-to-end bound, the sum of per-hop
	// local response times (Equation 11). For the exact method it equals
	// WCRT. WCRTSum >= WCRT always; the reproduction experiments use
	// WCRTSum for the App methods, as the paper does.
	WCRTSum []model.Ticks
	// Hops[k][j] carries the per-subjob details (approximate path only;
	// nil for the exact path).
	Hops [][]Hop
	// Exact is the underlying exact result when Method == "SPP/Exact".
	Exact *spp.Result
}

// Schedulable reports whether every job's Theorem 4 bound (WCRTSum, the
// paper's admission test) meets its end-to-end deadline.
func (r *Result) Schedulable(sys *model.System) bool {
	for k := range sys.Jobs {
		if curve.IsInf(r.WCRTSum[k]) || r.WCRTSum[k] > sys.Jobs[k].Deadline {
			return false
		}
	}
	return true
}

// SchedulableTight is Schedulable with the per-instance bound WCRT.
func (r *Result) SchedulableTight(sys *model.System) bool {
	for k := range sys.Jobs {
		if curve.IsInf(r.WCRT[k]) || r.WCRT[k] > sys.Jobs[k].Deadline {
			return false
		}
	}
	return true
}

// Options tune how an analysis executes without changing what it
// computes.
type Options struct {
	// Workers bounds the worker pool of every engine: subjobs (or, under
	// Iterative, strongly connected components) whose prerequisites are
	// done touch disjoint state and are evaluated concurrently by up to
	// Workers goroutines. Results are field-identical for every worker
	// count (see resident.sweep). Zero or one selects the serial sweep;
	// negative selects GOMAXPROCS.
	Workers int
	// Context cancels the analysis: cancellation is observed between
	// subjob evaluations, in-flight evaluations drain, and the entry point
	// returns an error wrapping ctx.Err(). Nil means context.Background.
	Context context.Context
	// Budget bounds the resources one analysis may consume; the zero
	// value is unlimited. Exceeding a ceiling stops the run with a partial
	// Result and an error wrapping ErrBudgetExceeded.
	Budget Budget
}

// Budget caps the resources of a single analysis run. Zero (or negative)
// fields mean unlimited. Budgets bound cumulative work, not peak memory,
// so a budgeted run terminates even on inputs where the unbudgeted
// analysis would effectively run away.
type Budget struct {
	// Breakpoints caps the total number of curve breakpoints the run may
	// materialize across all demand staircases and service bounds.
	Breakpoints int64
	// FixedPointSteps caps the number of subjob evaluations an Iterative
	// run makes: one per subjob outside the loops, one per worklist visit
	// inside them. Exact and Approximate ignore it. Under more than one
	// worker, which evaluations complete before the trip depends on the
	// schedule, so a tripped run's partial bounds may differ between worker
	// counts (each finite bound still equals the converged one).
	FixedPointSteps int64
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// ctx resolves the effective context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// limiter resolves the breakpoint limiter; nil (never trips) without a
// ceiling.
func (o Options) limiter() *curve.Limiter {
	if o.Budget.Breakpoints > 0 {
		return curve.NewLimiter(o.Budget.Breakpoints)
	}
	return nil
}

// catchBudget runs f and intercepts a budget panic (possibly
// fault-tagged): a *curve.BudgetError raised by a limiter or the step
// ceiling of an iterative run, both wrapping ErrBudgetExceeded; any other
// panic keeps unwinding toward the entry-point boundary.
func catchBudget(f func()) (be error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := fault.Payload(r).(error); ok && errors.Is(e, ErrBudgetExceeded) {
				be = e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Analyze dispatches to the exact analysis when every processor runs SPP
// and no shared resources are declared, and to the approximate analysis
// otherwise (resource blocking depends on critical-section placement at
// run time, which the exact trace analysis cannot know).
func Analyze(sys *model.System) (*Result, error) { return AnalyzeOpts(sys, Options{}) }

// AnalyzeOpts is Analyze with execution options.
func AnalyzeOpts(sys *model.System, opts Options) (*Result, error) {
	if sched.ExactAll(sys) && !sys.HasResources() {
		return ExactOpts(sys, opts)
	}
	return ApproximateOpts(sys, opts)
}

// Exact runs the Section 4.1 analysis (all-SPP systems only).
func Exact(sys *model.System) (*Result, error) { return ExactOpts(sys, Options{}) }

// ExactOpts is Exact with execution options. Its refusals keep the exact
// engine's wording: spp.ErrNotSPP, spp.ErrResources and "spp: "-prefixed
// validation errors, exactly as spp.AnalyzeWith reports them.
func ExactOpts(sys *model.System, opts Options) (res *Result, err error) {
	defer fault.Boundary("analysis.Exact", &err)
	switch err := sys.Validate(); {
	case err != nil:
		return nil, fmt.Errorf("spp: %w", err)
	case !sched.ExactAll(sys):
		return nil, spp.ErrNotSPP
	case sys.HasResources():
		return nil, spp.ErrResources
	}
	rv, err := analyzeCold(sys, modeExact, 0, opts)
	return rv.res, err
}

// Approximate runs the Theorem 4 pipeline on a system with any mix of
// SPP, SPNP and FCFS processors.
func Approximate(sys *model.System) (*Result, error) {
	return ApproximateOpts(sys, Options{})
}

// ApproximateOpts is Approximate with execution options.
func ApproximateOpts(sys *model.System, opts Options) (res *Result, err error) {
	defer fault.Boundary("analysis.Approximate", &err)
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	rv, err := analyzeCold(sys, modeApprox, 0, opts)
	return rv.res, err
}

// state carries the worklist computation of the approximate pipeline.
type state struct {
	sys  *model.System
	topo *model.Topology
	hops [][]Hop
	// demandLo/demandHi cache, per subjob id, the workload staircases
	// built from the hop's latest respectively earliest arrivals. Source
	// hops are published by newState straight from the release trace;
	// every other hop is published by ensureArrivals when its arrival
	// bounds are first needed — by its own evaluation or, on FCFS
	// processors, by a co-located subjob folding it into Equation 21's
	// total workload. Either way the inputs (the precedence predecessors'
	// departure vectors) are final by then, so the cached staircases are
	// deterministic regardless of which reader resolves them first.
	demandLo, demandHi []*curve.Curve
	// arrState guards the lazy arrival resolution, one word per subjob id
	// (see ensureArrivals), rebuilt by every sweep. A member of a cyclic
	// component whose join reads another member is marked resolved by
	// pinComponent, which pins its arrivals to the iteration's start; its
	// evaluations then merge them upwards (pullLate).
	arrState []uint32
	// resolveMu serializes concurrent resolvers of the same hop in the
	// parallel engine; the value computed is identical whoever wins.
	resolveMu []sync.Mutex
	// memo shares cross-subjob intermediates (prefix interference sums,
	// FCFS totals) between the policy evaluations of one sweep (set from
	// the resident's memo). Sound because the component order makes every
	// input final before any reader outside its component runs; members of
	// a cyclic component, whose inputs are provisional, evaluate without
	// it.
	memo *sched.Memo
	// fix is the fixed-point bookkeeping of an iterative sweep; nil under
	// the acyclic engines.
	fix *fixpoint
	// lim meters the curve breakpoints the run materializes; nil (no
	// budget) never trips.
	lim *curve.Limiter
	// demandFn and serviceFn are the ServiceContext accessors, identical
	// for every subjob and hoisted here so the hot loop does not allocate
	// two fresh closures per evaluation.
	demandFn  func(o model.SubjobRef) (*curve.Curve, *curve.Curve)
	serviceFn func(o model.SubjobRef) (*curve.Curve, *curve.Curve)
}

// newState allocates a fresh approximate shell for sys: source hops
// (hop 0 for chain jobs) pinned to the release traces with their demand
// staircases published against lim, everything else zero.
func newState(sys *model.System, lim *curve.Limiter) *state {
	st := &state{sys: sys, topo: sys.Topology(), lim: lim}
	st.initFns()
	st.hops = make([][]Hop, len(sys.Jobs))
	n := len(st.topo.Subjobs())
	st.demandLo = make([]*curve.Curve, n)
	st.demandHi = make([]*curve.Curve, n)
	for k := range sys.Jobs {
		st.hops[k] = make([]Hop, len(sys.Jobs[k].Subjobs))
		for _, j := range st.topo.Sources(k) {
			rel := append([]model.Ticks(nil), sys.Jobs[k].Releases...)
			st.hops[k][j].ArrEarly = rel
			st.hops[k][j].ArrLate = rel
			st.publishDemand(model.SubjobRef{Job: k, Hop: j})
		}
	}
	return st
}

// ensureArrivals resolves the arrival bounds (and demand staircases) of
// a non-source hop on first use: the precedence predecessors' departure
// vectors — all final, the dependency edges guarantee it — join by
// elementwise max plus per-edge PostDelay, then the job's sync policy
// applies at the hop (model.JoinReleases). Safe under concurrent callers
// (the hop's own evaluation and, on FCFS processors, its co-located
// readers may race here): the winner computes, the rest wait on the
// per-id mutex, and the value is a pure function of final inputs, so
// results stay field-identical at every worker count.
func (st *state) ensureArrivals(r model.SubjobRef) {
	id := st.topo.ID(r)
	if atomic.LoadUint32(&st.arrState[id]) == 1 {
		return
	}
	st.resolveMu[id].Lock()
	defer st.resolveMu[id].Unlock()
	if atomic.LoadUint32(&st.arrState[id]) == 1 {
		return
	}
	job := &st.sys.Jobs[r.Job]
	var scratch [1]int
	preds := job.HopPreds(r.Hop, &scratch)
	hop := &st.hops[r.Job][r.Hop]
	hop.ArrEarly = st.sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks {
		return st.hops[r.Job][p].DepEarly
	})
	hop.ArrLate = st.sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks {
		return st.hops[r.Job][p].DepLate
	})
	st.publishDemand(r)
	atomic.StoreUint32(&st.arrState[id], 1)
}

// initFns binds the ServiceContext accessor closures to this state value.
// Split out of newState because the warm-start session clones states
// (copy-on-write) and the clone must not inherit closures capturing the
// original.
func (st *state) initFns() {
	st.demandFn = func(o model.SubjobRef) (*curve.Curve, *curve.Curve) {
		st.ensureArrivals(o)
		oid := st.topo.ID(o)
		return st.demandLo[oid], st.demandHi[oid]
	}
	st.serviceFn = func(o model.SubjobRef) (*curve.Curve, *curve.Curve) {
		oh := &st.hops[o.Job][o.Hop]
		return oh.SvcLo, oh.SvcHi
	}
}

// publishDemand builds and caches the demand staircases of a hop whose
// arrival bounds just became final.
func (st *state) publishDemand(r model.SubjobRef) {
	hop := &st.hops[r.Job][r.Hop]
	exec := st.sys.Subjob(r).Exec
	id := st.topo.ID(r)
	st.demandLo[id] = curve.Staircase(finiteTimes(hop.ArrLate), exec)
	st.demandHi[id] = curve.Staircase(hop.ArrEarly, exec)
	st.lim.Charge(st.demandLo[id], st.demandHi[id])
}

// finiteTimes drops Inf sentinels from a latest-arrival time vector:
// instances the lower bounds cannot certify to arrive contribute nothing
// to a lower arrival (workload) staircase.
func finiteTimes(ts []model.Ticks) []model.Ticks {
	n := 0
	for _, t := range ts {
		if !curve.IsInf(t) {
			n++
		}
	}
	if n == len(ts) {
		return ts
	}
	out := make([]model.Ticks, 0, n)
	for _, t := range ts {
		if !curve.IsInf(t) {
			out = append(out, t)
		}
	}
	return out
}

// computeSubjob derives the service bounds, departure bounds, backlog and
// local response of one subjob from its current inputs. Outside the loops
// (cyclic false) the inputs are final: every output is written outright
// and the policies share the memo. A member of a cyclic component sees
// provisional inputs instead: it keeps the early departures pinComponent
// pinned, merges its late departures monotonically (they only grow), and
// evaluates without the memo (see sched.Memo). It reports whether its
// service bounds and its late departures moved.
func (st *state) computeSubjob(r model.SubjobRef, cyclic bool) (svcMoved, depMoved bool) {
	sys, topo := st.sys, st.topo
	sj := sys.Subjob(r)
	hop := &st.hops[r.Job][r.Hop]
	st.fix.step()
	// Pull this hop's arrivals from its precedence predecessors (no-op
	// for sources, cyclic members and hops a co-located reader already
	// resolved).
	st.ensureArrivals(r)
	// Per-evaluation arena: every curve intermediate below is carved from
	// sc and recycled wholesale; only the stored artifacts (service
	// bounds, published demands) are heap-backed.
	sc := curve.GetScratch()
	defer curve.PutScratch(sc)
	// Policy dispatch: the registered policy of the processor's scheduler
	// derives the service bounds from the cached demand staircases and
	// (for priority-driven disciplines) the service bounds of the
	// dependency subjobs — final outside the loops, the current iterate
	// inside them (nil before a member's first evaluation, which the
	// policies treat as "assume nothing"; see sched.ServiceContext).
	ctx := &sched.ServiceContext{
		Sys: sys, Topo: topo, Ref: r,
		Demand:  st.demandFn,
		Service: st.serviceFn,
		Scratch: sc,
	}
	if !cyclic {
		ctx.Memo = st.memo
	}
	svcLo, svcHi := sched.For(sys.Procs[sj.Proc].Sched).ServiceBounds(ctx)
	st.lim.Charge(svcLo, svcHi)

	n := len(hop.ArrEarly)
	depLate := svcLo.CompletionTimes(sj.Exec, n)
	if !cyclic {
		hop.DepEarly = svcHi.CompletionTimes(sj.Exec, n)
		for i := 0; i < n; i++ {
			// An instance cannot complete before its own earliest release
			// plus its execution time; tightening the earliest departures
			// tightens the next hop's upper arrival bound.
			if e := hop.ArrEarly[i] + sj.Exec; !curve.IsInf(hop.DepEarly[i]) && hop.DepEarly[i] < e {
				hop.DepEarly[i] = e
			}
		}
	}
	for i := 0; i < n; i++ {
		// Bounds must stay ordered even when the instance is never
		// completed in the lower service bound.
		if !curve.IsInf(depLate[i]) && depLate[i] < hop.DepEarly[i] {
			depLate[i] = hop.DepEarly[i]
		}
	}
	if cyclic {
		svcMoved = !svcLo.Equal(hop.SvcLo) || !svcHi.Equal(hop.SvcHi)
		if hop.DepLate == nil {
			hop.DepLate, depMoved = depLate, true
		} else {
			depMoved = mergeLate(hop.DepLate, depLate)
		}
	} else {
		hop.DepLate = depLate
	}
	hop.SvcLo, hop.SvcHi = svcLo, svcHi

	// Backlog bound: earliest possible arrivals vs latest completions.
	hop.Backlog = -1
	if dl := finiteTimes(hop.DepLate); len(dl) == len(hop.ArrEarly) {
		hop.Backlog = int(curve.MaxBacklog(hop.ArrEarly, dl))
	}

	// Equation (12): local response bound for this hop.
	var local model.Ticks
	for i := 0; i < n; i++ {
		if curve.IsInf(hop.DepLate[i]) {
			local = curve.Inf
			break
		}
		if d := hop.DepLate[i] - hop.ArrEarly[i]; d > local {
			local = d
		}
	}
	hop.Local = local
	// Successors pull their own arrivals from the departure bounds just
	// fixed (ensureArrivals), so nothing is pushed downstream here: a
	// join hop must merge ALL its predecessors' deliveries before the
	// sync transform runs, and the merge point owns that computation.
	return svcMoved, depMoved
}

// result assembles the end-to-end bounds.
func (st *state) result() *Result {
	sys := st.sys
	res := &Result{
		Method:  "App",
		WCRT:    make([]model.Ticks, len(sys.Jobs)),
		WCRTSum: make([]model.Ticks, len(sys.Jobs)),
		Hops:    st.hops,
	}
	var scratch [1]int
	for k := range sys.Jobs {
		job := &sys.Jobs[k]
		// Per-instance pipeline bound: an instance completes when its
		// last sink hop does, so its response is the max over sinks of
		// the latest completion there, minus the actual release. A sink
		// never evaluated (budget-truncated run) has no departure bounds;
		// the job's response is unknown, reported unbounded.
		var tight model.Ticks
		for _, j := range st.topo.Sinks(k) {
			if st.hops[k][j].DepLate == nil {
				tight = curve.Inf
				break
			}
			for i, dep := range st.hops[k][j].DepLate {
				if curve.IsInf(dep) {
					tight = curve.Inf
					break
				}
				if d := dep - job.Releases[i]; d > tight {
					tight = d
				}
			}
			if curve.IsInf(tight) {
				break
			}
		}
		res.WCRT[k] = tight
		// Theorem 4 generalized: the sum of per-hop local bounds plus the
		// inter-hop communication latencies (Equation 11) becomes the max
		// over source->sink paths of that sum — a longest-path recurrence
		// in topological hop order, which reduces to the plain sum for
		// chain jobs. The decomposition presumes direct synchronization -
		// under Phase Modification or Release Guard the inter-hop waiting
		// is policy-controlled, not bounded by the link latency - so for
		// those jobs the per-instance pipeline bound is reported instead.
		if job.Sync != model.DirectSync {
			res.WCRTSum[k] = tight
			continue
		}
		acc := make([]model.Ticks, len(st.hops[k]))
		sum := model.Ticks(0)
		for _, j := range st.topo.HopOrder(k) {
			if st.hops[k][j].DepLate == nil || curve.IsInf(st.hops[k][j].Local) {
				// Every hop lies on some source->sink path (the precedence
				// graph is connected), so one uncertified hop makes the
				// max over paths unbounded.
				sum = curve.Inf
				break
			}
			var best model.Ticks
			for _, p := range job.HopPreds(j, &scratch) {
				if c := acc[p] + job.Subjobs[p].PostDelay; c > best {
					best = c
				}
			}
			acc[j] = best + st.hops[k][j].Local
		}
		if !curve.IsInf(sum) {
			for _, j := range st.topo.Sinks(k) {
				if acc[j] > sum {
					sum = acc[j]
				}
			}
		}
		res.WCRTSum[k] = sum
	}
	return res
}
