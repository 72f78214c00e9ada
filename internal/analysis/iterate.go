package analysis

import (
	"errors"
	"fmt"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/sched"
)

// Iterative implements the extension sketched in the paper's conclusion
// for systems whose subjob dependencies form cycles - "physical loops"
// (a job revisiting a processor) and "logical loops" (jobs disturbing each
// other across processors so that no dependency order exists). The
// unknown per-subjob arrival bounds are treated as a vector X and the
// per-subjob analysis as a function F; the fixed point of X = F(X) is
// approached by Kleene iteration from an optimistic start:
//
//   - the early arrival and departure bounds are pinned at their provably
//     sound values - release time plus the chain's cumulative minimum
//     execution time - and never iterated: an "improved" early bound
//     computed from not-yet-converged late bounds is not trustworthy, and
//     merging it in would bake the unsoundness into the fixed point;
//   - the late arrival bounds start equal to the early ones and are
//     re-derived from the latest-departure bounds of each predecessor,
//     merged monotonically (never decreasing), until nothing changes.
//
// The iteration diverges (some instance's latest departure grows without
// bound or beyond the divergence cap) exactly when the bounds cannot
// certify the loop to drain; the affected jobs - those owning a subjob
// still changing in the final round, or depending (transitively) on one -
// report an infinite WCRT, while jobs whose dependency cone converged
// keep their finite bounds.
//
// The paper presents this scheme as future work without a soundness
// proof; this implementation follows its sketch and is validated
// empirically against the discrete-event simulator (see the package
// tests). For acyclic systems it reduces to Approximate up to iteration
// order.
func Iterative(sys *model.System, maxRounds int) (*Result, error) {
	return IterativeOpts(sys, maxRounds, Options{})
}

// IterativeOpts is Iterative with execution options. The fixed-point
// sweep itself is Gauss-Seidel (each evaluation feeds the next within a
// round), so Options.Workers does not parallelize it; the knob is
// accepted for API uniformity.
//
// Instead of re-evaluating every subjob every round, the sweep keeps a
// dirty set: a subjob is re-evaluated only when one of its inputs moved
// since its last evaluation - a predecessor's latest departures (its late
// arrivals), a higher-priority neighbor's service bounds (SPP/SPNP), or a
// co-located subjob's late arrivals (FCFS, Equation 21). Because each
// evaluation is a deterministic function of those inputs and all merges
// are monotone, re-running a subjob with unchanged inputs reproduces its
// state exactly; skipping it is therefore unobservable, and the dirty
// sweep converges to the same fixed point as the full sweep in the same
// ascending-id Gauss-Seidel order (dirt raised at a higher id is consumed
// in the same round, at a lower or equal id in the next - exactly when
// the full sweep would revisit it).
func IterativeOpts(sys *model.System, maxRounds int, opts Options) (res *Result, err error) {
	defer fault.Boundary("analysis.Iterative", &err)
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	ctx := opts.ctx()
	var st *state
	if be := catchBudget(func() { st = newState(sys, opts.limiter()) }); be != nil {
		// Tripped while building the first-hop demand staircases: nothing
		// was computed, no partial result to salvage.
		return nil, fmt.Errorf("analysis: %w", be)
	}
	st.pinIterativeStart()
	refs := st.topo.Subjobs()
	n := len(refs)
	order := st.sweepOrder()

	// The convergence criterion matches a full sweep's: stop after the
	// first round in which no monotone merge moved (DepLate or a
	// successor's ArrLate). A clean subjob re-evaluated by the full sweep
	// reproduces its state bit for bit and merges nothing, so "no merge
	// among the dirty" coincides with "no merge in a full sweep" - the
	// dirty sweep stops in the same round with the same state. Service
	// curves may still be settling towards their frozen-arrival values at
	// that point; like the full sweep, the iteration does not wait for
	// them (only merged quantities enter the result).
	dirty := make([]bool, n)
	for i := range dirty {
		dirty[i] = true
	}
	changedRound := make([]int, n) // last round id's merges moved, +1 (0 = never)
	converged := false
	// Budget bookkeeping: steps counts subjob evaluations against
	// Budget.FixedPointSteps; a breakpoint-budget trip inside an
	// evaluation is recovered here (catchBudget), where the partial bound
	// vector is still available. Either ceiling stops the sweep with
	// lastRound/bailID recording where, so the divergence-localization
	// logic below can mark exactly the jobs whose bounds are uncertified.
	maxSteps := opts.Budget.FixedPointSteps
	var steps int64
	var bailErr error
	bailID, lastRound := -1, 0
sweep:
	for round := 0; round < maxRounds && !converged; round++ {
		lastRound = round + 1
		anyChange := false
		for _, id := range order {
			if !opts.fullSweep && !dirty[id] {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("analysis: %w", cerr)
			}
			if maxSteps > 0 {
				if steps++; steps > maxSteps {
					bailErr = fmt.Errorf("analysis: fixed-point step budget of %d exceeded: %w", maxSteps, ErrBudgetExceeded)
					bailID = id // still dirty: seeds itself below
					break sweep
				}
			}
			dirty[id] = false
			r := refs[id]
			var svcCh, depCh, arrCh, ch bool
			be := catchBudget(func() {
				fault.Tag(r.Job, r.Hop, sys.Subjob(r).Proc, func() {
					svcCh, depCh, arrCh, ch = st.iterateSubjob(r)
				})
			})
			if be != nil {
				bailErr = fmt.Errorf("analysis: %w", be)
				bailID = id // half-evaluated: its job cannot be certified
				break sweep
			}
			if ch {
				anyChange = true
				changedRound[id] = round + 1
			}
			if svcCh {
				st.dirtyServiceReaders(id, dirty)
			}
			if arrCh {
				// My own late arrivals moved: my demand staircase changed
				// for everyone folding it into a total-workload term.
				st.dirtyDemandReaders(id, dirty)
			}
			if depCh {
				// My latest departures moved: every precedence successor
				// must re-pull its joined arrivals.
				for _, o := range st.topo.JobSuccs(id) {
					dirty[o] = true
				}
			}
		}
		converged = !anyChange
	}
	if converged {
		return st.result(), nil
	}
	// Did not converge (rounds exhausted or budget tripped). Only the
	// subjobs whose merged bounds were still moving in the final (possibly
	// partial) round, those whose inputs still are - the dirty remainder
	// plus the evaluation the budget interrupted - and everything
	// transitively depending on them, can still grow; jobs outside that
	// closure sit at the fixed point of their own dependency cone and keep
	// their finite bounds.
	seeds := dirty
	for id := 0; id < n; id++ {
		if changedRound[id] == lastRound {
			seeds[id] = true
		}
	}
	if bailID >= 0 {
		seeds[bailID] = true
	}
	res = st.result()
	for _, k := range st.unconvergedJobs(seeds) {
		res.WCRT[k] = curve.Inf
		res.WCRTSum[k] = curve.Inf
	}
	if bailErr != nil {
		res.Method = "App/Iterative(budget)"
		return res, bailErr
	}
	res.Method = "App/Iterative(diverged)"
	return res, errors.New("analysis: iteration did not converge; affected jobs reported unschedulable")
}

// pinIterativeStart re-seeds a fresh state for the Kleene iteration:
// sound early bounds (release plus the longest execution-plus-delay path
// from any source, the chain's cumulative prefix generalized over the
// precedence DAG; DepEarly of a hop feeds the pinned ArrEarly of its
// successors, all pinned for the whole iteration) and late arrivals
// started equal to the early ones. newState published only the source
// hops' (release-trace, hence final) demand caches; iterDemand* builds the
// rest version-checked. Arrivals are managed per round here, so the
// acyclic sweep's one-shot resolution guards stay unset.
func (st *state) pinIterativeStart() {
	sys := st.sys
	var scratch [1]int
	for k := range sys.Jobs {
		job := &sys.Jobs[k]
		offset := make([]model.Ticks, len(job.Subjobs))
		for _, j := range st.topo.HopOrder(k) {
			preds := job.HopPreds(j, &scratch)
			for _, p := range preds {
				if c := offset[p] + job.Subjobs[p].Exec + job.Subjobs[p].PostDelay; c > offset[j] {
					offset[j] = c
				}
			}
			if len(preds) > 0 {
				early := make([]model.Ticks, len(job.Releases))
				for i, t := range job.Releases {
					early[i] = t + offset[j]
				}
				st.hops[k][j].ArrEarly = early
				st.hops[k][j].ArrLate = append([]model.Ticks(nil), early...)
			}
			dep := make([]model.Ticks, len(job.Releases))
			for i, t := range job.Releases {
				dep[i] = t + offset[j] + job.Subjobs[j].Exec
			}
			st.hops[k][j].DepEarly = dep
		}
	}
}

// sweepOrder returns the Gauss-Seidel round order: the dependency levels
// first, then the subjobs entangled in cycles in ascending id. On the
// acyclic part every subjob thus sees its predecessors' and
// higher-priority neighbors' final values within the same round instead
// of the "assume nothing" pessimism a naive id-order first round would
// bake into the monotone merges: acyclic systems converge in one working
// round, cycles iterate as before. The order only affects how much
// transient pessimism the merges keep (less is tighter and still sound -
// the dominance tests cover both shapes).
func (st *state) sweepOrder() []int {
	n := len(st.topo.Subjobs())
	order := make([]int, 0, n)
	levels, _ := st.topo.Levels()
	inLevel := make([]bool, n)
	for _, level := range levels {
		for _, id := range level {
			inLevel[id] = true
			order = append(order, id)
		}
	}
	for id := 0; id < n; id++ {
		if !inLevel[id] {
			order = append(order, id)
		}
	}
	return order
}

// unconvergedJobs returns the jobs owning a subjob in the
// dependents-closure of the seed set: exactly those whose bounds the
// exhausted iteration cannot certify. Subjobs outside the closure were
// last evaluated with inputs that never moved again, so their state
// equals the fixed point restricted to their dependency cone.
func (st *state) unconvergedJobs(seeds []bool) []int {
	refs := st.topo.Subjobs()
	queue := make([]int, 0, len(refs))
	inClosure := make([]bool, len(refs))
	for id, d := range seeds {
		if d {
			inClosure[id] = true
			queue = append(queue, id)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, dep := range st.topo.Dependents(queue[qi]) {
			if !inClosure[dep] {
				inClosure[dep] = true
				queue = append(queue, dep)
			}
		}
	}
	jobSet := make([]bool, len(st.sys.Jobs))
	var jobs []int
	for id, in := range inClosure {
		if in && !jobSet[refs[id].Job] {
			jobSet[refs[id].Job] = true
			jobs = append(jobs, refs[id].Job)
		}
	}
	return jobs
}

// dirtyServiceReaders marks the subjobs that consume subjob id's service
// bounds - the reverse of the policy registry's ServiceDeps hook (e.g. the
// lower-priority neighbors under SPP/SPNP, the interference terms of
// Theorems 5/6).
func (st *state) dirtyServiceReaders(id int, dirty []bool) {
	for _, o := range st.topo.ServiceReaders(id) {
		dirty[o] = true
	}
}

// dirtyDemandReaders marks the co-located subjobs that consume subjob
// id's late arrival bounds beyond id itself — the reverse of the policy
// registry's DemandDeps hook (e.g. every co-located subjob on FCFS
// processors, Equation 21's total workload). id's own demand staircase is
// version-checked (arrVer), so id needs no mark: whoever evaluates it
// next rebuilds the staircase.
func (st *state) dirtyDemandReaders(id int, dirty []bool) {
	for _, o := range st.topo.DemandReaders(id) {
		dirty[o] = true
	}
}

// iterDemandLo returns the workload staircase built from subjob id's late
// arrivals, rebuilding only when the arrivals moved since the cached
// build (version counter bumped by the ArrLate merges).
func (st *state) iterDemandLo(id int, r model.SubjobRef) *curve.Curve {
	if st.demandLo[id] == nil || st.demandLoVer[id] != st.arrVer[id] {
		hop := &st.hops[r.Job][r.Hop]
		st.demandLo[id] = curve.Staircase(finiteTimes(hop.ArrLate), st.sys.Subjob(r).Exec)
		st.demandLoVer[id] = st.arrVer[id]
		st.lim.Charge(st.demandLo[id])
	}
	return st.demandLo[id]
}

// iterDemandHi returns the workload staircase built from subjob id's
// early arrivals; those are pinned for the whole iteration, so it is
// built at most once.
func (st *state) iterDemandHi(id int, r model.SubjobRef) *curve.Curve {
	if st.demandHi[id] == nil {
		hop := &st.hops[r.Job][r.Hop]
		st.demandHi[id] = curve.Staircase(hop.ArrEarly, st.sys.Subjob(r).Exec)
		st.lim.Charge(st.demandHi[id])
	}
	return st.demandHi[id]
}

// iterateSubjob recomputes one subjob from the current bound vector and
// merges the result monotonically. It reports whether the subjob's
// service bounds moved, whether its latest departures moved (its
// precedence successors must re-pull), whether its own late arrivals
// moved (its demand readers must re-fold), and whether anything at all
// changed.
func (st *state) iterateSubjob(r model.SubjobRef) (svcChanged, depChanged, arrChanged, changed bool) {
	sys, topo := st.sys, st.topo
	sj := sys.Subjob(r)
	hop := &st.hops[r.Job][r.Hop]
	id := topo.ID(r)
	// Pull the joined late arrivals from the precedence predecessors'
	// current latest departures. Predecessors not yet evaluated (possible
	// within a cycle) have no departure vector and contribute nothing this
	// round — the pinned optimistic start stands in, and their first
	// evaluation dirties this hop again through JobSuccs. The sync
	// transform runs on the merged vector (ReleaseGuard applied per edge
	// and merged afterwards would under-estimate), and every partial join
	// is elementwise below the final one, so the monotone merge never
	// overshoots the fixed point.
	var scratch [1]int
	job := &sys.Jobs[r.Job]
	if preds := job.HopPreds(r.Hop, &scratch); len(preds) > 0 {
		ready := true
		for _, p := range preds {
			if st.hops[r.Job][p].DepLate == nil {
				ready = false
				break
			}
		}
		if ready {
			joined := sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks {
				return st.hops[r.Job][p].DepLate
			})
			if mergeLate(hop.ArrLate, joined) {
				st.arrVer[id]++
				arrChanged = true
				changed = true
			}
		}
	}
	demandLo := st.iterDemandLo(id, r)
	demandHi := st.iterDemandHi(id, r)
	oldLo, oldHi := hop.SvcLo, hop.SvcHi

	// Per-evaluation arena for the transform intermediates. No Memo: the
	// provisional inputs of a cyclic sweep must not be baked into shared
	// sums (see sched.Memo).
	sc := curve.GetScratch()
	defer curve.PutScratch(sc)
	// Policy dispatch against the current bound vector. Demand accessors
	// hand out the version-checked caches (the subjob's own pair was
	// resolved above); Service hands out whatever this Gauss-Seidel sweep
	// has so far - nil before a neighbor's first evaluation, which the
	// policies treat as "assume nothing" (see sched.ServiceContext).
	ctx := &sched.ServiceContext{
		Sys: sys, Topo: topo, Ref: r,
		Demand: func(o model.SubjobRef) (*curve.Curve, *curve.Curve) {
			if o == r {
				return demandLo, demandHi
			}
			oid := topo.ID(o)
			return st.iterDemandLo(oid, o), st.iterDemandHi(oid, o)
		},
		Service: st.serviceFn,
		Scratch: sc,
	}
	hop.SvcLo, hop.SvcHi = sched.For(sys.Procs[sj.Proc].Sched).ServiceBounds(ctx)
	st.lim.Charge(hop.SvcLo, hop.SvcHi)
	svcChanged = !hop.SvcLo.Equal(oldLo) || !hop.SvcHi.Equal(oldHi)

	n := len(hop.ArrEarly)
	depLate := hop.SvcLo.CompletionTimes(sj.Exec, n)
	if hop.DepLate == nil {
		hop.DepLate = make([]model.Ticks, n)
		copy(hop.DepLate, depLate)
		depChanged = true
		changed = true
	}
	for i := 0; i < n; i++ {
		// Monotone merge: late bounds only grow. Early bounds stay at
		// their pinned sound values (see Iterative).
		if depLate[i] > hop.DepLate[i] || (curve.IsInf(depLate[i]) && !curve.IsInf(hop.DepLate[i])) {
			hop.DepLate[i] = depLate[i]
			depChanged = true
			changed = true
		}
	}

	// Local response per Equation (12).
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
	return svcChanged, depChanged, arrChanged, changed
}

// mergeLate raises dst elementwise to at least src; reports change.
func mergeLate(dst, src []model.Ticks) bool {
	changed := false
	for i := range dst {
		if curve.IsInf(src[i]) && !curve.IsInf(dst[i]) {
			dst[i] = curve.Inf
			changed = true
			continue
		}
		if !curve.IsInf(src[i]) && src[i] > dst[i] && !curve.IsInf(dst[i]) {
			dst[i] = src[i]
			changed = true
		}
	}
	return changed
}
