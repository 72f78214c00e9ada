package analysis

// The one driver. Every analysis — the cold entry points (ExactOpts,
// ApproximateOpts, AnalyzeOpts, IterativeOpts), a Session's first or
// post-failure converge, and its warm re-converges — is resident.sweep:
// the paper's per-subjob map (Theorems 1-3 for SPP, Theorem 4 with
// Theorems 5-9 for the bounds) evaluated over a set of subjob ids in the
// order of the dependency graph's strongly connected components. On an
// acyclic graph every component is one subjob, evaluated once; the
// iterative engine also accepts cyclic components and iterates each to
// its fixed point (iterate.go). Cold analysis is analyzeCold: a fresh
// resident shell with every subjob seeded. A warm converge (convergeDelta)
// seeds only the dependents-closure of the staged changes over a
// copy-on-write clone of the resident fixed point.
//
// Why the warm sweep is bit-identical to the cold one: the dirty set is
// closed under Topology.Dependents, so every subjob OUTSIDE it has no
// (transitive) input that changed — its resident rows already equal what
// a cold sweep would compute — and a cyclic component lies wholly inside
// or wholly outside it. Every component INSIDE it is recomputed, in
// dependency order over the induced subgraph (par.Run), from inputs that
// are either final resident rows or final recomputed rows — the same
// inputs the cold sweep would see — by the same deterministic routine (a
// cyclic component restarts from freshly pinned rows). The memoized
// cross-subjob intermediates regroup exact integer sums over unique
// canonical curves (see sched.Memo), so sharing a still-valid memo prefix
// across converges changes nothing either. Results are field-identical
// at every worker count for the same reason: the sweep schedule is
// unobservable.

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/par"
	"rta/internal/sched"
	"rta/internal/spp"
)

// analyzeCold analyzes sys from scratch under mode: a fresh resident
// shell — source hops pinned to the release traces, everything else
// unanalyzed — swept with every subjob seeded. maxRounds is the iterative
// engine's round budget (see Iterative). The returned resident is not yet
// marked converged (needs stays set); rv.res holds the Result, partial on
// a budget trip or divergence during the sweep, nil on every other error.
// The approximate shell publishes its source demand staircases against
// the run's breakpoint budget, so a budget too small for those alone
// fails with no result at all.
func analyzeCold(sys *model.System, mode sessionMode, maxRounds int, opts Options) (rv resident, err error) {
	rv = resident{sys: sys, topo: sys.Topology(), mode: mode, rounds: maxRounds, needs: true}
	rv.memo = sched.NewMemo(rv.topo)
	lim := opts.limiter()
	if mode == modeExact {
		rv.ex = spp.NewResult(sys)
	} else if be := catchBudget(func() { rv.st = newState(sys, lim) }); be != nil {
		return rv, fmt.Errorf("analysis: %w", be)
	}
	all := make([]int, len(rv.topo.Subjobs()))
	for i := range all {
		all[i] = i
	}
	return rv, rv.sweep(all, nil, nil, opts, lim)
}

// sweep evaluates the per-subjob map over ids (sorted ascending, in
// rv.topo numbering, a union of whole components; every id a dirty subjob
// reads outside ids must hold its converged value) in component order on
// up to opts.workers() goroutines, then assembles rv.res from the
// refreshed rows. The acyclic engines refuse a cyclic topology with
// ErrCyclic. resetArr names source hops whose arrival rows are re-pinned
// from the release trace first; republish (approximate and iterative
// engines) names hops whose demand staircases are rebuilt first. lim
// meters the breakpoints and, under the iterative engine,
// opts.Budget.FixedPointSteps the evaluations: a trip leaves a partial
// rv.res flagged "(budget)" next to an error wrapping ErrBudgetExceeded,
// and a diverged component a partial rv.res flagged "(diverged)"; any
// other error (cancellation) leaves rv.res nil.
//
// Fault containment: every evaluation runs under a fault.Tag carrying the
// subjob's coordinates, so a panic (invariant violation or budget trip)
// surfaces with its analysis context; cancellation is observed by par.Run
// between items (and by a cyclic component between evaluations) and
// returns wrapping ctx.Err() after the in-flight evaluations drain.
func (rv *resident) sweep(ids, resetArr, republish []int, opts Options, lim *curve.Limiter) error {
	sys, topo, refs := rv.sys, rv.topo, rv.topo.Subjobs()
	comps, acyclic := topo.Components()
	if !acyclic && rv.mode != modeIterative {
		rv.res = nil
		return ErrCyclic
	}
	if rv.mode == modeExact {
		ex := rv.ex
		for _, id := range ids {
			// A warm row still holds the previous converge's departures; a
			// budget trip before its evaluation must report its job
			// unbounded, not that stale bound.
			r := refs[id]
			ex.Departure[r.Job][r.Hop] = nil
		}
		for _, id := range resetArr {
			r := refs[id]
			ex.Arrival[r.Job][r.Hop] = append([]model.Ticks(nil), sys.Jobs[r.Job].Releases...)
		}
		err := spp.Reanalyze(opts.ctx(), sys, rv.memo, ex, ids, opts.workers(), lim)
		rv.res = &Result{
			Method:  "SPP/Exact",
			WCRT:    append([]model.Ticks(nil), ex.WCRT...),
			WCRTSum: append([]model.Ticks(nil), ex.WCRT...),
			Exact:   ex,
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrBudgetExceeded):
			// Completed jobs keep their exact bounds, the rest already
			// report curve.Inf.
			rv.res.Method = "SPP/Exact(budget)"
		default:
			rv.res = nil
		}
		return err
	}

	st := rv.st
	st.lim, st.memo = lim, rv.memo
	budgetTag, ctx := "App(budget)", opts.ctx()
	if rv.mode == modeIterative {
		budgetTag = "App/Iterative(budget)"
		st.fix = &fixpoint{rounds: rv.rounds, maxSteps: opts.Budget.FixedPointSteps}
		if st.fix.rounds <= 0 {
			st.fix.rounds = 64
		}
		if !acyclic {
			st.fix.unsettled = make([]bool, len(refs))
		}
	}
	// Lazy-resolution guards: every row outside ids counts as resolved, and
	// so do the sources; the other seeded hops re-pull their arrival joins
	// from their predecessors' (refreshed or resident, either way final)
	// departure rows. Stale late departures are dropped as in the exact
	// branch.
	st.arrState = make([]uint32, len(refs))
	st.resolveMu = make([]sync.Mutex, len(refs))
	for i := range st.arrState {
		st.arrState[i] = 1
	}
	for _, id := range ids {
		r := refs[id]
		st.hops[r.Job][r.Hop].DepLate = nil
		if len(topo.JobPreds(id)) > 0 {
			st.arrState[id] = 0
		}
	}
	units, deps, dependents := ids, topo.Deps, topo.Dependents
	eval := func(id int) { st.evalSubjob(id, false) }
	if !acyclic {
		units, deps, dependents, eval = st.componentUnits(ctx, ids, comps)
	}
	var runErr error
	be := catchBudget(func() {
		// ArrEarly and ArrLate share one slice on source hops, exactly as
		// newState publishes them.
		for _, id := range resetArr {
			r := refs[id]
			rel := append([]model.Ticks(nil), sys.Jobs[r.Job].Releases...)
			st.hops[r.Job][r.Hop].ArrEarly = rel
			st.hops[r.Job][r.Hop].ArrLate = rel
		}
		for _, id := range republish {
			st.publishDemand(refs[id])
		}
		runErr = par.Run(ctx, units, deps, dependents, opts.workers(), eval)
	})
	if runErr != nil && be == nil {
		rv.res = nil
		return fmt.Errorf("analysis: %w", runErr)
	}
	// Jobs with an uncomputed hop report curve.Inf (see result), and so do
	// the jobs an unsettled cyclic component taints; the rest keep the
	// bounds already derived.
	rv.res = st.result()
	diverged := st.fix != nil && st.fix.settle(topo, rv.res)
	switch {
	case be != nil:
		rv.res.Method = budgetTag
		return fmt.Errorf("analysis: %w", be)
	case diverged:
		rv.res.Method = "App/Iterative(diverged)"
		return errDiverged
	}
	return nil
}

// fail drops the warm state after an engine error: the staged system is
// kept (Rollback still restores the committed base), but the next
// Converge runs cold.
func (s *Session) fail() { s.cur.warm = false }

// afterConverge re-anchors the delta bookkeeping on the state that just
// converged: subsequent staged changes diff against it, not against the
// last commit (mid-stage sequences like the Audsley trial loop converge
// several times per commit).
func (s *Session) afterConverge() {
	s.prev = s.cur
	s.prevMap = identityMap(len(s.cur.sys.Jobs))
	s.clearDelta()
}

func (s *Session) convergeLocked() (res *Result, err error) {
	defer func() {
		if err != nil {
			s.fail()
		}
	}()
	defer fault.Boundary("analysis.Session", &err)
	if !s.cur.needs {
		return s.cur.res, nil
	}
	sys := s.cur.sys
	if len(sys.Jobs) == 0 {
		// The empty job set of a fresh admission controller: vacuously
		// schedulable, nothing resident.
		s.cur = resident{sys: sys, mode: modeEmpty, res: &Result{Method: "Empty"}}
		s.afterConverge()
		return s.cur.res, nil
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	mode := modeApprox
	switch {
	case s.cfg.Engine == EngineIterative:
		mode = modeIterative
	case sched.ExactAll(sys) && !sys.HasResources():
		mode = modeExact
	}
	// A staged cycle under an acyclic engine reaches the sweep either way
	// and reports ErrCyclic exactly as AnalyzeOpts does.
	if s.cur.warm && mode == s.cur.mode {
		err = s.convergeDelta()
	} else {
		s.cur, err = analyzeCold(sys, mode, s.cfg.MaxRounds, s.cfg.Opts)
	}
	if err != nil {
		return s.cur.res, err // partial on budget/divergence, nil otherwise
	}
	s.cur.needs = false
	s.cur.warm = true
	s.afterConverge()
	return s.cur.res, nil
}

// convergeDelta re-converges the dependency cone of the staged changes
// over a copy-on-write clone of the resident fixed point.
func (s *Session) convergeDelta() error {
	sys, topo := s.cur.sys, s.cur.topo
	anchor := &s.prev

	// rev maps a current job index back to its anchor index (-1 for jobs
	// admitted since the anchor converged).
	rev := make([]int, len(sys.Jobs))
	for i := range rev {
		rev[i] = -1
	}
	for pk, ck := range s.prevMap {
		if ck >= 0 {
			rev[ck] = pk
		}
	}

	// Catch-all seeds the per-change rules cannot see locally: the cached
	// blocking terms (largest lower-priority execution / priority-ceiling
	// section on the processor) and, for position-dependent disciplines
	// (TDMA), the OnProc position — all functions of the whole processor
	// population, compared directly between the anchor index and the new
	// one. Surviving jobs keep their hop counts (Mutate enforces rigid
	// structure), so the per-hop comparison is total.
	for ck := range sys.Jobs {
		pk := rev[ck]
		if pk < 0 {
			continue // admitted this stage: every hop already seeded
		}
		for j := range sys.Jobs[ck].Subjobs {
			cr := model.SubjobRef{Job: ck, Hop: j}
			pr := model.SubjobRef{Job: pk, Hop: j}
			if topo.Blocking(cr) != anchor.topo.Blocking(pr) ||
				topo.PCPBlocking(cr) != anchor.topo.PCPBlocking(pr) {
				s.seed(topo.ID(cr))
				continue
			}
			info, _ := model.LookupScheduler(sys.Procs[sys.Subjob(cr).Proc].Sched)
			if info.PositionDependent && topo.OnProcPos(cr) != anchor.topo.OnProcPos(pr) {
				s.seed(topo.ID(cr))
			}
		}
	}

	// Dirty cone: the dependents-closure of the seeds.
	ids, inDirty := dependentsClosure(topo, setToSorted(s.seeds))

	// Memo retention: a priority-prefix entry survives when every leading
	// member before it is the same subjob at the same position as in the
	// anchor and none of them is dirty (clean members have bit-identical
	// service curves by the closure invariant); the FCFS totals survive
	// when the whole processor population is unchanged and clean.
	keepPrefix := make([]int, topo.Procs())
	keepFCFS := make([]bool, topo.Procs())
	same := func(cr model.SubjobRef, prevRef model.SubjobRef) bool {
		pk := rev[cr.Job]
		return pk >= 0 && prevRef == model.SubjobRef{Job: pk, Hop: cr.Hop} && !inDirty[topo.ID(cr)]
	}
	for p := 0; p < topo.Procs(); p++ {
		curBP, prevBP := topo.ByPriority(p), anchor.topo.ByPriority(p)
		m := 0
		for m < len(curBP) && m < len(prevBP) && same(curBP[m], prevBP[m]) {
			m++
		}
		keepPrefix[p] = m
		curOP, prevOP := topo.OnProc(p), anchor.topo.OnProc(p)
		ok := len(curOP) == len(prevOP)
		for i := 0; ok && i < len(curOP); i++ {
			ok = same(curOP[i], prevOP[i])
		}
		keepFCFS[p] = ok
	}

	// Copy-on-write: previously returned Results alias the resident arrays,
	// so this converge re-clones the outer spines and the rows of every
	// affected job before writing anything. Dirty ids always belong to
	// affected jobs, so the sweep only ever writes re-cloned rows.
	rv := &s.cur
	jobs := affectedJobs(topo, ids)
	if rv.mode == modeExact {
		ex := cloneExactOuter(rv.ex)
		for k := range jobs {
			ex.Arrival[k] = append([][]model.Ticks(nil), ex.Arrival[k]...)
			ex.Departure[k] = append([][]model.Ticks(nil), ex.Departure[k]...)
			ex.Service[k] = append([]*curve.Curve(nil), ex.Service[k]...)
			ex.Backlog[k] = append([]int(nil), ex.Backlog[k]...)
		}
		rv.ex = ex
	} else { // modeApprox, modeIterative
		st := rv.st.sessionClone()
		st.sys, st.topo = sys, topo
		for k := range jobs {
			st.hops[k] = append([]Hop(nil), st.hops[k]...)
		}
		rv.st = st
	}
	rv.memo = anchor.memo.Extend(topo, keepPrefix, keepFCFS)
	return rv.sweep(ids, setToSorted(s.resetArr), setToSorted(s.republish), s.cfg.Opts, s.cfg.Opts.limiter())
}

// dependentsClosure returns the subjob ids reachable from seeds along
// Topology.Dependents, seeds included, sorted ascending, together with
// their membership mask: the dirty cone of a warm converge, and the
// subjobs a diverged cyclic component taints.
func dependentsClosure(topo *model.Topology, seeds []int) (ids []int, in []bool) {
	in = make([]bool, len(topo.Subjobs()))
	for _, id := range seeds {
		if !in[id] {
			in[id] = true
			ids = append(ids, id)
		}
	}
	for qi := 0; qi < len(ids); qi++ {
		for _, d := range topo.Dependents(ids[qi]) {
			if !in[d] {
				in[d] = true
				ids = append(ids, d)
			}
		}
	}
	slices.Sort(ids)
	return ids, in
}

func setToSorted(set map[int]struct{}) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// affectedJobs returns the set of jobs owning a dirty subjob.
func affectedJobs(topo *model.Topology, ids []int) map[int]struct{} {
	out := make(map[int]struct{})
	for _, id := range ids {
		out[topo.Subjobs()[id].Job] = struct{}{}
	}
	return out
}
