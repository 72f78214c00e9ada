package analysis

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
)

// Iterative implements the extension sketched in the paper's conclusion
// for systems whose subjob dependencies form cycles - "physical loops"
// (a job revisiting a processor) and "logical loops" (jobs disturbing each
// other across processors so that no dependency order exists). It is the
// same sweep as Approximate over the strongly connected components of the
// dependency graph (model.Topology.Components), in dependency order:
//
//   - a component that is one subjob not reading its own outputs is
//     evaluated once from final inputs, exactly as Approximate does, so on
//     an acyclic system Iterative equals Approximate field for field;
//   - a cyclic component treats its members' unknown arrival bounds as a
//     vector X and the per-subjob evaluation as a function F, and
//     approaches the fixed point of X = F(X) by Kleene iteration from an
//     optimistic start (see pinComponent): the early arrival and departure
//     bounds are pinned at provably sound values and never iterated - an
//     "improved" early bound computed from not-yet-converged late bounds
//     is not trustworthy, and merging it in would bake the unsoundness
//     into the fixed point - while the late bounds start equal to the
//     early ones and are merged monotonically (never decreasing) until
//     the component's worklist is empty.
//
// A cyclic component diverges when maxRounds of its rounds move a merge
// (zero selects 64): its bounds cannot certify the loop to drain. The jobs owning a subjob in the dependents-closure of its
// members report an infinite WCRT, while jobs outside that closure keep
// their finite bounds.
//
// The paper presents this scheme as future work without a soundness
// proof; this implementation follows its sketch and is validated
// empirically against the discrete-event simulator (see the package
// tests).
func Iterative(sys *model.System, maxRounds int) (*Result, error) {
	return IterativeOpts(sys, maxRounds, Options{})
}

// IterativeOpts is Iterative with execution options. Components whose
// prerequisites are done are evaluated concurrently by up to
// Options.Workers goroutines; a cyclic component iterates in Gauss-Seidel
// order (ascending id, each evaluation feeding the next) on one of them,
// so results are field-identical at every worker count.
func IterativeOpts(sys *model.System, maxRounds int, opts Options) (res *Result, err error) {
	defer fault.Boundary("analysis.Iterative", &err)
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	rv, err := analyzeCold(sys, modeIterative, maxRounds, opts)
	return rv.res, err
}

// errDiverged reports a cyclic component that did not converge.
var errDiverged = errors.New("analysis: iteration did not converge; affected jobs reported unschedulable")

// fixpoint is the per-sweep bookkeeping of an iterative run.
type fixpoint struct {
	rounds   int   // merge-moving rounds a cyclic component may take
	maxSteps int64 // Budget.FixedPointSteps; 0 = unlimited
	steps    atomic.Int64
	// unsettled marks, per subjob id, the members of a cyclic component
	// that has not converged (yet); nil on acyclic topologies. Each
	// component writes only its own members' entries.
	unsettled []bool
}

// step counts one subjob evaluation against Budget.FixedPointSteps and
// panics an error wrapping ErrBudgetExceeded past the ceiling. Nil-safe:
// the acyclic engines do not count.
func (f *fixpoint) step() {
	if f == nil || f.maxSteps <= 0 {
		return
	}
	if f.steps.Add(1) > f.maxSteps {
		panic(fmt.Errorf("fixed-point step budget of %d exceeded: %w", f.maxSteps, ErrBudgetExceeded))
	}
}

// settle stamps curve.Inf on every job owning a subjob in the
// dependents-closure of the unsettled members: exactly the jobs whose
// bounds the sweep cannot certify. It reports whether any were stamped.
func (f *fixpoint) settle(topo *model.Topology, res *Result) bool {
	var seeds []int
	for id, u := range f.unsettled {
		if u {
			seeds = append(seeds, id)
		}
	}
	if len(seeds) == 0 {
		return false
	}
	ids, _ := dependentsClosure(topo, seeds)
	for _, id := range ids {
		k := topo.Subjobs()[id].Job
		res.WCRT[k] = curve.Inf
		res.WCRTSum[k] = curve.Inf
	}
	return true
}

// componentUnits groups ids, a union of whole components of a cyclic
// topology, into the units the sweep dispatches: component indices into
// comps, with the condensed dependency edges. An edge between two members
// of different components appears once in each direction, so par.Run's
// ready counts balance without deduplication. eval runs a singleton
// component as one evaluation and a cyclic one to its fixed point.
func (st *state) componentUnits(ctx context.Context, ids []int, comps [][]int) (units []int, deps, dependents func(int) []int, eval func(int)) {
	topo := st.topo
	of := make([]int, len(topo.Subjobs()))
	for c, comp := range comps {
		for _, id := range comp {
			of[id] = c
		}
	}
	for _, id := range ids {
		if comps[of[id]][0] == id {
			units = append(units, of[id])
		}
	}
	slices.Sort(units)
	condense := func(edges func(int) []int) func(int) []int {
		return func(c int) []int {
			var out []int
			for _, m := range comps[c] {
				for _, d := range edges(m) {
					if of[d] != c {
						out = append(out, of[d])
					}
				}
			}
			return out
		}
	}
	eval = func(c int) {
		comp := comps[c]
		if len(comp) == 1 && !slices.Contains(topo.Deps(comp[0]), comp[0]) {
			st.evalSubjob(comp[0], false)
			return
		}
		st.iterateComponent(ctx, comp)
	}
	return units, condense(topo.Deps), condense(topo.Dependents), eval
}

// evalSubjob runs computeSubjob on subjob id under a fault tag carrying
// its coordinates.
func (st *state) evalSubjob(id int, cyclic bool) (svcMoved, depMoved bool) {
	r := st.topo.Subjobs()[id]
	fault.Tag(r.Job, r.Hop, st.sys.Subjob(r).Proc, func() {
		svcMoved, depMoved = st.computeSubjob(r, cyclic)
	})
	return svcMoved, depMoved
}

// iterateComponent runs the Kleene iteration of one cyclic component:
// Gauss-Seidel rounds over the members in ascending id, each round
// evaluating the members whose inputs moved since their last evaluation.
// A subjob's inputs move when a precedence predecessor's late departures
// do (its join must be re-pulled), when a service dependency's bounds do
// (SPP/SPNP interference), or when a co-located demand dependency's late
// arrivals do (FCFS, Equation 21). Members evaluated with unchanged inputs
// would reproduce their state exactly, so skipping them is unobservable.
// The arrivals of a satellite (see pinComponent) are re-pulled whenever a
// predecessor's late departures move, and mark its member readers.
// The component converges when the worklist is empty; a round in which
// no merge moves does not count toward the round budget (service curves
// settle in finitely many such rounds, the priority order being strict).
// Readers outside the component depend on it and run only afterwards, so
// they see settled rows. A cancelled ctx stops the iteration between
// evaluations; par.Run then reports the cancellation.
func (st *state) iterateComponent(ctx context.Context, comp []int) {
	fix, topo := st.fix, st.topo
	for _, id := range comp {
		fix.unsettled[id] = true
	}
	sats := st.pinComponent(comp)
	dirty := make([]bool, len(comp))
	for i := range dirty {
		dirty[i] = true
	}
	pending := len(comp)
	mark := func(ids []int) {
		for _, o := range ids {
			if i, in := slices.BinarySearch(comp, o); in && !dirty[i] {
				dirty[i] = true
				pending++
			}
		}
	}
	for rounds := 0; pending > 0; {
		moved := false
		for i, id := range comp {
			if !dirty[i] {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			dirty[i] = false
			pending--
			arrMoved := st.pullLate(id)
			svcMoved, depMoved := st.evalSubjob(id, true)
			if arrMoved {
				mark(topo.DemandReaders(id))
			}
			if svcMoved {
				mark(topo.ServiceReaders(id))
			}
			if depMoved {
				mark(topo.JobSuccs(id))
				for _, s := range topo.JobSuccs(id) {
					if slices.Contains(sats, s) && st.pullLate(s) {
						mark(topo.DemandReaders(s))
					}
				}
			}
			moved = moved || arrMoved || depMoved
		}
		if moved {
			if rounds++; rounds == fix.rounds {
				return // diverged: the members stay unsettled
			}
		}
	}
	for _, id := range comp {
		fix.unsettled[id] = false
	}
}

// pinComponent resets the members of a cyclic component to freshly
// allocated rows holding the optimistic start of the Kleene iteration,
// visiting each job's members in precedence order. A member whose
// arrivals join only final rows (a source, or every predecessor outside
// the component) resolves them the acyclic way (ensureArrivals); they
// never move during the iteration. Any other member is pinned by pinJoin.
// Every member pins its early departures to its early arrivals plus its
// execution time: sound lower bounds that the iteration never revisits.
//
// It also pins, and returns, the component's satellites: subjobs outside
// it whose arrivals join a member's departures and whose demand a member
// reads (a co-located FCFS subjob, Equation 21). Their arrivals move with
// the iteration although they are evaluated only after it. Every
// predecessor of a satellite is a member or upstream of the reading
// member, so its rows are pinned or final here, and no other component
// running concurrently touches it.
func (st *state) pinComponent(comp []int) (sats []int) {
	sys, topo := st.sys, st.topo
	refs := topo.Subjobs()
	member := func(id int) bool {
		_, in := slices.BinarySearch(comp, id)
		return in
	}
	var scratch [1]int
	for lo := 0; lo < len(comp); {
		k := refs[comp[lo]].Job
		base := topo.ID(model.SubjobRef{Job: k})
		job := &sys.Jobs[k]
		for _, j := range topo.HopOrder(k) {
			if !member(base + j) {
				continue
			}
			lo++
			r := refs[base+j]
			joinsMember := false
			for _, p := range job.HopPreds(j, &scratch) {
				joinsMember = joinsMember || member(base+p)
			}
			if joinsMember {
				st.pinJoin(r)
			} else {
				st.ensureArrivals(r)
			}
			hop := &st.hops[k][j]
			hop.DepEarly = make([]model.Ticks, len(hop.ArrEarly))
			for i, t := range hop.ArrEarly {
				if !curve.IsInf(t) {
					t += job.Subjobs[j].Exec
				}
				hop.DepEarly[i] = t
			}
			hop.DepLate, hop.SvcLo, hop.SvcHi = nil, nil, nil
		}
	}
	for _, m := range comp {
		for _, s := range topo.JobSuccs(m) {
			if member(s) || slices.Contains(sats, s) || !slices.ContainsFunc(topo.DemandReaders(s), member) {
				continue
			}
			sats = append(sats, s)
			st.pinJoin(refs[s])
		}
	}
	return sats
}

// pinJoin pins a hop's early arrivals to the join of its predecessors'
// early departures, starts its late arrivals equal to them, publishes its
// demand staircases and marks its arrivals resolved.
func (st *state) pinJoin(r model.SubjobRef) {
	var scratch [1]int
	hop := &st.hops[r.Job][r.Hop]
	preds := st.sys.Jobs[r.Job].HopPreds(r.Hop, &scratch)
	hop.ArrEarly = st.sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks {
		return st.hops[r.Job][p].DepEarly
	})
	hop.ArrLate = slices.Clone(hop.ArrEarly)
	st.publishDemand(r)
	atomic.StoreUint32(&st.arrState[st.topo.ID(r)], 1)
}

// pullLate re-joins the late arrivals of a cyclic member or satellite from
// its precedence predecessors' current late departures and merges them
// in; a moved merge republishes the hop's demand staircases. Until every
// predecessor has been evaluated once the pinned start stands in, and the
// first evaluation of the missing one pulls again. The sync transform
// runs on the joined vector (ReleaseGuard applied per edge and merged
// afterwards would under-estimate), and every partial join is elementwise
// below the final one, so the merge never overshoots the fixed point.
func (st *state) pullLate(id int) bool {
	r := st.topo.Subjobs()[id]
	var scratch [1]int
	preds := st.sys.Jobs[r.Job].HopPreds(r.Hop, &scratch)
	if len(preds) == 0 {
		return false
	}
	rows := st.hops[r.Job]
	for _, p := range preds {
		if rows[p].DepLate == nil {
			return false
		}
	}
	joined := st.sys.JoinReleases(r.Job, r.Hop, preds, func(p int) []model.Ticks { return rows[p].DepLate })
	if !mergeLate(rows[r.Hop].ArrLate, joined) {
		return false
	}
	st.publishDemand(r)
	return true
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
