// Package sim is a discrete-event simulator for the distributed real-time
// systems of the paper's Section 3: jobs flow through precedence DAGs of
// subjobs on processors (chains when no explicit precedence is given),
// with direct synchronization — a subjob instance is released the moment
// the last of its predecessors completes (the join), and a completion
// releases every successor (the fork).
//
// The per-processor scheduling discipline is dispatched through the sched
// policy registry: the policy supplies the queue-pick order, preemptivity
// and (for slotted disciplines) wall-clock availability gating, so the
// event loop itself is discipline-agnostic.
//
// The simulator is the ground truth for the analyses: the SPP exact
// analysis (Theorems 1-3) must reproduce its response times instance by
// instance, and the approximate analyses (Theorems 4-9) must dominate
// them. Its tie-breaking rules are deterministic and shared with the
// analysis packages: the policy order first, then (job, hop, instance) -
// so priority ties resolve by (job, hop), FCFS arrival ties by (arrival
// time, job, hop, instance), and all instances of one subjob are served in
// release order.
package sim

import (
	"container/heap"
	"context"
	"fmt"

	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/sched"
)

// Segment is one contiguous stretch of execution of a subjob instance on
// its processor; preemptions split an instance into several segments.
type Segment struct {
	Job, Hop, Idx int
	From, To      model.Ticks
}

// Result holds everything the simulation observed.
type Result struct {
	// Response[k][i] is the end-to-end response time of instance i of job
	// k: completion of its last sink hop minus the job release.
	Response [][]model.Ticks
	// Arrival[k][j][i] is the release time of instance i of subjob (k,j).
	Arrival [][][]model.Ticks
	// Departure[k][j][i] is the completion time of instance i of subjob
	// (k,j).
	Departure [][][]model.Ticks
	// BusyUntil[p] is the time processor p last finished executing work.
	BusyUntil []model.Ticks
	// Segments[p] is the execution timeline of processor p in
	// chronological order (adjacent, gap-free segments indicate a busy
	// processor; preempted instances appear in multiple segments).
	Segments [][]Segment
}

// WorstResponse returns the largest observed end-to-end response time of
// job k.
func (r *Result) WorstResponse(k int) model.Ticks {
	var w model.Ticks
	for _, d := range r.Response[k] {
		if d > w {
			w = d
		}
	}
	return w
}

// instance identifies one in-flight subjob instance.
type instance struct {
	job, hop, idx int
	arrived       model.Ticks // release time at this hop
	remaining     model.Ticks // execution time still owed
}

// executed returns the execution progress of the instance.
func (in *instance) executed(sys *model.System) model.Ticks {
	return sys.Jobs[in.job].Subjobs[in.hop].Exec - in.remaining
}

// event is a scheduled state change.
type event struct {
	at   model.Ticks
	kind int // evRelease or evComplete
	// evRelease:
	inst *instance
	// evComplete:
	proc int
	seq  uint64 // dispatch sequence number; stale events are ignored
}

const (
	evComplete = 0 // completions sort before releases at equal times
	evRelease  = 1
	evBoundary = 2 // critical-section or availability-window boundary: suspends the running instance
	evWake     = 3 // gated processor becomes available: forces a re-dispatch
)

// eventQueue is a time-ordered min-heap of events.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].kind < q[b].kind
}
func (q eventQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// readyQueue orders ready instances according to the processor's
// registered scheduling policy: the policy's discipline-specific rule
// first (e.g. IPCP-effective priority, or arrival order with the optional
// random tie-break), then the deterministic (job, hop, idx) order shared
// with the analyses.
type readyQueue struct {
	sys   *model.System
	pol   sched.Policy
	ctx   *sched.SimContext
	items []*instance
}

// view converts an in-flight instance to the policy-facing value. extra is
// the execution progress not yet folded into remaining (non-zero only for
// the currently running instance, whose remaining is updated lazily).
func (q *readyQueue) view(in *instance, extra model.Ticks) sched.Instance {
	return sched.Instance{
		Job: in.job, Hop: in.hop, Idx: in.idx,
		Arrived: in.arrived, Executed: in.executed(q.sys) + extra,
	}
}

// instLess is the deterministic (job, hop, idx) tie-break.
func instLess(x, y *instance) bool {
	if x.job != y.job {
		return x.job < y.job
	}
	if x.hop != y.hop {
		return x.hop < y.hop
	}
	return x.idx < y.idx
}

// before reports whether x is dispatched before y: the policy's strict
// order, with ties falling to (job, hop, idx).
func (q *readyQueue) before(x, y *instance) bool {
	if q.pol.Order(q.ctx, q.view(x, 0), q.view(y, 0)) {
		return true
	}
	if q.pol.Order(q.ctx, q.view(y, 0), q.view(x, 0)) {
		return false
	}
	return instLess(x, y)
}

func (q readyQueue) Len() int { return len(q.items) }
func (q readyQueue) Less(a, b int) bool {
	return (&q).before(q.items[a], q.items[b])
}
func (q readyQueue) Swap(a, b int)       { q.items[a], q.items[b] = q.items[b], q.items[a] }
func (q *readyQueue) Push(x interface{}) { q.items = append(q.items, x.(*instance)) }
func (q *readyQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// procState is the runtime state of one processor.
type procState struct {
	ready     readyQueue
	running   *instance
	startedAt model.Ticks
	seq       uint64
	busyUntil model.Ticks
}

// Run simulates the system until every released instance has completed its
// last hop, and returns the observed arrival, departure and response
// times. The system must be valid: Run panics on an invalid one (legacy
// convenience for code that already validated). RunErr / RunOpts return
// the error instead and are what request-serving callers should use.
func Run(sys *model.System) *Result {
	return mustRun(sys, Options{})
}

// Options tunes one simulation run.
type Options struct {
	// Context cancels the event loop between timestamp batches; the run
	// returns an error wrapping ctx.Err(). Nil means context.Background.
	Context context.Context
	// Exec overrides per-instance execution times (see ExecTimes); nil
	// means full WCET everywhere.
	Exec ExecTimes
	// TieBreak orders instances arriving at the same instant on a FCFS
	// processor by these per-instance keys instead of the deterministic
	// (job, hop, idx) order; nil keeps the deterministic order. The paper
	// notes FCFS "arbitrarily picks" among simultaneous arrivals, and the
	// analysis bounds must dominate every choice.
	TieBreak func(job, hop, idx int) int64
}

// RunErr is Run with errors instead of panics: an invalid system, a bad
// exec override or an internal invariant violation surfaces as a non-nil
// error, never as a panic.
func RunErr(sys *model.System) (*Result, error) { return RunOpts(sys, Options{}) }

// RunOpts is RunErr with options. Validation errors are reported before
// the simulation starts; anything that panics past that boundary returns
// as a *fault.InternalError.
func RunOpts(sys *model.System, opts Options) (res *Result, err error) {
	if verr := sys.Validate(); verr != nil {
		return nil, fmt.Errorf("sim: invalid system: %w", verr)
	}
	defer fault.Boundary("sim.Run", &err)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, sys, opts.Exec, opts.TieBreak)
}

// mustRun backs the legacy panicking entry points.
func mustRun(sys *model.System, opts Options) *Result {
	res, err := RunOpts(sys, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecTimes overrides per-instance execution times: ExecTimes(k, j, i)
// returns the actual execution time of instance i of subjob (k,j), which
// must lie in [1, Subjobs[j].Exec]. Used to study sustainability: the
// analyses bound the schedule in which every instance consumes its full
// WCET, and distributed schedules are NOT sustainable - an instance
// finishing early can make another instance finish later (see the
// sustainability tests). nil means full WCET everywhere.
type ExecTimes func(job, hop, idx int) model.Ticks

// run is the event loop proper; the system was validated by RunOpts.
func run(ctx context.Context, sys *model.System, exec ExecTimes, tieKey func(job, hop, idx int) int64) (*Result, error) {
	res := &Result{
		Response:  make([][]model.Ticks, len(sys.Jobs)),
		Arrival:   make([][][]model.Ticks, len(sys.Jobs)),
		Departure: make([][][]model.Ticks, len(sys.Jobs)),
		BusyUntil: make([]model.Ticks, len(sys.Procs)),
		Segments:  make([][]Segment, len(sys.Procs)),
	}
	for k := range sys.Jobs {
		n := len(sys.Jobs[k].Releases)
		res.Response[k] = make([]model.Ticks, n)
		res.Arrival[k] = make([][]model.Ticks, len(sys.Jobs[k].Subjobs))
		res.Departure[k] = make([][]model.Ticks, len(sys.Jobs[k].Subjobs))
		for j := range sys.Jobs[k].Subjobs {
			res.Arrival[k][j] = make([]model.Ticks, n)
			res.Departure[k][j] = make([]model.Ticks, n)
		}
	}

	// Policy-facing context: priority ceilings of the shared resources
	// (IPCP) from the cached topology index (read-only shared map), plus
	// the optional random tie-break.
	topo := sys.Topology()
	simctx := &sched.SimContext{Sys: sys, Ceilings: topo.Ceilings(), TieKey: tieKey}

	procs := make([]*procState, len(sys.Procs))
	pols := make([]sched.Policy, len(sys.Procs))
	for p := range procs {
		pols[p] = sched.For(sys.Procs[p].Sched)
		procs[p] = &procState{ready: readyQueue{sys: sys, pol: pols[p], ctx: simctx}}
	}

	// lastRelease[k][j] tracks the previous release instant per hop for
	// the release-guard policy (-1 = none yet).
	lastRelease := make([][]model.Ticks, len(sys.Jobs))
	for k := range sys.Jobs {
		lastRelease[k] = make([]model.Ticks, len(sys.Jobs[k].Subjobs))
		for j := range lastRelease[k] {
			lastRelease[k][j] = -1
		}
	}

	// Precedence bookkeeping. A non-source hop instance is released when
	// the LAST of its predecessors completes: joinLeft[k][j][i] counts the
	// predecessors still owed and joinAt[k][j][i] accumulates the running
	// max of completion-plus-PostDelay contributions (the sync policy then
	// transforms the joined instant, exactly as model.JoinReleases does).
	// A completion forks to every successor hop; the per-instance response
	// closes when the last sink hop completes.
	var scratch [1]int
	succs := make([][][]int, len(sys.Jobs))
	joinLeft := make([][][]int, len(sys.Jobs))
	joinAt := make([][][]model.Ticks, len(sys.Jobs))
	isSink := make([][]bool, len(sys.Jobs))
	sinkLeft := make([][]int, len(sys.Jobs))
	sinkMax := make([][]model.Ticks, len(sys.Jobs))
	for k := range sys.Jobs {
		job := &sys.Jobs[k]
		nh := len(job.Subjobs)
		n := len(job.Releases)
		succs[k] = make([][]int, nh)
		joinLeft[k] = make([][]int, nh)
		joinAt[k] = make([][]model.Ticks, nh)
		isSink[k] = make([]bool, nh)
		for j := 0; j < nh; j++ {
			preds := job.HopPreds(j, &scratch)
			for _, p := range preds {
				succs[k][p] = append(succs[k][p], j)
			}
			if len(preds) > 0 {
				joinLeft[k][j] = make([]int, n)
				joinAt[k][j] = make([]model.Ticks, n)
				for i := range joinLeft[k][j] {
					joinLeft[k][j][i] = len(preds)
				}
			}
		}
		sinks := topo.Sinks(k)
		for _, j := range sinks {
			isSink[k][j] = true
		}
		sinkLeft[k] = make([]int, n)
		sinkMax[k] = make([]model.Ticks, n)
		for i := range sinkLeft[k] {
			sinkLeft[k][i] = len(sinks)
		}
	}

	actualExec := func(k, j, i int) (model.Ticks, error) {
		e := sys.Jobs[k].Subjobs[j].Exec
		if exec != nil {
			a := exec(k, j, i)
			if a < 1 || a > e {
				return 0, fmt.Errorf("sim: exec override for T_{%d,%d} #%d out of [1,%d]: got %d", k+1, j+1, i, e, a)
			}
			e = a
		}
		return e, nil
	}

	var q eventQueue
	for k := range sys.Jobs {
		for _, j := range topo.Sources(k) {
			for i, t := range sys.Jobs[k].Releases {
				rem, err := actualExec(k, j, i)
				if err != nil {
					return nil, err
				}
				heap.Push(&q, &event{at: t, kind: evRelease, inst: &instance{
					job: k, hop: j, idx: i, arrived: t,
					remaining: rem,
				}})
			}
		}
	}

	// dispatch re-evaluates who should run on processor p at time now.
	dispatch := func(p int, now model.Ticks) {
		ps := procs[p]
		pol := pols[p]
		if ps.ready.Len() == 0 && ps.running == nil {
			return
		}
		// Preemptive disciplines: displace the running instance when the
		// head of the queue is dispatched strictly before it (policy order,
		// ties to the deterministic (job, hop, idx) order).
		if pol.Preemptive() && ps.running != nil && ps.ready.Len() > 0 {
			top := ps.ready.items[0]
			cur := ps.running
			vt := ps.ready.view(top, 0)
			vc := ps.ready.view(cur, now-ps.startedAt)
			preempt := pol.Order(simctx, vt, vc) ||
				(!pol.Order(simctx, vc, vt) && instLess(top, cur))
			if preempt {
				cur.remaining -= now - ps.startedAt
				if now > ps.startedAt {
					res.Segments[p] = append(res.Segments[p], Segment{
						Job: cur.job, Hop: cur.hop, Idx: cur.idx,
						From: ps.startedAt, To: now,
					})
				}
				ps.running = nil
				ps.seq++
				heap.Push(&ps.ready, cur)
			}
		}
		if ps.running != nil || ps.ready.Len() == 0 {
			return
		}
		var next *instance
		var windowEnd model.Ticks = -1
		if gated, isGated := pol.(sched.Gated); !isGated {
			next = heap.Pop(&ps.ready).(*instance)
		} else {
			// Availability-gated disciplines: pick the best ready
			// instance whose window is open; when none is, sleep until
			// the earliest window opening among the waiters.
			bestIdx := -1
			var wake model.Ticks = -1
			for i, in := range ps.ready.items {
				open, nx := gated.Gate(sys, model.SubjobRef{Job: in.job, Hop: in.hop}, now)
				if open {
					if bestIdx < 0 || ps.ready.before(in, ps.ready.items[bestIdx]) {
						bestIdx, windowEnd = i, nx
					}
				} else if wake < 0 || nx < wake {
					wake = nx
				}
			}
			if bestIdx < 0 {
				heap.Push(&q, &event{at: wake, kind: evWake, proc: p})
				return
			}
			next = heap.Remove(&ps.ready, bestIdx).(*instance)
		}
		ps.running = next
		ps.startedAt = now
		ps.seq++
		heap.Push(&q, &event{at: now + next.remaining, kind: evComplete, proc: p, seq: ps.seq})
		// The instance is suspended when its availability window closes
		// before it completes; the boundary handler requeues it and the
		// wake at the next opening resumes it.
		if windowEnd >= 0 && windowEnd < now+next.remaining {
			heap.Push(&q, &event{at: windowEnd, kind: evBoundary, proc: p, seq: ps.seq})
		}
		// Under preemptive disciplines, the effective priority changes at
		// critical-section boundaries; schedule a re-dispatch at the first
		// one ahead.
		if pol.Preemptive() {
			sj := &sys.Jobs[next.job].Subjobs[next.hop]
			if len(sj.CS) > 0 {
				done := next.executed(sys)
				var delta model.Ticks = -1
				for _, cs := range sj.CS {
					for _, at := range [2]model.Ticks{cs.Start, cs.Start + cs.Duration} {
						if at > done && (delta < 0 || at-done < delta) {
							delta = at - done
						}
					}
				}
				if delta > 0 && delta < next.remaining {
					heap.Push(&q, &event{at: now + delta, kind: evBoundary, proc: p, seq: ps.seq})
				}
			}
		}
	}

	dirty := map[int]bool{}
	for q.Len() > 0 {
		// Cancellation between timestamp batches: a batch is the atomic
		// unit of the simulation, so stopping here leaves no half-applied
		// state behind (the partial Result is simply discarded).
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("sim: %w", cerr)
		}
		now := q[0].at
		// Drain the batch at this timestamp: completions first (they may
		// cascade same-time releases, which sort after completions and
		// land in the same batch), then releases, then dispatch.
		for q.Len() > 0 && q[0].at == now {
			e := heap.Pop(&q).(*event)
			switch e.kind {
			case evComplete:
				ps := procs[e.proc]
				if e.seq != ps.seq || ps.running == nil {
					continue // stale: the dispatch changed since scheduling
				}
				done := ps.running
				ps.running = nil
				ps.seq++
				ps.busyUntil = now
				res.Segments[e.proc] = append(res.Segments[e.proc], Segment{
					Job: done.job, Hop: done.hop, Idx: done.idx,
					From: ps.startedAt, To: now,
				})
				res.Departure[done.job][done.hop][done.idx] = now
				dirty[e.proc] = true
				job := &sys.Jobs[done.job]
				for _, h := range succs[done.job][done.hop] {
					// Fork: this completion (plus the hop's constant
					// communication latency) contributes to the join of
					// every successor; the last contribution releases it,
					// transformed by the synchronization policy.
					if cand := now + job.Subjobs[done.hop].PostDelay; cand > joinAt[done.job][h][done.idx] {
						joinAt[done.job][h][done.idx] = cand
					}
					if joinLeft[done.job][h][done.idx]--; joinLeft[done.job][h][done.idx] > 0 {
						continue
					}
					at := joinAt[done.job][h][done.idx]
					switch job.Sync {
					case model.PhaseModification:
						if nominal := job.Releases[done.idx] + job.Phases[h]; nominal > at {
							at = nominal
						}
					case model.ReleaseGuard:
						if prev := lastRelease[done.job][h]; prev >= 0 && prev+job.Period > at {
							at = prev + job.Period
						}
					}
					if job.Sync == model.ReleaseGuard {
						lastRelease[done.job][h] = at
					}
					rem, err := actualExec(done.job, h, done.idx)
					if err != nil {
						return nil, err
					}
					heap.Push(&q, &event{at: at, kind: evRelease, inst: &instance{
						job: done.job, hop: h, idx: done.idx, arrived: at,
						remaining: rem,
					}})
				}
				if isSink[done.job][done.hop] {
					if now > sinkMax[done.job][done.idx] {
						sinkMax[done.job][done.idx] = now
					}
					if sinkLeft[done.job][done.idx]--; sinkLeft[done.job][done.idx] == 0 {
						res.Response[done.job][done.idx] = sinkMax[done.job][done.idx] - job.Releases[done.idx]
					}
				}
			case evRelease:
				in := e.inst
				res.Arrival[in.job][in.hop][in.idx] = now
				p := sys.Jobs[in.job].Subjobs[in.hop].Proc
				heap.Push(&procs[p].ready, in)
				dirty[p] = true
			case evBoundary:
				ps := procs[e.proc]
				if e.seq != ps.seq || ps.running == nil {
					continue // stale
				}
				cur := ps.running
				cur.remaining -= now - ps.startedAt
				if now > ps.startedAt {
					res.Segments[e.proc] = append(res.Segments[e.proc], Segment{
						Job: cur.job, Hop: cur.hop, Idx: cur.idx,
						From: ps.startedAt, To: now,
					})
				}
				ps.running = nil
				ps.seq++
				heap.Push(&ps.ready, cur)
				dirty[e.proc] = true
			case evWake:
				dirty[e.proc] = true
			}
		}
		for p := range dirty {
			dispatch(p, now)
			delete(dirty, p)
		}
	}
	for p := range procs {
		res.BusyUntil[p] = procs[p].busyUntil
	}
	return res, nil
}
