// Warm-start analysis sessions: delta re-analysis for admission churn.
//
// A Session keeps one converged analysis resident — the per-subjob
// arrival/service/demand curves, the sched.Memo prefix chains and the
// assembled Result — and re-converges only the dependency cone of each
// staged change (admit, remove, parameter mutation) instead of recomputing
// the whole system. The results are bit-identical to a cold AnalyzeOpts of
// the same final system at every worker count by construction: cold
// analysis is the same sweep with every subjob seeded (see converge.go).
package analysis

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/sched"
	"rta/internal/spp"
)

// Engine selects the converge engine of a Session.
type Engine int

const (
	// EngineAuto picks the engine AnalyzeOpts does: exact when every
	// processor's policy is exact-capable and no resources are declared,
	// Theorem 4 otherwise; cyclic systems fail with ErrCyclic.
	EngineAuto Engine = iota
	// EngineIterative runs the fixed-point engine (IterativeOpts), which
	// also accepts cyclic systems. Its converges are warm like the others':
	// a cyclic component lies wholly inside or wholly outside a dirty cone
	// and is re-iterated from a fresh start when inside, so warm results
	// equal IterativeOpts on the same system.
	EngineIterative
)

// SessionConfig parameterizes a Session.
type SessionConfig struct {
	// Opts are the execution options of every converge (workers, context,
	// budget). The session guarantees identical results for every worker
	// count.
	Opts Options
	// Engine selects the converge engine; EngineAuto by default.
	Engine Engine
	// MaxRounds bounds the fixed point of each cyclic component
	// (EngineIterative only); zero selects the IterativeOpts default.
	MaxRounds int
}

// ErrNotConverged is returned by Result when the committed state holds
// staged or failed changes that have not been (re-)converged.
var ErrNotConverged = errors.New("analysis: session state not converged; call Converge")

// sessionMode records which engine produced the resident state.
type sessionMode int

const (
	modeNone sessionMode = iota
	modeEmpty
	modeExact
	modeApprox
	modeIterative
)

// resident is one self-consistent snapshot of a session: the system, its
// topology, and the converged artifacts of whichever engine analyzed it.
// All reference-typed fields are treated copy-on-write — a resident is
// copied by value (Checkpoint, staging, commit) and any later mutation
// replaces the arrays it touches instead of writing through them, so every
// previously returned Result and every saved checkpoint stays immutable.
type resident struct {
	sys  *model.System
	topo *model.Topology
	mode sessionMode
	// rounds is the iterative engine's round budget (see Iterative).
	rounds int
	// warm reports whether st/ex below hold a converged fixed point that
	// delta re-analysis may extend. Cleared on engine errors.
	warm bool
	// needs reports whether res is stale w.r.t. sys.
	needs bool
	// st is the approximate and iterative engines' state (modeApprox,
	// modeIterative), ex the exact engine's result (modeExact).
	st *state
	ex *spp.Result
	// memo holds the cross-subjob intermediates of every engine; a warm
	// converge extends the anchor's (sched.Memo.Extend).
	memo *sched.Memo
	// res is the assembled Result for sys; aliases st/ex internals.
	res *Result
}

// Session is a long-lived warm-start analysis over a churning job set.
//
// Changes are staged (Admit, Remove, Mutate), converged (Converge), and
// then either kept (Commit) or discarded (Rollback, restoring the last
// committed state in O(1)). Checkpoint/Restore save and restore whole
// committed states, which the Audsley trial loop uses.
//
// A Session is safe for concurrent use: mutators take the write lock,
// Result/Schedulable/System take the read lock, so concurrent readers see
// only committed, converged snapshots.
type Session struct {
	mu  sync.RWMutex
	cfg SessionConfig

	// base is the last committed resident; cur the staged working copy;
	// prev the most recently converged resident (the delta anchor — after
	// a converge-commit cycle prev == base, but mid-stage sequences like
	// Audsley converge several times between commits and each delta is
	// computed against the previous converge, not the last commit).
	base, cur, prev resident
	staged          bool
	// prevMap[k] is the cur-index of prev's job k, or -1 if removed.
	prevMap []int

	// Delta bookkeeping for the staged changes, in cur.topo numbering:
	// seeds are the subjob ids whose inputs changed (the dirty cone grows
	// from their dependents-closure), resetArr the source-hop ids whose
	// resident arrival rows must be re-pinned from the release trace, and
	// republish the ids whose demand staircases must be rebuilt before the
	// sweep (approximate engine only).
	seeds, resetArr, republish map[int]struct{}
}

// Checkpoint is an O(1) snapshot of a session's committed state.
type Checkpoint struct {
	base resident
}

// NewSession starts a session over a deep copy of sys and converges it.
// sys may have zero jobs (an admission controller's empty start); the
// first Admit then converges from scratch.
func NewSession(sys *model.System, cfg SessionConfig) (*Session, error) {
	s := &Session{cfg: cfg}
	s.base.sys = sys.Clone()
	s.base.needs = true
	s.base.mode = modeNone
	s.cur = s.base
	s.prev = s.base
	s.prevMap = identityMap(len(s.base.sys.Jobs))
	s.clearDelta()
	if _, err := s.convergeLocked(); err != nil {
		return nil, err
	}
	s.commitLocked()
	return s, nil
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func (s *Session) clearDelta() {
	s.seeds = make(map[int]struct{})
	s.resetArr = make(map[int]struct{})
	s.republish = make(map[int]struct{})
}

// beginStage makes cur a private working copy of base on the first staged
// change after a commit or rollback. The resident analysis arrays are
// cloned copy-on-write (outer spines fresh, converged rows shared) so the
// committed snapshot stays untouched whatever the stage does.
func (s *Session) beginStage() {
	if s.staged {
		return
	}
	s.staged = true
	s.cur = s.base
	s.cur.sys = s.base.sys.Clone()
	s.cur.needs = true
	s.prev = s.base
	s.prevMap = identityMap(len(s.base.sys.Jobs))
	s.clearDelta()
	if !s.cur.warm {
		s.cur.st, s.cur.ex, s.cur.memo, s.cur.res = nil, nil, nil, nil
		return
	}
	switch s.cur.mode {
	case modeApprox, modeIterative:
		s.cur.st = s.cur.st.sessionClone()
	case modeExact:
		s.cur.ex = cloneExactOuter(s.cur.ex)
	}
}

// sessionClone returns a copy-on-write clone of an approximate or
// iterative state: the outer spines are fresh (so growing/cutting jobs
// never disturbs the original), the per-job rows and cached curves are
// shared until a delta converge re-copies the rows it rewrites. The
// lazy-resolution guards, memo, limiter and fixed-point bookkeeping are
// left to the next sweep, which sets them for the then-current topology.
func (st *state) sessionClone() *state {
	out := &state{
		sys:      st.sys,
		topo:     st.topo,
		hops:     append([][]Hop(nil), st.hops...),
		demandLo: append([]*curve.Curve(nil), st.demandLo...),
		demandHi: append([]*curve.Curve(nil), st.demandHi...),
	}
	out.initFns()
	return out
}

// cloneExactOuter refreshes the outer spines of an exact result, sharing
// every per-job row.
func cloneExactOuter(ex *spp.Result) *spp.Result {
	return &spp.Result{
		WCRT:      append([]model.Ticks(nil), ex.WCRT...),
		Arrival:   append([][][]model.Ticks(nil), ex.Arrival...),
		Departure: append([][][]model.Ticks(nil), ex.Departure...),
		Service:   append([][]*curve.Curve(nil), ex.Service...),
		Backlog:   append([][]int(nil), ex.Backlog...),
	}
}

// cloneJob deep-copies one job the way System.Clone does.
func cloneJob(job model.Job) model.Job {
	job.Subjobs = append([]model.Subjob(nil), job.Subjobs...)
	for x := range job.Subjobs {
		job.Subjobs[x].CS = append([]model.CriticalSection(nil), job.Subjobs[x].CS...)
	}
	job.Releases = append([]model.Ticks(nil), job.Releases...)
	job.Phases = append([]model.Ticks(nil), job.Phases...)
	if job.Precedence != nil {
		prec := make([][]int, len(job.Precedence))
		for x := range job.Precedence {
			prec[x] = append([]int(nil), job.Precedence[x]...)
		}
		job.Precedence = prec
	}
	return job
}

// seed marks a subjob id (cur numbering) dirty.
func (s *Session) seed(id int) { s.seeds[id] = struct{}{} }

// seedReaders marks the policy readers of id under topo dirty, translated
// through remap (nil = identity) into cur numbering. Hop-0 demand readers
// carry no incoming dependency edge in the analysis graph (the reader
// consumes the release trace directly), so DemandReaders must be seeded
// explicitly whenever a hop's published demand can change.
func (s *Session) seedReaders(topo *model.Topology, id int, remap []int) {
	tr := func(x int) {
		if remap != nil {
			x = remap[x]
		}
		if x >= 0 {
			s.seed(x)
		}
	}
	for _, r := range topo.ServiceReaders(id) {
		tr(r)
	}
	for _, r := range topo.DemandReaders(id) {
		tr(r)
	}
}

// seedSourceResets marks every source hop of job k (hop 0 for chain
// jobs) for the arrival re-pin + demand republish prologue (the release
// trace or the rows' identity changed).
func (s *Session) seedSourceResets(topo *model.Topology, k int) {
	for _, j := range topo.Sources(k) {
		id := topo.ID(model.SubjobRef{Job: k, Hop: j})
		s.seed(id)
		s.resetArr[id] = struct{}{}
		s.republish[id] = struct{}{}
	}
}

// ValidateJob checks a candidate job against the working system without
// staging anything. Callers admitting untrusted jobs must check this
// before Admit: Admit itself assumes a structurally valid job (an
// out-of-range processor index would corrupt the staged topology).
func (s *Session) ValidateJob(job *model.Job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.sys.ValidateJob(job)
}

// Admit stages the addition of a deep copy of job.
func (s *Session) Admit(job model.Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginStage()
	k := len(s.cur.sys.Jobs)
	s.cur.sys.Jobs = append(s.cur.sys.Jobs, cloneJob(job))
	newTopo := s.cur.sys.Topology()
	if s.cur.warm {
		nh := len(job.Subjobs)
		lo := newTopo.ID(model.SubjobRef{Job: k, Hop: 0})
		// Grow the resident arrays for the new rows (appended at the end,
		// so existing ids are stable) and dirty the newcomer plus everyone
		// whose policy inputs it joins.
		switch s.cur.mode {
		case modeApprox, modeIterative:
			st := s.cur.st
			st.hops = append(st.hops, make([]Hop, nh))
			st.demandLo = append(st.demandLo, make([]*curve.Curve, nh)...)
			st.demandHi = append(st.demandHi, make([]*curve.Curve, nh)...)
		case modeExact:
			ex := s.cur.ex
			ex.WCRT = append(ex.WCRT, 0)
			ex.Arrival = append(ex.Arrival, make([][]model.Ticks, nh))
			ex.Departure = append(ex.Departure, make([][]model.Ticks, nh))
			ex.Service = append(ex.Service, make([]*curve.Curve, nh))
			ex.Backlog = append(ex.Backlog, make([]int, nh))
		}
		for id := lo; id < lo+nh; id++ {
			s.seed(id)
			s.seedReaders(newTopo, id, nil)
		}
		s.seedSourceResets(newTopo, k)
	}
	s.cur.topo = newTopo
	s.cur.needs = true
}

// Remove stages the removal of job k (current working index). Later jobs
// shift down by one, exactly as cold re-analysis of the reduced system
// numbers them.
func (s *Session) Remove(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginStage()
	sys := s.cur.sys
	if k < 0 || k >= len(sys.Jobs) {
		return fmt.Errorf("analysis: remove: job index %d out of range [0,%d)", k, len(sys.Jobs))
	}
	oldTopo := s.cur.topo
	nh := len(sys.Jobs[k].Subjobs)
	lo := oldTopo.ID(model.SubjobRef{Job: k, Hop: 0})
	hi := lo + nh

	// Seed, in OLD numbering, everyone who read the removed rows; the
	// removed ids themselves vanish.
	var oldSeeds []int
	if s.cur.warm {
		for id := lo; id < hi; id++ {
			for _, r := range oldTopo.ServiceReaders(id) {
				oldSeeds = append(oldSeeds, r)
			}
			for _, r := range oldTopo.DemandReaders(id) {
				oldSeeds = append(oldSeeds, r)
			}
		}
	}

	sys.Jobs = append(sys.Jobs[:k:k], sys.Jobs[k+1:]...)
	newTopo := sys.Topology()

	remap := func(id int) int {
		switch {
		case id < lo:
			return id
		case id >= hi:
			return id - nh
		default:
			return -1
		}
	}
	// Translate the existing delta bookkeeping and the new seeds into the
	// new numbering.
	s.seeds = remapSet(s.seeds, remap)
	s.resetArr = remapSet(s.resetArr, remap)
	s.republish = remapSet(s.republish, remap)
	for _, id := range oldSeeds {
		if nid := remap(id); nid >= 0 {
			s.seed(nid)
		}
	}
	for i, v := range s.prevMap {
		switch {
		case v == k:
			s.prevMap[i] = -1
		case v > k:
			s.prevMap[i] = v - 1
		}
	}
	if s.cur.warm {
		switch s.cur.mode {
		case modeApprox, modeIterative:
			st := s.cur.st
			st.hops = cutRow(st.hops, k)
			st.demandLo = cutRange(st.demandLo, lo, hi)
			st.demandHi = cutRange(st.demandHi, lo, hi)
		case modeExact:
			ex := s.cur.ex
			ex.WCRT = cutRow(ex.WCRT, k)
			ex.Arrival = cutRow(ex.Arrival, k)
			ex.Departure = cutRow(ex.Departure, k)
			ex.Service = cutRow(ex.Service, k)
			ex.Backlog = cutRow(ex.Backlog, k)
		}
	}
	s.cur.topo = newTopo
	s.cur.needs = true
	return nil
}

// cutRow returns a fresh slice with element k removed (never mutating the
// input — resident arrays may be shared with checkpoints and Results).
func cutRow[T any](xs []T, k int) []T {
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:k]...)
	return append(out, xs[k+1:]...)
}

// cutRange returns a fresh slice with [lo, hi) removed.
func cutRange[T any](xs []T, lo, hi int) []T {
	out := make([]T, 0, len(xs)-(hi-lo))
	out = append(out, xs[:lo]...)
	return append(out, xs[hi:]...)
}

func remapSet(set map[int]struct{}, remap func(int) int) map[int]struct{} {
	out := make(map[int]struct{}, len(set))
	for id := range set {
		if nid := remap(id); nid >= 0 {
			out[nid] = struct{}{}
		}
	}
	return out
}

// Mutate stages an in-place edit of the working system. fn must keep the
// structure rigid — the same processors, the same job count, the same
// per-job hop count (admissions and removals go through Admit/Remove so
// the session can resize its resident state); violating that, or
// returning an error, unstages the edit and leaves the session as before.
// Parameter changes (priorities, execution times, releases, deadlines,
// sync policies, critical sections) are all fair game.
func (s *Session) Mutate(fn func(*model.System) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginStage()
	pre := s.cur.sys.Clone()
	if err := fn(s.cur.sys); err != nil {
		s.cur.sys = pre
		return fmt.Errorf("analysis: mutate: %w", err)
	}
	if err := structureDelta(pre, s.cur.sys); err != nil {
		s.cur.sys = pre
		return fmt.Errorf("analysis: mutate: %w", err)
	}
	oldTopo := s.cur.topo
	newTopo := s.cur.sys.Topology()
	if s.cur.warm {
		s.seedMutation(pre, oldTopo, newTopo)
	}
	s.cur.topo = newTopo
	s.cur.needs = true
	return nil
}

// structureDelta verifies a Mutate kept the rigid structure.
func structureDelta(pre, post *model.System) error {
	if !slices.Equal(pre.Procs, post.Procs) {
		return errors.New("processors changed; sessions own a fixed processor set")
	}
	if len(pre.Jobs) != len(post.Jobs) {
		return errors.New("job count changed; use Admit/Remove")
	}
	for k := range pre.Jobs {
		if len(pre.Jobs[k].Subjobs) != len(post.Jobs[k].Subjobs) {
			return fmt.Errorf("job %d hop count changed; use Remove+Admit", k)
		}
	}
	return nil
}

// seedMutation diffs pre against the mutated working system and seeds the
// dirty cone: a subjob whose own analysis inputs changed is seeded, and
// when its published outputs (service bounds, demand curves) can change
// shape its policy readers are seeded under both the old and the new
// topology (priority moves change who reads whom).
func (s *Session) seedMutation(pre *model.System, oldTopo, newTopo *model.Topology) {
	for k := range pre.Jobs {
		oj, nj := &pre.Jobs[k], &s.cur.sys.Jobs[k]
		relChanged := !slices.Equal(oj.Releases, nj.Releases)
		syncChanged := oj.Sync != nj.Sync || oj.Period != nj.Period || !slices.Equal(oj.Phases, nj.Phases)
		precChanged := !slices.EqualFunc(oj.Precedence, nj.Precedence, slices.Equal)
		for j := range oj.Subjobs {
			osj, nsj := &oj.Subjobs[j], &nj.Subjobs[j]
			id := newTopo.ID(model.SubjobRef{Job: k, Hop: j})
			structural := osj.Proc != nsj.Proc || osj.Priority != nsj.Priority ||
				osj.Exec != nsj.Exec || !slices.Equal(osj.CS, nsj.CS)
			if structural || osj.PostDelay != nsj.PostDelay {
				s.seed(id)
			}
			if structural {
				// The subjob's service/demand outputs (or its membership in
				// others' policy inputs) changed: dirty its readers under
				// both topologies. Indices are stable (structure is rigid),
				// so old ids translate one-to-one.
				s.seedReaders(oldTopo, id, nil)
				s.seedReaders(newTopo, id, nil)
			}
			if osj.Exec != nsj.Exec {
				s.republish[id] = struct{}{}
			}
		}
		if relChanged {
			s.seedSourceResets(newTopo, k)
			for _, j := range newTopo.Sources(k) {
				id := newTopo.ID(model.SubjobRef{Job: k, Hop: j})
				s.seedReaders(oldTopo, id, nil)
				s.seedReaders(newTopo, id, nil)
			}
		}
		if precChanged {
			// The precedence DAG changed: arrival joins, the source set and
			// the dependency edges all move, so dirty the whole job, its
			// policy readers under both topologies (FCFS demand edges follow
			// the old and the new predecessor lists), and re-pin the new
			// sources from the release trace.
			for j := range nj.Subjobs {
				id := newTopo.ID(model.SubjobRef{Job: k, Hop: j})
				s.seed(id)
				s.seedReaders(oldTopo, id, nil)
				s.seedReaders(newTopo, id, nil)
			}
			s.seedSourceResets(newTopo, k)
		}
		if syncChanged || (relChanged && (oj.Sync != model.DirectSync || nj.Sync != model.DirectSync)) {
			// JoinReleases consults the release trace (and the sync knobs)
			// at every hop for non-DirectSync jobs; dirty the whole job.
			for j := range nj.Subjobs {
				s.seed(newTopo.ID(model.SubjobRef{Job: k, Hop: j}))
			}
		}
		// Deadline and Name changes affect no analysis artifact.
	}
}

// Commit keeps the staged (converged or not) working state as the new
// committed base. Committing an unconverged state leaves the committed
// Result stale (the next Converge repairs it, cold — the pending dirty
// bookkeeping does not survive a commit, so the warm state is dropped
// with it).
func (s *Session) Commit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked()
}

func (s *Session) commitLocked() {
	if s.cur.needs {
		s.cur.warm = false
	}
	s.base = s.cur
	s.staged = false
}

// Rollback discards every staged change since the last Commit in O(1).
func (s *Session) Rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = s.base
	s.prev = s.base
	s.prevMap = identityMap(len(s.base.sys.Jobs))
	s.staged = false
	s.clearDelta()
}

// Snapshot returns an O(1) checkpoint of the committed state; Restore
// winds the session back to it. The Audsley trial loop brackets its
// experiments with the pair. The committed base is always either
// converged or cold (see Commit), so the snapshot is self-contained.
func (s *Session) Snapshot() Checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Checkpoint{base: s.base}
}

// Restore winds the session back to cp, discarding everything staged or
// committed since. Checkpoints from other sessions must not be restored.
func (s *Session) Restore(cp Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = cp.base
	s.cur = cp.base
	s.prev = cp.base
	s.prevMap = identityMap(len(cp.base.sys.Jobs))
	s.staged = false
	s.clearDelta()
}

// SetOptions replaces the execution options of every subsequent converge
// (workers, context, budget). Changing options never invalidates the
// resident warm state: results are identical for every worker count, and
// contexts/budgets only bound how a converge runs, not what it computes.
// Long-lived callers (the admission controller, the serve layer) use this
// to thread per-request contexts through a resident session.
func (s *Session) SetOptions(opts Options) {
	s.mu.Lock()
	s.cfg.Opts = opts
	s.mu.Unlock()
}

// Converge (re-)analyzes the working system, warm when possible, and
// returns its Result. The Result and everything it references are
// immutable from this point on. On an error (budget, cancellation,
// validation, divergence) the session keeps the staged system but drops
// the warm state — the next Converge runs cold — and Rollback still
// restores the last committed state.
func (s *Session) Converge() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.convergeLocked()
}

// Result returns the committed converged Result, or ErrNotConverged when
// staged/failed changes have not been converged and committed.
func (s *Session) Result() (*Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.base.needs || s.base.res == nil {
		return nil, ErrNotConverged
	}
	return s.base.res, nil
}

// Schedulable converges the working system and applies the paper's
// admission test (Theorem 4 bounds vs end-to-end deadlines).
func (s *Session) Schedulable() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.convergeLocked()
	if err != nil {
		return false, err
	}
	if len(s.cur.sys.Jobs) == 0 {
		return true, nil
	}
	return res.Schedulable(s.cur.sys), nil
}

// System returns a snapshot of the committed system.
func (s *Session) System() *model.System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.sys.Clone()
}

// WorkingSystem returns a snapshot of the staged working system.
func (s *Session) WorkingSystem() *model.System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.sys.Clone()
}

// Jobs returns the number of jobs in the committed system.
func (s *Session) Jobs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.base.sys.Jobs)
}
