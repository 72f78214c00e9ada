package model

// The topology index caches every per-processor view the analyses need —
// subjob lists, priority orders, higher-priority neighbor sets,
// blocking terms and resource ceilings — so the engines stop re-scanning
// and re-sorting the job table on every query. The index is built lazily
// on first use and keyed by a fingerprint of the topology-relevant fields,
// so callers that mutate systems in place (priority synthesis, sensitivity
// analysis, random search) transparently get a fresh index on the next
// query with no invalidation calls at the mutation sites.

import (
	"fmt"
	"math"
	"slices"
)

// Topology is an immutable precomputed index over a System's scheduling
// topology. All returned slices and maps are shared and MUST NOT be
// mutated; use the System accessors (OnProc, ByPriority, ...) when a
// private copy is needed. A Topology snapshot stays internally consistent
// even if the System is mutated after it was taken; System.Topology
// detects the mutation and builds a fresh index on the next call.
type Topology struct {
	sig     uint64
	offsets []int       // subjob id of (k, 0) for each job k
	refs    []SubjobRef // all subjobs in (job, hop) order
	onProc  [][]SubjobRef
	byPrio  [][]SubjobRef
	// prioPos[id] is the position of subjob id in its processor's byPrio
	// list. Because HigherPriority is a strict total order and byPrio is
	// sorted by it, byPrio[p][:prioPos[id]] is exactly Higher(id) — the
	// property behind the engines' prefix-sum interference memoization.
	prioPos []int
	// onProcPos[id] is the position of subjob id in its processor's onProc
	// list ((job, hop) admission order). Slot-table disciplines (TDMA) key
	// their slot assignment off this position.
	onProcPos []int
	// Per subjob id, in deterministic (job, hop) order:
	higher      [][]SubjobRef // strictly higher-priority subjobs on the same processor
	blocking    []Ticks       // Equation (15)
	pcpBlocking []Ticks       // priority-ceiling blocking (resources.go)
	ceilings    map[int]int   // resource -> priority ceiling
	// Analysis dependency graph, per subjob id: deps are the subjobs whose
	// outputs feed this subjob's computation, dependents the reverse edges
	// (who must be recomputed when this subjob's outputs change). comps
	// lists the strongly connected components in topological order.
	deps       [][]int
	dependents [][]int
	comps      [][]int
	acyclic    bool
	// Reverse policy-input maps, per subjob id: serviceReaders are the
	// co-located subjobs whose analysis consumes id's service bounds,
	// demandReaders those consuming id's arrival/demand curves (beyond id
	// itself). Both derive from the scheduler registry's ServiceDeps and
	// DemandDeps hooks; they seed a session's dirty cone and drive the
	// worklist of a cyclic component.
	serviceReaders [][]int
	demandReaders  [][]int
	// Job-internal precedence graph in global-id space: jobPreds[id] are
	// the subjobs whose completions release id (the job's Precedence
	// lists, or [id-1] for the implicit chain), jobSuccs the reverse
	// edges. sources/sinks list each job's entry and exit hop indices;
	// hopOrder is a per-job topological order of its hops (identity for
	// chains) that the engines' longest-path recurrences sweep in.
	jobPreds [][]int
	jobSuccs [][]int
	sources  [][]int
	sinks    [][]int
	hopOrder [][]int
}

// topoSig fingerprints the fields the index depends on: processor
// schedulers, per subjob its processor, priority, execution time and
// critical sections, and the job's precedence lists (the dependency
// graph and its components derive from them; a nil Precedence and an
// explicit chain hash differently, which only costs a duplicate cache
// entry). Release traces, deadlines and synchronization policies do not
// affect the topology. FNV-1a over the raw values.
func (s *System) topoSig() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(s.Procs)))
	for i := range s.Procs {
		mix(uint64(s.Procs[i].Sched))
	}
	mix(uint64(len(s.Jobs)))
	for k := range s.Jobs {
		subjobs := s.Jobs[k].Subjobs
		mix(uint64(len(subjobs)))
		for j := range subjobs {
			sj := &subjobs[j]
			mix(uint64(sj.Proc))
			mix(uint64(sj.Priority))
			mix(uint64(sj.Exec))
			mix(uint64(len(sj.CS)))
			for _, cs := range sj.CS {
				mix(uint64(cs.Resource))
				mix(uint64(cs.Start))
				mix(uint64(cs.Duration))
			}
		}
		mix(uint64(len(s.Jobs[k].Precedence)))
		for _, preds := range s.Jobs[k].Precedence {
			mix(uint64(len(preds)))
			for _, p := range preds {
				mix(uint64(p))
			}
		}
	}
	return h
}

// topoRing keeps the most recently used topology indexes, newest first.
// A single cache slot thrashes under staged workloads — an admission
// session cycles a system between a handful of configurations (with and
// without the churned job), and every transition would evict the one
// index the next transition needs. Rings are immutable; an update
// publishes a fresh ring, so concurrent readers stay safe.
type topoRing struct {
	entries [4]*Topology
}

// with returns a ring with t at the front and r's other entries behind
// it, dropping the oldest past capacity. Works on a nil receiver.
func (r *topoRing) with(t *Topology) *topoRing {
	out := &topoRing{}
	out.entries[0] = t
	i := 1
	if r != nil {
		for _, e := range r.entries {
			if e == nil || e.sig == t.sig {
				continue
			}
			if i == len(out.entries) {
				break
			}
			out.entries[i] = e
			i++
		}
	}
	return out
}

// Topology returns the cached index, rebuilding it if the system's
// topology changed since it was last built. The check costs one linear
// fingerprint pass; the build costs one sort per processor plus the
// neighbor-set expansion. Safe for concurrent use: concurrent callers may
// race to build or reorder the ring, but every returned index is valid
// for the fingerprinted state.
func (s *System) Topology() *Topology {
	sig := s.topoSig()
	ring := s.topo.Load()
	if ring != nil {
		for i, t := range ring.entries {
			if t != nil && t.sig == sig {
				if i > 0 {
					s.topo.Store(ring.with(t))
				}
				return t
			}
		}
	}
	t := buildTopology(s, sig)
	s.topo.Store(ring.with(t))
	return t
}

func buildTopology(s *System, sig uint64) *Topology {
	t := &Topology{
		sig:     sig,
		offsets: make([]int, len(s.Jobs)+1),
		onProc:  make([][]SubjobRef, len(s.Procs)),
		byPrio:  make([][]SubjobRef, len(s.Procs)),
	}
	n := 0
	for k := range s.Jobs {
		t.offsets[k] = n
		n += len(s.Jobs[k].Subjobs)
	}
	t.offsets[len(s.Jobs)] = n
	t.refs = make([]SubjobRef, 0, n)
	for k := range s.Jobs {
		for j := range s.Jobs[k].Subjobs {
			r := SubjobRef{k, j}
			t.refs = append(t.refs, r)
			p := s.Jobs[k].Subjobs[j].Proc
			t.onProc[p] = append(t.onProc[p], r)
		}
	}
	buildPrecedence(s, t, n)
	for p := range t.byPrio {
		t.byPrio[p] = append([]SubjobRef(nil), t.onProc[p]...)
		refs := t.byPrio[p]
		// Insertion sort on (priority, job, hop): per-processor lists are
		// short and already (job, hop)-ordered, making this near-linear and
		// allocation-free; the order matches HigherPriority's tie-break.
		for i := 1; i < len(refs); i++ {
			r := refs[i]
			pr := s.Subjob(r).Priority
			j := i - 1
			for j >= 0 {
				o := refs[j]
				po := s.Subjob(o).Priority
				if po < pr || (po == pr && (o.Job < r.Job || (o.Job == r.Job && o.Hop < r.Hop))) {
					break
				}
				refs[j+1] = refs[j]
				j--
			}
			refs[j+1] = r
		}
	}
	t.prioPos = make([]int, n)
	for p := range t.byPrio {
		for i, r := range t.byPrio[p] {
			t.prioPos[t.ID(r)] = i
		}
	}
	t.onProcPos = make([]int, n)
	for p := range t.onProc {
		for i, r := range t.onProc[p] {
			t.onProcPos[t.ID(r)] = i
		}
	}
	// Resource ceilings (one pass; empty map when no resources declared).
	t.ceilings = map[int]int{}
	for k := range s.Jobs {
		for j := range s.Jobs[k].Subjobs {
			sj := &s.Jobs[k].Subjobs[j]
			for _, cs := range sj.CS {
				if c, ok := t.ceilings[cs.Resource]; !ok || sj.Priority < c {
					t.ceilings[cs.Resource] = sj.Priority
				}
			}
		}
	}
	// Neighbor sets and blocking terms, per subjob, in (job, hop) order.
	t.higher = make([][]SubjobRef, n)
	t.blocking = make([]Ticks, n)
	t.pcpBlocking = make([]Ticks, n)
	for _, r := range t.refs {
		id := t.ID(r)
		self := s.Subjob(r)
		var hi []SubjobRef
		for _, o := range t.onProc[self.Proc] {
			if o == r {
				continue
			}
			if s.HigherPriority(o, r) {
				hi = append(hi, o)
				continue
			}
			osj := s.Subjob(o)
			if osj.Exec > t.blocking[id] {
				t.blocking[id] = osj.Exec
			}
			for _, cs := range osj.CS {
				if t.ceilings[cs.Resource] <= self.Priority && cs.Duration > t.pcpBlocking[id] {
					t.pcpBlocking[id] = cs.Duration
				}
			}
		}
		t.higher[id] = hi
	}
	buildDependencyGraph(s, t, n)
	return t
}

// buildPrecedence compiles each job's precedence DAG (or the implicit
// chain) into global-id edge lists, source/sink hop sets and a per-job
// topological hop order. Out-of-range, self-loop and duplicate entries
// are skipped so the index stays total on systems Validate would reject;
// on a cyclic precedence graph hopOrder covers only the acyclic prefix
// (such systems never reach the engines).
func buildPrecedence(s *System, t *Topology, n int) {
	t.jobPreds = make([][]int, n)
	t.jobSuccs = make([][]int, n)
	t.sources = make([][]int, len(s.Jobs))
	t.sinks = make([][]int, len(s.Jobs))
	t.hopOrder = make([][]int, len(s.Jobs))
	for k := range s.Jobs {
		job := &s.Jobs[k]
		base := t.offsets[k]
		nh := len(job.Subjobs)
		if job.ChainLike() {
			for j := 1; j < nh; j++ {
				t.jobPreds[base+j] = []int{base + j - 1}
				t.jobSuccs[base+j-1] = []int{base + j}
			}
			order := make([]int, nh)
			for j := range order {
				order[j] = j
			}
			t.hopOrder[k] = order
			if nh > 0 {
				t.sources[k] = []int{0}
				t.sinks[k] = []int{nh - 1}
			}
			continue
		}
		indeg := make([]int, nh)
		for j := 0; j < nh && j < len(job.Precedence); j++ {
			for pi, p := range job.Precedence[j] {
				if p < 0 || p >= nh || p == j {
					continue
				}
				dup := false
				for _, q := range job.Precedence[j][:pi] {
					if q == p {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				t.jobPreds[base+j] = append(t.jobPreds[base+j], base+p)
				t.jobSuccs[base+p] = append(t.jobSuccs[base+p], base+j)
				indeg[j]++
			}
		}
		order := make([]int, 0, nh)
		for j, d := range indeg {
			if d == 0 {
				order = append(order, j)
				t.sources[k] = append(t.sources[k], j)
			}
		}
		for qi := 0; qi < len(order); qi++ {
			for _, sid := range t.jobSuccs[base+order[qi]] {
				j := sid - base
				if indeg[j]--; indeg[j] == 0 {
					order = append(order, j)
				}
			}
		}
		t.hopOrder[k] = order
		for j := 0; j < nh; j++ {
			if len(t.jobSuccs[base+j]) == 0 {
				t.sinks[k] = append(t.sinks[k], j)
			}
		}
	}
}

// buildDependencyGraph derives the analysis dependency edges: which
// subjobs' outputs each subjob reads. The edges mirror the data flow of
// the per-subjob analyses exactly:
//
//   - the precedence predecessors within the same job (their
//     latest/earliest departures join into this hop's arrival bounds;
//     for chain jobs this is the previous hop);
//   - the scheduler's ServiceDeps (e.g. the strictly higher-priority
//     subjobs on a SPP/SPNP processor, whose service bounds are the
//     interference terms);
//   - the precedence predecessors of each of the scheduler's DemandDeps
//     (e.g. every co-located subjob on a FCFS processor, whose arrivals
//     form the total-workload function of Equation 21: the arrivals of
//     such a neighbor are a deterministic function of its predecessors'
//     departures, which is what the edge must wait for).
//
// The same graph orders the engines' sweeps (its strongly connected
// components, see Components) and, through the reverse edges, bounds a
// session's dirty cone and the jobs a diverged component taints. The
// reverse policy-input maps (serviceReaders, demandReaders) are built in
// the same pass.
func buildDependencyGraph(s *System, t *Topology, n int) {
	t.deps = make([][]int, n)
	t.serviceReaders = make([][]int, n)
	t.demandReaders = make([][]int, n)
	seen := make([]int, n) // stamp array for dedup
	for i := range seen {
		seen[i] = -1
	}
	for id, r := range t.refs {
		add := func(dep int) {
			if seen[dep] != id {
				seen[dep] = id
				t.deps[id] = append(t.deps[id], dep)
			}
		}
		for _, pid := range t.jobPreds[id] {
			add(pid)
		}
		// Unregistered schedulers (rejected by Validate) contribute no
		// policy edges, keeping the index total on arbitrary systems.
		info, _ := LookupScheduler(s.Procs[s.Subjob(r).Proc].Sched)
		if info.ServiceDeps != nil {
			for _, o := range info.ServiceDeps(s, t, r) {
				oid := t.ID(o)
				add(oid)
				t.serviceReaders[oid] = append(t.serviceReaders[oid], id)
			}
		}
		if info.DemandDeps != nil {
			for _, o := range info.DemandDeps(s, t, r) {
				oid := t.ID(o)
				for _, pid := range t.jobPreds[oid] {
					add(pid)
				}
				if oid != id {
					t.demandReaders[oid] = append(t.demandReaders[oid], id)
				}
			}
		}
	}
	t.dependents = make([][]int, n)
	for id, ds := range t.deps {
		for _, d := range ds {
			t.dependents[d] = append(t.dependents[d], id)
		}
	}
	buildComponents(t, n)
}

// buildComponents partitions the dependency graph into its strongly
// connected components with Tarjan's algorithm, walked iteratively along
// the deps edges. Tarjan closes a component only after every component it
// depends on, so the emission order is already a topological order. The
// roots are taken in ascending id order and each component's members are
// sorted, which makes the partition and its order deterministic.
func buildComponents(t *Topology, n int) {
	const done = math.MaxInt // index of a vertex whose component is closed
	index := make([]int, n)  // DFS discovery number + 1; 0 = unvisited
	low := make([]int, n)
	stack := make([]int, 0, n)
	members := make([]int, 0, n)
	type frame struct{ id, next int }
	var call []frame
	next := 1
	t.comps = make([][]int, 0, n)
	t.acyclic = true
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		call = append(call, frame{id: root})
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.id
			if f.next < len(t.deps[v]) {
				w := t.deps[v][f.next]
				f.next++
				switch {
				case w == v:
					t.acyclic = false // a subjob reading its own outputs
				case index[w] == 0:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					call = append(call, frame{id: w})
				default:
					// Closed components carry index done and leave low alone.
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				u := call[len(call)-1].id
				low[u] = min(low[u], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			start := len(members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				index[w] = done
				members = append(members, w)
				if w == v {
					break
				}
			}
			comp := members[start:len(members):len(members)]
			if len(comp) > 1 {
				t.acyclic = false
				slices.Sort(comp)
			}
			t.comps = append(t.comps, comp)
		}
	}
}

// ID returns the dense index of subjob r: subjobs are numbered in
// (job, hop) order, so id(k, j) = offsets[k] + j.
func (t *Topology) ID(r SubjobRef) int { return t.offsets[r.Job] + r.Hop }

// Subjobs returns all subjobs in deterministic (job, hop) order, indexed
// by ID. Shared slice; do not mutate.
func (t *Topology) Subjobs() []SubjobRef { return t.refs }

// OnProc returns the subjobs on processor p in (job, hop) order. Shared
// slice; do not mutate.
func (t *Topology) OnProc(p int) []SubjobRef { return t.onProc[p] }

// ByPriority returns the subjobs on processor p from highest to lowest
// priority with the deterministic (job, hop) tie-break. Shared slice; do
// not mutate.
func (t *Topology) ByPriority(p int) []SubjobRef { return t.byPrio[p] }

// PrioPos returns r's position in ByPriority of its processor. Because
// HigherPriority is a strict total order with the (job, hop) tie-break and
// ByPriority is sorted by it, ByPriority(p)[:PrioPos(r)] holds exactly the
// strictly higher-priority subjobs of r (the set Higher returns, in
// priority order).
func (t *Topology) PrioPos(r SubjobRef) int { return t.prioPos[t.ID(r)] }

// OnProcPos returns r's position in OnProc of its processor — the (job,
// hop) admission order that slot-table disciplines (TDMA) key their slot
// assignment off. O(1); replaces the linear scan callers used to do.
func (t *Topology) OnProcPos(r SubjobRef) int { return t.onProcPos[t.ID(r)] }

// Procs returns the number of processors the index covers.
func (t *Topology) Procs() int { return len(t.onProc) }

// Higher returns the strictly higher-priority subjobs on r's processor in
// (job, hop) order. Shared slice; do not mutate.
func (t *Topology) Higher(r SubjobRef) []SubjobRef { return t.higher[t.ID(r)] }

// Blocking returns the cached Equation (15) blocking term of r.
func (t *Topology) Blocking(r SubjobRef) Ticks { return t.blocking[t.ID(r)] }

// PCPBlocking returns the cached priority-ceiling blocking term of r.
func (t *Topology) PCPBlocking(r SubjobRef) Ticks { return t.pcpBlocking[t.ID(r)] }

// Ceilings returns the resource-to-priority-ceiling map. Shared map; do
// not mutate.
func (t *Topology) Ceilings() map[int]int { return t.ceilings }

// Deps returns the analysis prerequisites of subjob id: the ids whose
// outputs (departure bounds or service bounds) feed id's computation. See
// buildDependencyGraph for the edge definition. Shared slice; do not
// mutate.
func (t *Topology) Deps(id int) []int { return t.deps[id] }

// Dependents returns the reverse dependency edges of subjob id: the ids
// that must be recomputed when id's outputs change. Shared slice; do not
// mutate.
func (t *Topology) Dependents(id int) []int { return t.dependents[id] }

// ServiceReaders returns the co-located subjobs whose analysis consumes
// id's service bounds (the registry's ServiceDeps, reversed): under
// static-priority scheduling these are exactly the lower-priority
// neighbors. Shared slice; do not mutate.
func (t *Topology) ServiceReaders(id int) []int { return t.serviceReaders[id] }

// DemandReaders returns the co-located subjobs (other than id itself)
// whose analysis consumes id's arrival/demand curves (the registry's
// DemandDeps, reversed): under FCFS these are the subjobs sharing the
// processor. Shared slice; do not mutate.
func (t *Topology) DemandReaders(id int) []int { return t.demandReaders[id] }

// JobPreds returns the precedence predecessors of subjob id within its
// own job, as global ids: the hops whose completions (plus their
// PostDelay) join into id's release. Empty exactly when id is a source
// hop. For a chain job this is [id-1]. Shared slice; do not mutate.
func (t *Topology) JobPreds(id int) []int { return t.jobPreds[id] }

// JobSuccs returns the precedence successors of subjob id within its own
// job, as global ids: the hops id's completion helps release (the fork
// fan-out). Empty exactly when id is a sink hop. Shared slice; do not
// mutate.
func (t *Topology) JobSuccs(id int) []int { return t.jobSuccs[id] }

// Sources returns the hop indices of job k's source subjobs — the hops
// with no precedence predecessors, released directly by the job's
// release trace. [0] for a chain job. Shared slice; do not mutate.
func (t *Topology) Sources(k int) []int { return t.sources[k] }

// Sinks returns the hop indices of job k's sink subjobs — the hops with
// no precedence successors; the job instance completes when all of them
// have. [len(Subjobs)-1] for a chain job. Shared slice; do not mutate.
func (t *Topology) Sinks(k int) []int { return t.sinks[k] }

// HopOrder returns a topological order of job k's hop indices over its
// precedence DAG (the identity order for a chain job). Longest-path
// recurrences over the job's hops sweep in this order. Shared slice; do
// not mutate.
func (t *Topology) HopOrder(k int) []int { return t.hopOrder[k] }

// Components returns the strongly connected components of the dependency
// graph in topological order: every dependency of a member lies in the
// same or an earlier component. Ids are ascending within each component.
// acyclic reports whether every component is a single subjob that does
// not depend on itself; when false (a physical or logical loop) only the
// iterative engine can analyze the system. Shared slices; do not mutate.
func (t *Topology) Components() (comps [][]int, acyclic bool) { return t.comps, t.acyclic }

// String summarizes the index for debugging.
func (t *Topology) String() string {
	return fmt.Sprintf("topology{%d subjobs, %d procs, sig=%x}", len(t.refs), len(t.onProc), t.sig)
}
