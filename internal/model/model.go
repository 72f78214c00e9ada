// Package model defines the distributed real-time system model of Section 3
// of Li/Bettati/Zhao (ICPP 1998): processors with static-priority or FCFS
// schedulers, jobs made of chains of subjobs, and concrete release traces
// with arbitrary (bursty) arrival patterns.
//
// All durations and instants are integer ticks; generators scale continuous
// model time (see the workload package) so that the analysis stays exact.
package model

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Ticks is a duration or instant in integer model time.
type Ticks = int64

// Scheduler identifies the scheduling algorithm a processor runs
// (Section 3.2 of the paper). The three paper disciplines are built in;
// further disciplines register themselves via RegisterScheduler (see
// schedulers.go and the internal/sched package).
type Scheduler int

const (
	// SPP is static priority preemptive scheduling.
	SPP Scheduler = iota
	// SPNP is static priority non-preemptive scheduling.
	SPNP
	// FCFS is first-come-first-served scheduling.
	FCFS
)

// String returns the registered abbreviation (the paper's for the
// built-ins).
func (s Scheduler) String() string {
	if info, ok := LookupScheduler(s); ok {
		return info.Name
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// ParseScheduler converts a registered abbreviation back to a Scheduler.
func ParseScheduler(s string) (Scheduler, error) {
	if v, ok := schedulerNames[s]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("model: unknown scheduler %q", s)
}

// Processor is a single processing resource.
type Processor struct {
	// Name is a human-readable identifier (defaults to "P<i+1>" as in the
	// paper's figures).
	Name string
	// Sched is the scheduling algorithm the processor runs. Different
	// processors may run different schedulers (heterogeneous systems).
	Sched Scheduler
	// Slot, Cycle and Offset parameterize slotted disciplines (see the
	// sched/tdma package): the processor repeats a cycle of Cycle ticks
	// starting at Offset, within which each assigned subjob owns one
	// contiguous slot of Slot ticks. The priority-driven built-ins ignore
	// all three.
	Slot, Cycle, Offset Ticks
}

// Subjob is one hop of a job's chain: tau_{k,j} time units of execution on
// processor P(k,j) with static priority phi_{k,j}.
type Subjob struct {
	// Proc indexes into System.Procs.
	Proc int
	// Exec is the execution time tau in ticks; must be positive.
	Exec Ticks
	// Priority is phi_{k,j}: smaller means higher priority. It is
	// meaningful only on SPP/SPNP processors and only relative to the
	// other subjobs on the same processor. Ties are broken deterministically
	// by (job, hop) order, both in the analysis and in the simulator.
	Priority int
	// PostDelay is the constant communication latency between this
	// subjob's completion and the release of the job's next subjob
	// (Section 3.2 assumes this overhead is constant; the paper sets it
	// to zero and so does every generator here by default, but the
	// analyses and the simulator honor it exactly). It is ignored on the
	// last hop. Must be non-negative.
	PostDelay Ticks
	// CS are the subjob's critical sections on shared local resources
	// (see resources.go); empty for the paper's resource-free model.
	CS []CriticalSection
}

// SyncPolicy selects how the completion of a subjob releases the job's
// next subjob. The paper analyzes Direct Synchronization (its Section 3.2
// assumption); Phase Modification and Release Guard are the alternatives
// of Sun&Liu [1] that re-shape downstream arrivals so that classical
// periodic analysis applies, at the cost of added average latency. All
// three are supported by the simulator and by the exact analysis (the
// release transformations are deterministic functions of the departure
// times, so the trace-exact machinery prices them exactly).
type SyncPolicy int

const (
	// DirectSync releases the next subjob the moment its predecessor
	// completes (plus the hop's PostDelay) - the paper's model.
	DirectSync SyncPolicy = iota
	// PhaseModification delays the release of hop j until the instance's
	// first-hop release time plus the job's fixed per-hop phase offset
	// Phases[j]; arrivals at every hop replicate the first-hop pattern.
	PhaseModification
	// ReleaseGuard delays the release of hop j until at least Period has
	// passed since the previous release at that hop, restoring the
	// minimum separation without synchronized clocks.
	ReleaseGuard
)

// String names the policy as in the literature.
func (p SyncPolicy) String() string {
	switch p {
	case DirectSync:
		return "DS"
	case PhaseModification:
		return "PM"
	case ReleaseGuard:
		return "RG"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Job is a chain of subjobs executed sequentially on (typically) different
// processors, together with its end-to-end deadline and the concrete
// release trace of its first subjob.
type Job struct {
	// Name is a human-readable identifier (defaults to "T<k+1>").
	Name string
	// Deadline is the relative end-to-end deadline D_k in ticks.
	Deadline Ticks
	// Subjobs is the chain T_{k,1} ... T_{k,n_k}; must be non-empty.
	Subjobs []Subjob
	// Releases are the release times t_{k,1,i} of the first subjob's
	// instances, sorted ascending (Section 3.1). Duplicates are allowed
	// and model simultaneous bursts. The analysis computes the worst-case
	// response over exactly these instances.
	Releases []Ticks
	// Sync selects the inter-hop synchronization policy (DirectSync, the
	// paper's model, by default).
	Sync SyncPolicy
	// Phases are the per-hop release offsets for PhaseModification
	// (Phases[0] must be 0; len must equal len(Subjobs)). An instance's
	// hop j is not released before Releases[i] + Phases[j].
	Phases []Ticks
	// Period is the minimum release separation enforced per hop by
	// ReleaseGuard; must be positive for that policy.
	Period Ticks
	// Precedence optionally replaces the implicit chain order with an
	// explicit precedence DAG: Precedence[j] lists the hops that must
	// complete before hop j is released (fork/join parallelism). A hop
	// with an empty list is a source: it is released directly by the
	// job's release trace. A nil (or empty) Precedence keeps the chain
	// semantics, Precedence[j] = [j-1], unchanged — every pre-DAG spec
	// and JSON file means exactly what it always did. When non-nil it
	// must have one list per subjob and describe a weakly connected
	// acyclic graph (Validate enforces this). PostDelay of a hop applies
	// on every outgoing precedence edge; a join hop is released once ALL
	// its predecessors have delivered.
	Precedence [][]int
}

// ChainLike reports whether the job uses the implicit chain precedence
// (nil/empty Precedence): hop j depends exactly on hop j-1.
func (j *Job) ChainLike() bool { return len(j.Precedence) == 0 }

// HopPreds returns the predecessor hops of hop j, honoring the implicit
// chain when Precedence is nil. The chain case returns a slice backed by
// the scratch array; callers that retain the result must copy it.
func (j *Job) HopPreds(hop int, scratch *[1]int) []int {
	if j.ChainLike() {
		if hop == 0 {
			return nil
		}
		scratch[0] = hop - 1
		return scratch[:]
	}
	return j.Precedence[hop]
}

// SubjobRef addresses one subjob in a System.
type SubjobRef struct {
	Job int // index into System.Jobs
	Hop int // index into Job.Subjobs
}

// String formats the reference in the paper's T_{k,j} notation (1-based).
func (r SubjobRef) String() string { return fmt.Sprintf("T_{%d,%d}", r.Job+1, r.Hop+1) }

// System is a complete analyzable system: processors, jobs and release
// traces.
//
// Systems may be mutated freely (the priority, search and sensitivity
// packages do); the cached topology index (see Topology) fingerprints the
// relevant fields and rebuilds itself transparently after any mutation.
// Because the cache is an atomic pointer, System values must not be
// copied; use Clone.
type System struct {
	Procs []Processor
	Jobs  []Job

	// topo caches the most recently used topology indexes; see topology.go.
	topo atomic.Pointer[topoRing]
}

// ValidationError marks a structural well-formedness failure from
// Validate. It is transparent (Error and Unwrap pass through), existing
// messages are unchanged; callers that must distinguish "the input is
// malformed" from engine failures — the serve layer mapping decisions to
// HTTP statuses — detect it with errors.As through any wrapping.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }

func (e *ValidationError) Unwrap() error { return e.Err }

// Validate checks structural well-formedness. Analyses require a valid
// system and may panic on invalid ones. All failures are returned as a
// *ValidationError.
func (s *System) Validate() error {
	if err := s.validate(); err != nil {
		var verr *ValidationError
		if errors.As(err, &verr) {
			return err
		}
		return &ValidationError{Err: err}
	}
	return nil
}

func (s *System) validate() error {
	if len(s.Procs) == 0 {
		return errors.New("model: system has no processors")
	}
	if len(s.Jobs) == 0 {
		return errors.New("model: system has no jobs")
	}
	for p := range s.Procs {
		if !SchedulerRegistered(s.Procs[p].Sched) {
			return fmt.Errorf("model: processor %d uses unregistered scheduler %d", p, int(s.Procs[p].Sched))
		}
	}
	for k := range s.Jobs {
		if err := validateJobShape(fmt.Sprintf("job %d", k), &s.Jobs[k], len(s.Procs)); err != nil {
			return err
		}
	}
	if err := s.ValidateResources(); err != nil {
		return err
	}
	// Discipline-specific processor checks run last, once the structural
	// invariants they may rely on (processor indices, execution times,
	// critical sections) are established.
	for p := range s.Procs {
		info, _ := LookupScheduler(s.Procs[p].Sched)
		if info.ValidateProc != nil {
			if err := info.ValidateProc(s, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateJobShape holds the per-job structural invariants of validate;
// label prefixes every error location ("job 3", or a quoted name when
// checking a standalone candidate).
func validateJobShape(label string, job *Job, nprocs int) error {
	if len(job.Subjobs) == 0 {
		return fmt.Errorf("model: %s has no subjobs", label)
	}
	if job.Deadline <= 0 {
		return fmt.Errorf("model: %s has non-positive deadline %d", label, job.Deadline)
	}
	for j, sj := range job.Subjobs {
		if sj.Proc < 0 || sj.Proc >= nprocs {
			return fmt.Errorf("model: %s hop %d references processor %d of %d", label, j, sj.Proc, nprocs)
		}
		if sj.Exec <= 0 {
			return fmt.Errorf("model: %s hop %d has non-positive execution time %d", label, j, sj.Exec)
		}
		if sj.PostDelay < 0 {
			return fmt.Errorf("model: %s hop %d has negative post delay %d", label, j, sj.PostDelay)
		}
	}
	if err := validatePrecedence(label, job); err != nil {
		return err
	}
	if len(job.Releases) == 0 {
		return fmt.Errorf("model: %s has no release instances", label)
	}
	for i, t := range job.Releases {
		if t < 0 {
			return fmt.Errorf("model: %s release %d is negative", label, i)
		}
		if i > 0 && t < job.Releases[i-1] {
			return fmt.Errorf("model: %s releases not sorted at %d", label, i)
		}
	}
	switch job.Sync {
	case DirectSync:
	case PhaseModification:
		if len(job.Phases) != len(job.Subjobs) {
			return fmt.Errorf("model: %s needs one phase per hop, got %d for %d hops",
				label, len(job.Phases), len(job.Subjobs))
		}
		if job.ChainLike() {
			if job.Phases[0] != 0 {
				return fmt.Errorf("model: %s first phase must be 0", label)
			}
			for j := 1; j < len(job.Phases); j++ {
				if job.Phases[j] < job.Phases[j-1] {
					return fmt.Errorf("model: %s phases must be non-decreasing", label)
				}
			}
		} else {
			// The chain rules generalized per edge: source hops release
			// straight from the trace (phase 0) and a phase may only grow
			// along a precedence edge, so the PM clamp stays monotone.
			for j, preds := range job.Precedence {
				if len(preds) == 0 && job.Phases[j] != 0 {
					return fmt.Errorf("model: %s source hop %d phase must be 0", label, j)
				}
				for _, p := range preds {
					if job.Phases[j] < job.Phases[p] {
						return fmt.Errorf("model: %s phases must be non-decreasing along precedence edge %d->%d", label, p, j)
					}
				}
			}
		}
	case ReleaseGuard:
		if job.Period <= 0 {
			return fmt.Errorf("model: %s needs a positive period for release guard", label)
		}
	default:
		return fmt.Errorf("model: %s has unknown sync policy %d", label, job.Sync)
	}
	return nil
}

// validatePrecedence checks an explicit precedence DAG: one predecessor
// list per hop, entries in range without self-loops or duplicates, and
// the graph acyclic and weakly connected. A nil Precedence (the implicit
// chain) always passes.
func validatePrecedence(label string, job *Job) error {
	if job.ChainLike() {
		return nil
	}
	n := len(job.Subjobs)
	if len(job.Precedence) != n {
		return fmt.Errorf("model: %s needs one predecessor list per hop, got %d for %d hops",
			label, len(job.Precedence), n)
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for j, preds := range job.Precedence {
		for pi, p := range preds {
			if p < 0 || p >= n {
				return fmt.Errorf("model: %s hop %d precedence references hop %d of %d", label, j, p, n)
			}
			if p == j {
				return fmt.Errorf("model: %s hop %d lists itself as a predecessor", label, j)
			}
			for _, q := range preds[:pi] {
				if q == p {
					return fmt.Errorf("model: %s hop %d lists predecessor %d twice", label, j, p)
				}
			}
			succs[p] = append(succs[p], j)
		}
		indeg[j] = len(preds)
	}
	queue := make([]int, 0, n)
	for j, d := range indeg {
		if d == 0 {
			queue = append(queue, j)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, s := range succs[queue[qi]] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(queue) != n {
		return fmt.Errorf("model: %s precedence graph has a cycle", label)
	}
	// Weak connectivity: a disconnected precedence graph is two unrelated
	// jobs sharing one deadline — almost certainly a spec error, and the
	// end-to-end bound over source->sink paths would silently ignore the
	// smaller component.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for j, preds := range job.Precedence {
		for _, p := range preds {
			comp[find(p)] = find(j)
		}
	}
	for i := 1; i < n; i++ {
		if find(i) != find(0) {
			return fmt.Errorf("model: %s precedence graph is not connected (hop %d is isolated from hop 0)", label, i)
		}
	}
	return nil
}

// ValidateJob checks one candidate job against the system's processors —
// the per-job subset of Validate plus the critical-section structure and
// the local-resource restriction against the resident jobs. It exists
// for services that admit jobs one at a time: a malformed candidate is a
// *ValidationError (the submitter's fault), caught before any analysis
// structure is sized from it.
func (s *System) ValidateJob(job *Job) error {
	label := fmt.Sprintf("job %q", job.Name)
	if err := s.validateJobIn(label, job); err != nil {
		return &ValidationError{Err: err}
	}
	return nil
}

func (s *System) validateJobIn(label string, job *Job) error {
	if len(s.Procs) == 0 {
		return errors.New("model: system has no processors")
	}
	if err := validateJobShape(label, job, len(s.Procs)); err != nil {
		return err
	}
	procOf := map[int]int{} // resource -> processor, from the resident jobs
	for k := range s.Jobs {
		for _, sj := range s.Jobs[k].Subjobs {
			for _, cs := range sj.CS {
				procOf[cs.Resource] = sj.Proc
			}
		}
	}
	for j := range job.Subjobs {
		sj := &job.Subjobs[j]
		if err := validateSubjobCS(fmt.Sprintf("%s hop %d", label, j), sj); err != nil {
			return err
		}
		for _, cs := range sj.CS {
			if p, ok := procOf[cs.Resource]; ok && p != sj.Proc {
				return fmt.Errorf("model: resource %d used on processors %d and %d; resources must be local",
					cs.Resource, p, sj.Proc)
			}
			procOf[cs.Resource] = sj.Proc
		}
	}
	return nil
}

// ProcName returns the processor's name, defaulting to the paper's P<i+1>.
func (s *System) ProcName(i int) string {
	if s.Procs[i].Name != "" {
		return s.Procs[i].Name
	}
	return fmt.Sprintf("P%d", i+1)
}

// JobName returns the job's name, defaulting to the paper's T<k+1>.
func (s *System) JobName(k int) string {
	if s.Jobs[k].Name != "" {
		return s.Jobs[k].Name
	}
	return fmt.Sprintf("T%d", k+1)
}

// Subjob returns the referenced subjob.
func (s *System) Subjob(r SubjobRef) *Subjob {
	return &s.Jobs[r.Job].Subjobs[r.Hop]
}

// OnProc returns the subjobs assigned to processor p in deterministic
// (job, hop) order. The returned slice is a fresh copy the caller may
// reorder; hot loops should use Topology().OnProc instead, which shares
// the cached slice.
func (s *System) OnProc(p int) []SubjobRef {
	return append([]SubjobRef(nil), s.Topology().OnProc(p)...)
}

// ByPriority returns the subjobs on processor p sorted from highest to
// lowest priority, with the deterministic (job, hop) tie-break shared by
// the analysis and the simulator. The returned slice is a fresh copy; hot
// loops should use Topology().ByPriority instead.
func (s *System) ByPriority(p int) []SubjobRef {
	return append([]SubjobRef(nil), s.Topology().ByPriority(p)...)
}

// HigherPriority reports whether subjob a beats subjob b on the same
// processor, using the deterministic tie-break.
func (s *System) HigherPriority(a, b SubjobRef) bool {
	pa, pb := s.Subjob(a).Priority, s.Subjob(b).Priority
	if pa != pb {
		return pa < pb
	}
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	return a.Hop < b.Hop
}

// Blocking returns the maximum blocking time b_{k,j} of Equation (15): the
// largest execution time among strictly lower-priority subjobs on the same
// processor. It is zero when no lower-priority subjob exists. Cached in
// the topology index.
func (s *System) Blocking(r SubjobRef) Ticks {
	return s.Topology().Blocking(r)
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	out := &System{
		Procs: append([]Processor(nil), s.Procs...),
		Jobs:  make([]Job, len(s.Jobs)),
	}
	for k := range s.Jobs {
		j := s.Jobs[k]
		j.Subjobs = append([]Subjob(nil), j.Subjobs...)
		for x := range j.Subjobs {
			j.Subjobs[x].CS = append([]CriticalSection(nil), j.Subjobs[x].CS...)
		}
		j.Releases = append([]Ticks(nil), j.Releases...)
		j.Phases = append([]Ticks(nil), j.Phases...)
		if j.Precedence != nil {
			pre := make([][]int, len(j.Precedence))
			for x := range j.Precedence {
				pre[x] = append([]int(nil), j.Precedence[x]...)
			}
			j.Precedence = pre
		}
		out.Jobs[k] = j
	}
	// Topology indexes are immutable and fingerprint-checked, so the clone
	// can carry the cache: its first Topology call hits instead of
	// rebuilding an index identical to one the original already holds.
	out.topo.Store(s.topo.Load())
	return out
}

// MaxRelease returns the latest release time across all jobs.
func (s *System) MaxRelease() Ticks {
	var m Ticks
	for k := range s.Jobs {
		if n := len(s.Jobs[k].Releases); n > 0 {
			if t := s.Jobs[k].Releases[n-1]; t > m {
				m = t
			}
		}
	}
	return m
}

// TotalWork returns the total execution demand of all instances of all
// subjobs on processor p.
func (s *System) TotalWork(p int) Ticks {
	var w Ticks
	for _, r := range s.OnProc(p) {
		w += s.Subjob(r).Exec * Ticks(len(s.Jobs[r.Job].Releases))
	}
	return w
}

// infTicks is the "never" sentinel shared with the analysis packages
// (curve.Inf): an instance not certified to complete within the horizon.
const infTicks = Ticks(1<<63 - 1)

// JoinReleases maps the completion vectors of hop `hop`'s precedence
// predecessors to its release times: each predecessor p contributes
// dep(p) shifted by p's PostDelay (the per-edge communication latency),
// the contributions merge by elementwise max — a join hop is released
// only when ALL predecessors have delivered — and the job's
// synchronization policy is applied to the merged vector at hop `hop`.
// Inf entries stay Inf. The same deterministic transformation applies to
// exact departure times and to departure-time bounds: it is monotone in
// every input, so applying it to sound upper (lower) bound vectors
// yields sound upper (lower) bounds on the releases; the sync transform
// runs after the merge because ReleaseGuard applied per edge and then
// merged would under-estimate the guarded sequence.
func (s *System) JoinReleases(k, hop int, preds []int, dep func(pred int) []Ticks) []Ticks {
	job := &s.Jobs[k]
	var out []Ticks
	for _, p := range preds {
		d := dep(p)
		delay := job.Subjobs[p].PostDelay
		if out == nil {
			out = make([]Ticks, len(d))
			for i, t := range d {
				if t != infTicks {
					t += delay
				}
				out[i] = t
			}
			continue
		}
		for i, t := range d {
			if t != infTicks {
				t += delay
			}
			if t > out[i] {
				out[i] = t
			}
		}
	}
	return s.applySync(k, hop, out)
}

// applySync applies job k's synchronization policy to a release vector
// at hop `hop`, in place: PhaseModification clamps instance i up to
// Releases[i]+Phases[hop], ReleaseGuard chains the minimum separation
// through the sequence. DirectSync leaves the vector untouched.
func (s *System) applySync(k, hop int, out []Ticks) []Ticks {
	job := &s.Jobs[k]
	var prev Ticks = -1
	for i, t := range out {
		switch job.Sync {
		case PhaseModification:
			if i < len(job.Releases) {
				if nominal := job.Releases[i] + job.Phases[hop]; t != infTicks && nominal > t {
					t = nominal
				}
			}
		case ReleaseGuard:
			if prev == infTicks {
				t = infTicks
			} else if prev >= 0 && t != infTicks && prev+job.Period > t {
				t = prev + job.Period
			}
		}
		out[i] = t
		prev = t
	}
	return out
}

// InstanceCount returns the total number of job instances in the system.
func (s *System) InstanceCount() int {
	n := 0
	for k := range s.Jobs {
		n += len(s.Jobs[k].Releases)
	}
	return n
}

// SubjobCount returns the total number of subjobs across all jobs.
func (s *System) SubjobCount() int {
	n := 0
	for k := range s.Jobs {
		n += len(s.Jobs[k].Subjobs)
	}
	return n
}

// String summarizes the system in one line for logs and error messages.
func (s *System) String() string {
	scheds := map[Scheduler]int{}
	for _, p := range s.Procs {
		scheds[p.Sched]++
	}
	parts := make([]string, 0, 3)
	for _, sc := range RegisteredSchedulers() {
		if n := scheds[sc]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, sc))
		}
	}
	return fmt.Sprintf("system{%s; %d jobs, %d subjobs, %d instances}",
		strings.Join(parts, ", "), len(s.Jobs), s.SubjobCount(), s.InstanceCount())
}
