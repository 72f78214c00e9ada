package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// The JSON document format used by the command-line tools:
//
//	{
//	  "processors": [ {"name": "P1", "scheduler": "SPP"}, ... ],
//	  "jobs": [
//	    {
//	      "name": "T1",
//	      "deadline": 1000000,
//	      "subjobs":  [ {"proc": 0, "exec": 250000, "priority": 1}, ... ],
//	      "releases": [ 0, 1000000, 2000000 ]
//	    }, ...
//	  ]
//	}
//
// Times are integer ticks; scheduler names are the registered
// abbreviations (the paper's SPP, SPNP and FCFS, plus any discipline
// registered via RegisterScheduler, e.g. TDMA with its per-processor
// "slot", "cycle" and "offset" fields).

// MarshalJSON encodes the scheduler as its paper abbreviation.
func (s Scheduler) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a scheduler from its paper abbreviation.
func (s *Scheduler) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	v, err := ParseScheduler(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

type jsonProc struct {
	Name  string    `json:"name,omitempty"`
	Sched Scheduler `json:"scheduler"`
	// Slot, Cycle and Offset parameterize slotted schedulers (TDMA);
	// omitted for the priority-driven built-ins, which ignore them.
	Slot   Ticks `json:"slot,omitempty"`
	Cycle  Ticks `json:"cycle,omitempty"`
	Offset Ticks `json:"offset,omitempty"`
}

type jsonCS struct {
	Resource int   `json:"resource"`
	Start    Ticks `json:"start"`
	Duration Ticks `json:"duration"`
}

type jsonSubjob struct {
	Proc      int      `json:"proc"`
	Exec      Ticks    `json:"exec"`
	Priority  int      `json:"priority,omitempty"`
	PostDelay Ticks    `json:"postDelay,omitempty"`
	CS        []jsonCS `json:"criticalSections,omitempty"`
}

type jsonJob struct {
	Name     string       `json:"name,omitempty"`
	Deadline Ticks        `json:"deadline"`
	Subjobs  []jsonSubjob `json:"subjobs"`
	Releases []Ticks      `json:"releases"`
	// Precedence optionally carries the job's explicit precedence DAG
	// (one predecessor list per subjob); absent for chain jobs.
	Precedence [][]int `json:"precedence,omitempty"`
}

type jsonSystem struct {
	Procs []jsonProc `json:"processors"`
	Jobs  []jsonJob  `json:"jobs"`
}

// MarshalJSON encodes the system in the documented format.
func (s *System) MarshalJSON() ([]byte, error) {
	doc := jsonSystem{}
	for _, p := range s.Procs {
		doc.Procs = append(doc.Procs, jsonProc{
			Name: p.Name, Sched: p.Sched,
			Slot: p.Slot, Cycle: p.Cycle, Offset: p.Offset,
		})
	}
	for _, j := range s.Jobs {
		doc.Jobs = append(doc.Jobs, j.marshalDoc())
	}
	return json.Marshal(doc)
}

func (j *Job) marshalDoc() jsonJob {
	jj := jsonJob{Name: j.Name, Deadline: j.Deadline, Releases: j.Releases, Precedence: j.Precedence}
	for _, sj := range j.Subjobs {
		js := jsonSubjob{Proc: sj.Proc, Exec: sj.Exec, Priority: sj.Priority, PostDelay: sj.PostDelay}
		for _, cs := range sj.CS {
			js.CS = append(js.CS, jsonCS{Resource: cs.Resource, Start: cs.Start, Duration: cs.Duration})
		}
		jj.Subjobs = append(jj.Subjobs, js)
	}
	return jj
}

// MarshalJSON encodes the job in the documented format — the shape
// LoadJobLimited decodes, so a Job round-trips through the admission
// API without losing critical sections to Go's default field naming.
func (j Job) MarshalJSON() ([]byte, error) {
	return json.Marshal(j.marshalDoc())
}

// Limits bounds how large an untrusted JSON document may be before the
// decoder rejects it. Hitting a ceiling is an input error with a
// path-qualified message, never a panic or an allocation blow-up further
// down: the counts are checked on the raw document, before any analysis
// data structure is sized from them. Zero or negative fields mean
// unlimited.
type Limits struct {
	// MaxBytes caps the raw input size read by LoadLimited.
	MaxBytes int64
	// MaxProcs caps len(processors).
	MaxProcs int
	// MaxJobs caps len(jobs).
	MaxJobs int
	// MaxSubjobs caps len(jobs[k].subjobs) for each job.
	MaxSubjobs int
	// MaxReleases caps len(jobs[k].releases) for each job.
	MaxReleases int
	// MaxCriticalSections caps len(jobs[k].subjobs[j].criticalSections).
	MaxCriticalSections int
}

// DefaultLimits is what Load and System.UnmarshalJSON enforce: generous
// enough for any realistic system (the paper's evaluation stays orders of
// magnitude below), tight enough that adversarial inputs cannot drive the
// decoder or the engines behind it into pathological allocations.
var DefaultLimits = Limits{
	MaxBytes:            64 << 20,
	MaxProcs:            4096,
	MaxJobs:             1 << 16,
	MaxSubjobs:          512,
	MaxReleases:         1 << 20,
	MaxCriticalSections: 128,
}

// check verifies the collection counts of a decoded document against the
// limits, reporting the offending JSON path.
func (l Limits) check(doc *jsonSystem) error {
	over := func(n, max int, path string) error {
		return fmt.Errorf("model: %s: %d entries exceed the limit of %d", path, n, max)
	}
	if l.MaxProcs > 0 && len(doc.Procs) > l.MaxProcs {
		return over(len(doc.Procs), l.MaxProcs, "processors")
	}
	if l.MaxJobs > 0 && len(doc.Jobs) > l.MaxJobs {
		return over(len(doc.Jobs), l.MaxJobs, "jobs")
	}
	for k := range doc.Jobs {
		if err := l.checkJob(&doc.Jobs[k], fmt.Sprintf("jobs[%d]", k)); err != nil {
			return err
		}
	}
	return nil
}

// build converts a decoded document into a validated System.
func (doc *jsonSystem) build() (*System, error) {
	out := &System{}
	for _, p := range doc.Procs {
		out.Procs = append(out.Procs, Processor{
			Name: p.Name, Sched: p.Sched,
			Slot: p.Slot, Cycle: p.Cycle, Offset: p.Offset,
		})
	}
	for _, j := range doc.Jobs {
		out.Jobs = append(out.Jobs, j.build())
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalJSON decodes the documented format and validates the result,
// enforcing DefaultLimits on the collection counts (use LoadLimited for
// custom limits).
func (s *System) UnmarshalJSON(data []byte) error {
	var doc jsonSystem
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if err := DefaultLimits.check(&doc); err != nil {
		return err
	}
	out, err := doc.build()
	if err != nil {
		return err
	}
	s.Procs, s.Jobs = out.Procs, out.Jobs
	s.topo.Store(nil)
	return nil
}

// Load reads and validates a system from JSON under DefaultLimits.
func Load(r io.Reader) (*System, error) {
	return LoadLimited(r, DefaultLimits)
}

// LoadLimited is Load with explicit input limits: the raw input is capped
// at MaxBytes and the decoded collection counts at the per-collection
// ceilings, with errors naming the offending JSON path. The decoder
// itself never panics on any input; semantic errors come from
// System.Validate with job/hop coordinates.
func LoadLimited(r io.Reader, lim Limits) (*System, error) {
	doc, err := decodeLimited(r, lim)
	if err != nil {
		return nil, err
	}
	sys, err := doc.build()
	if err != nil {
		return nil, fmt.Errorf("model: decoding system: %w", err)
	}
	return sys, nil
}

// decodeLimited reads, size-caps, decodes, and limit-checks a system
// document without building or validating it.
func decodeLimited(r io.Reader, lim Limits) (*jsonSystem, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: reading system: %w", err)
	}
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("model: input exceeds the %d-byte limit", lim.MaxBytes)
	}
	var doc jsonSystem
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("model: decoding system: %w", err)
	}
	if err := lim.check(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// LoadSpecLimited is LoadLimited without the whole-system semantic
// validation: the document is decoded and limit-checked, then returned
// as built. It exists for services that assemble systems incrementally —
// a processors-only tenant spec is legal input there, and every job
// added later is validated by the analysis at decision time.
func LoadSpecLimited(r io.Reader, lim Limits) (*System, error) {
	doc, err := decodeLimited(r, lim)
	if err != nil {
		return nil, err
	}
	out := &System{}
	for _, p := range doc.Procs {
		out.Procs = append(out.Procs, Processor{
			Name: p.Name, Sched: p.Sched,
			Slot: p.Slot, Cycle: p.Cycle, Offset: p.Offset,
		})
	}
	for _, j := range doc.Jobs {
		out.Jobs = append(out.Jobs, j.build())
	}
	return out, nil
}

// LoadProcSpec reads a processors-only tenant spec: LoadSpecLimited plus
// the structural rules of tenant creation — at least one processor, no
// jobs (jobs enter one by one through admission, so each has passed the
// admission test). It is the single validation path shared by the serve
// layer's HTTP tenant creation and the durable store's replay of logged
// creations: a spec that fails one necessarily fails the other.
func LoadProcSpec(r io.Reader, lim Limits) (*System, error) {
	sys, err := LoadSpecLimited(r, lim)
	if err != nil {
		return nil, err
	}
	if len(sys.Jobs) != 0 {
		return nil, fmt.Errorf("model: tenant spec must not carry jobs; admit them through /admit")
	}
	if len(sys.Procs) == 0 {
		return nil, fmt.Errorf("model: tenant spec needs at least one processor")
	}
	return sys, nil
}

// checkJob verifies one job document's collection counts; path prefixes
// the error location ("job" for a standalone document).
func (l Limits) checkJob(j *jsonJob, path string) error {
	over := func(n, max int, where string) error {
		return fmt.Errorf("model: %s: %d entries exceed the limit of %d", where, n, max)
	}
	if l.MaxSubjobs > 0 && len(j.Subjobs) > l.MaxSubjobs {
		return over(len(j.Subjobs), l.MaxSubjobs, path+".subjobs")
	}
	if l.MaxReleases > 0 && len(j.Releases) > l.MaxReleases {
		return over(len(j.Releases), l.MaxReleases, path+".releases")
	}
	for i, sj := range j.Subjobs {
		if l.MaxCriticalSections > 0 && len(sj.CS) > l.MaxCriticalSections {
			return over(len(sj.CS), l.MaxCriticalSections,
				fmt.Sprintf("%s.subjobs[%d].criticalSections", path, i))
		}
	}
	// Precedence lists are capped by the subjob ceiling on both axes: a
	// valid DAG cannot name more hops than the job has, so anything past
	// the cap is rejected here before Validate sizes graphs from it.
	if l.MaxSubjobs > 0 {
		if len(j.Precedence) > l.MaxSubjobs {
			return over(len(j.Precedence), l.MaxSubjobs, path+".precedence")
		}
		for i, preds := range j.Precedence {
			if len(preds) > l.MaxSubjobs {
				return over(len(preds), l.MaxSubjobs,
					fmt.Sprintf("%s.precedence[%d]", path, i))
			}
		}
	}
	return nil
}

// buildJob converts one decoded job document.
func (j *jsonJob) build() Job {
	job := Job{Name: j.Name, Deadline: j.Deadline, Releases: j.Releases, Precedence: j.Precedence}
	for _, sj := range j.Subjobs {
		ms := Subjob{Proc: sj.Proc, Exec: sj.Exec, Priority: sj.Priority, PostDelay: sj.PostDelay}
		for _, cs := range sj.CS {
			ms.CS = append(ms.CS, CriticalSection{Resource: cs.Resource, Start: cs.Start, Duration: cs.Duration})
		}
		job.Subjobs = append(job.Subjobs, ms)
	}
	return job
}

// LoadJobLimited reads one job in the documented jobs[] element format —
// the admission request body of the serve layer — under the same input
// caps as LoadLimited. The job is syntactically checked here; semantic
// validation (processor indices, release ordering) happens against the
// owning system when the job enters an analysis session, exactly as a
// cold Analyze would report it.
func LoadJobLimited(r io.Reader, lim Limits) (Job, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return Job{}, fmt.Errorf("model: reading job: %w", err)
	}
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return Job{}, fmt.Errorf("model: input exceeds the %d-byte limit", lim.MaxBytes)
	}
	var doc jsonJob
	if err := json.Unmarshal(data, &doc); err != nil {
		return Job{}, fmt.Errorf("model: decoding job: %w", err)
	}
	if err := lim.checkJob(&doc, "job"); err != nil {
		return Job{}, err
	}
	return doc.build(), nil
}
