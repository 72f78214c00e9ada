// Package rta is a response-time analysis toolkit for distributed hard
// real-time systems with bursty job arrivals, reproducing and extending
//
//	C. Li, R. Bettati, W. Zhao. "Response Time Analysis for Distributed
//	Real-Time Systems with Bursty Job Arrivals." ICPP 1998.
//
// A system is a set of processors - each running preemptive static
// priority (SPP), non-preemptive static priority (SPNP), FCFS or
// time-division-multiple-access (TDMA) scheduling, or any discipline
// registered with the internal/sched policy registry - and a set of jobs,
// each a precedence DAG of subjobs across the processors: a chain by
// default, or an explicit fork-join graph (HopSpec.After) where a hop is
// released once all its predecessors complete and a hop with several
// successors forks to all of them. Jobs release instances at arbitrary
// times given as concrete traces: periodic, sporadic and bursty patterns
// are all just traces.
//
// Three analyses compute worst-case end-to-end response times:
//
//   - Analyze/Exact: the paper's exact analysis (Theorems 1-3) for
//     all-SPP systems; on any trace it reproduces the discrete-event
//     schedule instant by instant.
//   - Approximate: the paper's Theorem 4 pipeline for arbitrary scheduler
//     mixes, with sound service bounds for SPNP (Theorems 5-6) and FCFS
//     (Theorems 7-9).
//   - Iterative: the fixed-point extension sketched in the paper's
//     conclusion for systems with physical or logical loops.
//
// Simulate runs the matching discrete-event simulator, and Holistic
// exposes the Sun&Liu-style baseline the paper compares against. The
// subpackages of internal/ carry the machinery: the exact integer curve
// algebra, the job-shop workload generator of the evaluation section, and
// the experiment harness regenerating the paper's figures (see the
// rta-jobshop command).
//
// # Quick start
//
//	sys := rta.NewSystem().
//		Processor("CPU", rta.SPP).
//		Processor("NIC", rta.SPP).
//		Job("control", 9_000,
//			rta.Hop("CPU", 2_000, 0),
//			rta.Hop("NIC", 1_000, 0)).
//		Releases("control", 0, 10_000, 20_000).
//		Build()
//	res, err := rta.Analyze(sys)
//
// All times are integer ticks; pick any resolution and stay consistent.
package rta

import (
	"fmt"
	"io"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/conformance"
	"rta/internal/curve"
	"rta/internal/dot"
	"rta/internal/envelope"
	"rta/internal/fault"
	"rta/internal/gantt"
	"rta/internal/metrics"
	"rta/internal/model"
	"rta/internal/network"
	"rta/internal/periodic"
	"rta/internal/priority"
	"rta/internal/report"
	"rta/internal/sched"
	"rta/internal/sched/tdma"
	"rta/internal/sensitivity"
	"rta/internal/sim"
	"rta/internal/sunliu"
)

// Core model vocabulary, re-exported for downstream use.
type (
	// System is a complete analyzable system: processors, jobs, traces.
	System = model.System
	// Job is a precedence DAG of subjobs (a chain when no explicit
	// precedence is given) with a deadline and a release trace.
	Job = model.Job
	// Subjob is one hop of a job: execution time and priority on a
	// processor.
	Subjob = model.Subjob
	// Processor is one processing resource with its scheduler.
	Processor = model.Processor
	// Scheduler selects the per-processor scheduling discipline.
	Scheduler = model.Scheduler
	// Ticks is integer model time.
	Ticks = model.Ticks
	// Result carries worst-case response bounds; see the analysis
	// package for field documentation.
	Result = analysis.Result
	// SimResult carries observed times from the discrete-event
	// simulator.
	SimResult = sim.Result
)

// Scheduler values: the paper's disciplines (Section 3.2) plus the TDMA
// extension (importing this package registers all four).
const (
	SPP  = model.SPP
	SPNP = model.SPNP
	FCFS = model.FCFS
	TDMA = tdma.Sched
)

// Inf marks an unbounded response time (an instance the analysis cannot
// certify to complete).
const Inf = curve.Inf

// IsInf reports whether a response bound is unbounded.
func IsInf(t Ticks) bool { return curve.IsInf(t) }

// Options tune how an analysis executes without changing what it
// computes; see analysis.Options. The zero value runs serially,
// uncancellable and unbudgeted.
type Options = analysis.Options

// Budget caps the resources of one analysis run (curve breakpoints,
// fixed-point steps); see analysis.Budget. The zero value is unlimited.
type Budget = analysis.Budget

// InternalError is the typed error returned when an engine invariant
// panics mid-analysis: the public entry points recover the panic and
// report it with job/subjob/processor context instead of crashing the
// process. One of these indicates a toolkit bug, never an input error.
type InternalError = fault.InternalError

// ErrBudgetExceeded identifies analyses stopped by an Options.Budget
// ceiling: errors.Is(err, rta.ErrBudgetExceeded) holds, and the Result
// returned next to the error is partial — jobs whose computation
// completed keep their finite bounds, the rest report Inf.
var ErrBudgetExceeded = fault.ErrBudgetExceeded

// Analyze computes worst-case end-to-end response times, using the exact
// analysis when every processor runs SPP and the approximate Theorem 4
// pipeline otherwise.
func Analyze(sys *System) (*Result, error) { return analysis.Analyze(sys) }

// AnalyzeOpts is Analyze with execution options (e.g. a worker pool for
// the level-parallel engines). Results are identical to Analyze.
func AnalyzeOpts(sys *System, opts Options) (*Result, error) { return analysis.AnalyzeOpts(sys, opts) }

// Exact runs the exact analysis (all processors must run SPP).
func Exact(sys *System) (*Result, error) { return analysis.Exact(sys) }

// ExactOpts is Exact with execution options.
func ExactOpts(sys *System, opts Options) (*Result, error) { return analysis.ExactOpts(sys, opts) }

// Approximate runs the Theorem 4 pipeline on any scheduler mix.
func Approximate(sys *System) (*Result, error) { return analysis.Approximate(sys) }

// ApproximateOpts is Approximate with execution options.
func ApproximateOpts(sys *System, opts Options) (*Result, error) {
	return analysis.ApproximateOpts(sys, opts)
}

// Iterative runs the fixed-point extension for systems with cyclic subjob
// dependencies. maxRounds <= 0 selects the default bound.
func Iterative(sys *System, maxRounds int) (*Result, error) {
	return analysis.Iterative(sys, maxRounds)
}

// IterativeOpts is Iterative with execution options.
func IterativeOpts(sys *System, maxRounds int, opts Options) (*Result, error) {
	return analysis.IterativeOpts(sys, maxRounds, opts)
}

// Simulate runs the discrete-event simulator until every released
// instance completes and returns the observed times. It panics on an
// invalid system (legacy convenience); request-serving callers should use
// SimulateErr or SimulateOpts.
func Simulate(sys *System) *SimResult { return sim.Run(sys) }

// SimOptions tune one simulation run (cancellation context, per-instance
// execution times, FCFS tie-breaking); see sim.Options.
type SimOptions = sim.Options

// SimulateErr is Simulate with errors instead of panics: invalid systems
// and internal invariant violations surface as a non-nil error.
func SimulateErr(sys *System) (*SimResult, error) { return sim.RunErr(sys) }

// SimulateOpts is SimulateErr with options.
func SimulateOpts(sys *System, opts SimOptions) (*SimResult, error) { return sim.RunOpts(sys, opts) }

// Holistic exposes the Sun&Liu-style baseline for periodic task sets.
type (
	// HolisticTask is a periodic end-to-end task for the baseline.
	HolisticTask = sunliu.Task
	// HolisticSystem is a periodic task set over SPP processors.
	HolisticSystem = sunliu.System
	// HolisticResult carries the baseline's per-task bounds.
	HolisticResult = sunliu.Result
)

// Holistic runs the Sun&Liu-style iterative holistic analysis.
func Holistic(sys *HolisticSystem) (*HolisticResult, error) { return sunliu.Analyze(sys) }

// Envelope re-exports the arrival-envelope machinery: minimum-distance
// arrival contracts (leaky buckets, periodic-with-jitter), extraction
// from traces, and maximal-trace generation for envelope-based admission.
type Envelope = envelope.Envelope

// PeriodicEnvelope returns the envelope of a strictly periodic stream.
func PeriodicEnvelope(period Ticks, n int) Envelope { return envelope.Periodic(period, n) }

// JitterEnvelope returns a periodic-with-jitter envelope.
func JitterEnvelope(period, jitter Ticks, n int) Envelope {
	return envelope.PeriodicJitter(period, jitter, n)
}

// BurstEnvelope returns a leaky-bucket envelope: bursts of up to `burst`
// instances, one instance per `period` sustained.
func BurstEnvelope(burst int, period Ticks, n int) Envelope {
	return envelope.LeakyBucket(burst, period, n)
}

// EnvelopeFromTrace extracts the tightest minimum-distance envelope a
// measured trace satisfies.
func EnvelopeFromTrace(trace []Ticks, maxGroup int) Envelope {
	return envelope.FromTrace(trace, maxGroup)
}

// RenderGantt draws the simulated schedule as a per-processor text
// timeline (width columns; 0 selects the default).
func RenderGantt(w io.Writer, sys *System, res *SimResult, width int) {
	gantt.Render(w, sys, res, gantt.Options{Width: width})
}

// Slack returns each job's deadline margin (deadline minus worst-case
// response bound) under the automatically selected analysis.
func Slack(sys *System) ([]Ticks, error) {
	return sensitivity.Slack(sys, func(s *System) ([]Ticks, error) {
		res, err := analysis.Analyze(s)
		if err != nil {
			return nil, err
		}
		return res.WCRTSum, nil
	})
}

// Breakdown returns the largest uniform execution-time scaling (in steps
// of 1/128 up to maxScale) below which the system stays schedulable; see
// the sensitivity package for why this is a frontier scan.
func Breakdown(sys *System, maxScale float64) (float64, error) {
	verdict := sensitivity.Theorem4Verdict
	if sched.ExactAll(sys) && !sys.HasResources() {
		verdict = sensitivity.ExactVerdict
	}
	return sensitivity.Breakdown(sys, verdict, maxScale, 128)
}

// AssignPriorities applies the paper's relative-deadline-monotonic rule
// (Equation 24) to every processor.
func AssignPriorities(sys *System) { priority.RelativeDeadlineMonotonic(sys) }

// SynthesizePriorities searches for a schedulable per-processor priority
// assignment with Audsley's lowest-priority-first algorithm, using the
// exact analysis as the oracle on all-SPP resource-free systems and the
// Theorem 4 bounds otherwise. It mutates sys's priorities and reports
// success; on failure the priorities are unspecified and should be
// reassigned (e.g. with AssignPriorities). Optimal on single-processor
// systems; a verified heuristic on distributed ones.
func SynthesizePriorities(sys *System) (bool, error) {
	exact := sched.ExactAll(sys) && !sys.HasResources()
	return priority.Audsley(sys, func(s *System, job int) (bool, error) {
		var res *Result
		var err error
		if exact {
			res, err = analysis.Exact(s)
		} else {
			res, err = analysis.Approximate(s)
		}
		if err != nil {
			return false, err
		}
		return !IsInf(res.WCRTSum[job]) && res.WCRTSum[job] <= s.Jobs[job].Deadline, nil
	})
}

// Periodic front end: classic periodic tasks expanded to traces.
type (
	// PeriodicTask is a periodic end-to-end task (period, phase,
	// deadline, chain).
	PeriodicTask = periodic.Task
	// PeriodicConfig controls trace expansion (hyperperiods, caps).
	PeriodicConfig = periodic.Config
)

// BuildPeriodic expands periodic tasks into a trace-based System over a
// hyperperiod-derived horizon.
func BuildPeriodic(procs []Processor, tasks []PeriodicTask, cfg PeriodicConfig) (*System, error) {
	return periodic.Build(procs, tasks, cfg)
}

// Admission control: the run-time face of the analysis.
type (
	// AdmissionController maintains an admitted job set over a fixed
	// processor set and grants requests the analysis certifies.
	AdmissionController = admission.Controller
	// AdmissionPolicy selects how priorities are maintained.
	AdmissionPolicy = admission.PriorityPolicy
)

// Admission policies.
const (
	// KeepPriorities uses the priorities submitted with each job.
	KeepPriorities = admission.KeepPriorities
	// DeadlineMonotonicPolicy reassigns Equation (24) priorities on every
	// change.
	DeadlineMonotonicPolicy = admission.DeadlineMonotonic
	// SynthesizedPolicy searches for a schedulable assignment with
	// Audsley's algorithm, falling back to the submitted priorities.
	SynthesizedPolicy = admission.Synthesized
)

// NewAdmission creates an admission controller over the processors.
func NewAdmission(procs []Processor, policy AdmissionPolicy) *AdmissionController {
	return admission.New(procs, policy)
}

// Network modeling: links as processors, flows as jobs (see the network
// package for the mapping).
type (
	// Net is a set of links and flows convertible to a System.
	Net = network.Net
	// Link is a transmission resource.
	Link = network.Link
	// Flow is a packet stream through a path of links.
	Flow = network.Flow
)

// SimReport summarizes a simulation run (distributions, miss ratios,
// processor utilization).
type SimReport = metrics.Report

// Summarize computes response-time distributions, deadline-miss ratios
// and processor utilization from a simulation run.
func Summarize(sys *System, res *SimResult) *SimReport { return metrics.Summarize(sys, res) }

// RenderMetrics writes the report as aligned text tables.
func RenderMetrics(w io.Writer, sys *System, rep *SimReport) { metrics.Render(w, sys, rep) }

// WriteReport analyzes (and, unless skipSim, simulates) the system and
// writes a complete markdown dossier: verdicts, per-hop detail, response
// distributions, processor load and the schedule timeline.
func WriteReport(w io.Writer, sys *System, title string, skipSim bool) error {
	res, err := analysis.Analyze(sys)
	if err != nil {
		return err
	}
	var simRes *SimResult
	if !skipSim {
		simRes = sim.Run(sys)
	}
	return report.Write(w, sys, res, simRes, report.Options{Title: title})
}

// WriteDOT exports the system structure as a Graphviz digraph.
func WriteDOT(w io.Writer, sys *System) { dot.Write(w, sys) }

// Conformance checking: observed execution logs against the model.
type (
	// ObservationLog is a set of observed instance hops.
	ObservationLog = conformance.Log
	// ObservationRecord is one observed instance hop.
	ObservationRecord = conformance.Record
	// ConformanceViolation describes one check failure.
	ConformanceViolation = conformance.Violation
)

// CheckConformance validates an observation log against the system and
// optional per-job bounds; see the conformance package.
func CheckConformance(sys *System, log *ObservationLog, bounds []Ticks) []ConformanceViolation {
	return conformance.Check(sys, log, bounds)
}

// AggregateEnvelopes returns an envelope satisfied by the superposition
// of traces satisfying the inputs (flow bundles).
func AggregateEnvelopes(envs ...Envelope) Envelope { return envelope.Aggregate(envs...) }

// Builder assembles a System fluently. Errors are accumulated and
// reported by Build.
type Builder struct {
	sys   System
	procs map[string]int
	jobs  map[string]int
	errs  []error
}

// NewSystem starts a builder.
func NewSystem() *Builder {
	return &Builder{procs: map[string]int{}, jobs: map[string]int{}}
}

// Processor adds a processor with the given scheduler.
func (b *Builder) Processor(name string, sched Scheduler) *Builder {
	if _, dup := b.procs[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("rta: duplicate processor %q", name))
		return b
	}
	b.procs[name] = len(b.sys.Procs)
	b.sys.Procs = append(b.sys.Procs, Processor{Name: name, Sched: sched})
	return b
}

// SlottedProcessor adds a TDMA processor: within each repetition of the
// cycle (anchored at offset), the i-th subjob assigned to the processor
// owns the i-th window of slot ticks.
func (b *Builder) SlottedProcessor(name string, slot, cycle, offset Ticks) *Builder {
	if _, dup := b.procs[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("rta: duplicate processor %q", name))
		return b
	}
	b.procs[name] = len(b.sys.Procs)
	b.sys.Procs = append(b.sys.Procs, Processor{
		Name: name, Sched: TDMA, Slot: slot, Cycle: cycle, Offset: offset,
	})
	return b
}

// CriticalSection declares that a hop holds a shared local resource over
// a span of its execution (analyzed with priority-ceiling blocking,
// simulated with the immediate priority ceiling protocol).
type CriticalSection = model.CriticalSection

// HopSpec describes one hop for Builder.Job.
type HopSpec struct {
	Proc     string
	Exec     Ticks
	Priority int
	// PostDelay is the communication latency to the next hop.
	PostDelay Ticks
	// CS are the hop's critical sections on shared local resources.
	CS []CriticalSection
	// Preds, when any hop of the job sets one, switches the job from a
	// chain to an explicit precedence DAG; see HopSpec.After.
	Preds    []int
	hasPreds bool
}

// Hop is a convenience constructor for HopSpec.
func Hop(proc string, exec Ticks, priority int) HopSpec {
	return HopSpec{Proc: proc, Exec: exec, Priority: priority}
}

// Link returns a copy of the hop with a communication latency to the
// next hop.
func (h HopSpec) Link(delay Ticks) HopSpec {
	h.PostDelay = delay
	return h
}

// Lock returns a copy of the hop that holds the given resource from
// executed-time offset start for the given duration.
func (h HopSpec) Lock(resource int, start, duration Ticks) HopSpec {
	h.CS = append(append([]CriticalSection(nil), h.CS...),
		CriticalSection{Resource: resource, Start: start, Duration: duration})
	return h
}

// After returns a copy of the hop that is released only once every listed
// hop (by position in the Job call) has completed — the join rule: the
// latest predecessor completion plus its link latency. As soon as any hop
// of a job uses After, the whole job is read as an explicit precedence
// DAG: each hop's predecessors are exactly its After list, hops with no
// After are sources released by the job's release trace, and a hop with
// several successors forks to all of them. Calling After with no
// arguments marks an explicit source. Jobs where no hop uses After remain
// chains, exactly as before.
func (h HopSpec) After(preds ...int) HopSpec {
	h.Preds = append(append([]int(nil), h.Preds...), preds...)
	h.hasPreds = true
	return h
}

// Job adds a job with an end-to-end deadline and its hops: a chain in the
// given order, or — when any hop carries After — an explicit fork-join
// precedence DAG.
func (b *Builder) Job(name string, deadline Ticks, hops ...HopSpec) *Builder {
	if _, dup := b.jobs[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("rta: duplicate job %q", name))
		return b
	}
	job := Job{Name: name, Deadline: deadline}
	dag := false
	for _, h := range hops {
		if h.hasPreds {
			dag = true
		}
	}
	for _, h := range hops {
		p, ok := b.procs[h.Proc]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("rta: job %q references unknown processor %q", name, h.Proc))
			continue
		}
		job.Subjobs = append(job.Subjobs, Subjob{
			Proc: p, Exec: h.Exec, Priority: h.Priority,
			PostDelay: h.PostDelay, CS: h.CS,
		})
		if dag {
			job.Precedence = append(job.Precedence, append([]int(nil), h.Preds...))
		}
	}
	b.jobs[name] = len(b.sys.Jobs)
	b.sys.Jobs = append(b.sys.Jobs, job)
	return b
}

// Releases sets the release trace of a job's first subjob (sorted
// ascending; duplicates model simultaneous bursts).
func (b *Builder) Releases(job string, times ...Ticks) *Builder {
	k, ok := b.jobs[job]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("rta: releases for unknown job %q", job))
		return b
	}
	b.sys.Jobs[k].Releases = append(b.sys.Jobs[k].Releases, times...)
	return b
}

// Build validates and returns the system, panicking on builder misuse
// (programming errors, not runtime conditions). Use BuildErr to handle
// errors explicitly.
func (b *Builder) Build() *System {
	sys, err := b.BuildErr()
	if err != nil {
		panic(err)
	}
	return sys
}

// BuildErr validates and returns the system.
func (b *Builder) BuildErr() (*System, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.sys.Validate(); err != nil {
		return nil, err
	}
	return &b.sys, nil
}
