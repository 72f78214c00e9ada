package cpa

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rta/internal/envelope"
	"rta/internal/model"
	"rta/internal/sim"
	"rta/internal/spp"
)

func TestMinSpanAndEtaPlus(t *testing.T) {
	// Periodic with period 10, horizon 4 groups.
	e := envelope.Periodic(10, 4)
	for n, want := range map[int]model.Ticks{1: 0, 2: 10, 3: 20, 5: 40, 9: 80} {
		if got := minSpan(e, n); got != want {
			t.Errorf("minSpan(%d) = %d, want %d", n, got, want)
		}
	}
	// Closed-window convention: at exact multiples one more event fits.
	for delta, want := range map[model.Ticks]int{0: 1, 9: 1, 10: 2, 19: 2, 20: 3, 100: 11} {
		if got := etaPlus(e, delta); got != want {
			t.Errorf("etaPlus(%d) = %d, want %d", delta, got, want)
		}
	}
	// Leaky bucket: burst of 3 then one per 10.
	lb := envelope.LeakyBucket(3, 10, 6)
	if got := etaPlus(lb, 0); got != 3 {
		t.Errorf("burst etaPlus(0) = %d, want 3", got)
	}
	if got := etaPlus(lb, 10); got != 4 {
		t.Errorf("burst etaPlus(10) = %d, want 4", got)
	}
}

func TestSingleNodeClassic(t *testing.T) {
	// RM example: (C=1,T=4), (C=2,T=6), (C=3,T=10): responses 1, 3, 10.
	sys := &System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Tasks: []Task{
			{Deadline: 4, Arrival: envelope.Periodic(4, 8),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 1, Priority: 0}}},
			{Deadline: 6, Arrival: envelope.Periodic(6, 8),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 1}}},
			{Deadline: 10, Arrival: envelope.Periodic(10, 8),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 2}}},
		},
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Ticks{1, 3, 10}
	for k := range want {
		if res.WCRT[k] != want[k] {
			t.Errorf("task %d WCRT = %d, want %d", k+1, res.WCRT[k], want[k])
		}
	}
	if !res.Schedulable(sys) {
		t.Error("classic RM set should be schedulable")
	}
}

func TestOverloadDiverges(t *testing.T) {
	sys := &System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Tasks: []Task{
			{Deadline: 100, Arrival: envelope.Periodic(4, 4),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 0}}},
			{Deadline: 100, Arrival: envelope.Periodic(5, 4),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 1}}},
		},
	}
	res, err := Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCRT[1] != Inf {
		t.Errorf("overloaded task WCRT = %d, want Inf", res.WCRT[1])
	}
}

// TestDominatesMaximalTraceExact: the CPA bound covers every
// envelope-consistent trace, in particular the synchronous maximal one,
// whose exact response the trace analysis computes.
func TestDominatesMaximalTraceExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		// Random two-processor pipeline with random envelopes.
		envs := []envelope.Envelope{
			randomEnvelope(r), randomEnvelope(r), randomEnvelope(r),
		}
		csys := &System{
			Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		}
		msys := &model.System{Procs: csys.Procs}
		const n = 6
		for k, e := range envs {
			subjobs := []model.Subjob{
				{Proc: 0, Exec: model.Ticks(1 + r.Intn(5)), Priority: k},
				{Proc: 1, Exec: model.Ticks(1 + r.Intn(5)), Priority: k},
			}
			csys.Tasks = append(csys.Tasks, Task{
				Deadline: 1 << 24, Arrival: e, Subjobs: subjobs,
			})
			msys.Jobs = append(msys.Jobs, model.Job{
				Deadline: 1 << 24,
				Subjobs:  append([]model.Subjob(nil), subjobs...),
				Releases: e.MaximalTrace(n),
			})
		}
		cres, err := Analyze(csys)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := spp.AnalyzeWith(context.Background(), msys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Run(msys)
		for k := range msys.Jobs {
			if cres.WCRT[k] == Inf {
				continue
			}
			if cres.WCRT[k] < eres.WCRT[k] {
				t.Fatalf("trial %d task %d: CPA %d below trace-exact %d on the maximal trace\nenv %v",
					trial, k+1, cres.WCRT[k], eres.WCRT[k], envs[k].MinGap)
			}
			if w := got.WorstResponse(k); cres.WCRT[k] < w {
				t.Fatalf("trial %d task %d: CPA %d below simulated %d", trial, k+1, cres.WCRT[k], w)
			}
		}
	}
}

func randomEnvelope(r *rand.Rand) envelope.Envelope {
	k := 2 + r.Intn(4)
	e := envelope.Envelope{MinGap: make([]model.Ticks, k)}
	g := model.Ticks(0)
	for i := range e.MinGap {
		g += model.Ticks(r.Intn(15))
		e.MinGap[i] = g
	}
	// Keep long-run rate positive so the analysis converges often.
	if e.MinGap[k-1] == 0 {
		e.MinGap[k-1] = model.Ticks(5 + r.Intn(10))
	}
	return superadditive(e)
}

// superadditive tightens an envelope to its superadditive closure: a
// group of a+2 instances and a group of b+2 instances sharing one instance
// cover a+b+3 consecutive instances, so MinGap[a+b+1] >= MinGap[a] +
// MinGap[b]. The closure is an equivalent, tighter envelope, so the random
// envelopes the tests draw are as tight as their constraints allow.
func superadditive(e envelope.Envelope) envelope.Envelope {
	g := append([]model.Ticks(nil), e.MinGap...)
	for i := 1; i < len(g); i++ {
		for a := 0; a < i; a++ {
			if s := g[a] + g[i-1-a]; s > g[i] {
				g[i] = s
			}
		}
	}
	return envelope.Envelope{MinGap: g}
}

func TestValidation(t *testing.T) {
	// Schedulers whose policy lacks the busy-window capability (FCFS) and
	// schedulers with no registered policy at all must both be rejected
	// with the typed sentinel, not silently analyzed.
	for _, s := range []model.Scheduler{model.FCFS, model.Scheduler(77)} {
		bad := &System{
			Procs: []model.Processor{{Sched: s}},
			Tasks: []Task{{Arrival: envelope.Periodic(5, 3),
				Subjobs: []model.Subjob{{Proc: 0, Exec: 1}}}},
		}
		_, err := Analyze(bad)
		if err == nil {
			t.Errorf("scheduler %d must be rejected", int(s))
		} else if !errors.Is(err, ErrUnsupportedScheduler) {
			t.Errorf("scheduler %d: error %v does not wrap ErrUnsupportedScheduler", int(s), err)
		}
	}
	empty := &System{Procs: []model.Processor{{Sched: model.SPP}}}
	if _, err := Analyze(empty); err == nil {
		t.Error("empty task set must be rejected")
	}
}
