package envelope

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/spp"
)

func TestPeriodicEnvelope(t *testing.T) {
	e := Periodic(10, 4)
	trace := e.MaximalTrace(5)
	want := []model.Ticks{0, 10, 20, 30, 40}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if !e.Admits(trace) {
		t.Fatal("maximal trace must satisfy its own envelope")
	}
	if e.Admits([]model.Ticks{0, 9, 20}) {
		t.Fatal("early release must violate the envelope")
	}
}

func TestLeakyBucketEnvelope(t *testing.T) {
	e := LeakyBucket(3, 10, 6)
	trace := e.MaximalTrace(6)
	// Burst of three at zero, then one per period on average: the
	// sustained constraint (groups of 4+) paces the tail.
	if trace[0] != 0 || trace[1] != 0 || trace[2] != 0 {
		t.Fatalf("burst not maximal: %v", trace)
	}
	if !e.Admits(trace) {
		t.Fatal("maximal trace must satisfy its own envelope")
	}
	for j := 3; j < len(trace); j++ {
		if trace[j]-trace[j-3] < 10 {
			t.Fatalf("sustained rate violated: %v", trace)
		}
	}
}

func TestPeriodicJitterEnvelope(t *testing.T) {
	e := PeriodicJitter(10, 4, 5)
	trace := e.MaximalTrace(4)
	// First gap compressed by jitter: t_1 = 10-4 = 6.
	if trace[1] != 6 {
		t.Fatalf("jittered first gap = %d, want 6 (%v)", trace[1], trace)
	}
	if !e.Admits(trace) {
		t.Fatal("maximal trace must satisfy its own envelope")
	}
}

func TestFromTraceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		// Random trace.
		n := 3 + r.Intn(20)
		trace := make([]model.Ticks, n)
		t0 := model.Ticks(0)
		for i := range trace {
			trace[i] = t0
			if r.Intn(3) > 0 {
				t0 += model.Ticks(r.Intn(30))
			}
		}
		e := FromTrace(trace, 6)
		if err := e.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !e.Admits(trace) {
			t.Fatalf("trial %d: extracted envelope rejects its own trace %v (%v)", trial, trace, e.MinGap)
		}
		// The maximal trace of the extracted envelope is at least as
		// dense as the original everywhere (it is the worst case).
		m := e.MaximalTrace(n)
		for i := range m {
			if m[i] > trace[i]-trace[0] {
				t.Fatalf("trial %d: maximal trace later than source at %d: %v vs %v",
					trial, i, m, trace)
			}
		}
	}
}

// TestGreedyIsEarliest: no envelope-consistent trace can release any
// instance earlier than the greedy maximal trace.
func TestGreedyIsEarliest(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		e := randomEnvelope(r)
		n := 2 + r.Intn(15)
		greedy := e.MaximalTrace(n)
		random := randomConsistentTrace(r, e, n)
		if !e.Admits(random) {
			t.Fatalf("trial %d: generator produced inconsistent trace", trial)
		}
		for i := range greedy {
			if random[i]-random[0] < greedy[i] {
				t.Fatalf("trial %d: instance %d at %d beats greedy %d\nenv %v\nrandom %v\ngreedy %v",
					trial, i, random[i]-random[0], greedy[i], e.MinGap, random, greedy)
			}
		}
	}
}

// TestCriticalInstantSPP: on a preemptive single processor, the response
// time under the synchronous maximal traces dominates randomized
// envelope-consistent traces (the classical critical-instant argument).
func TestCriticalInstantSPP(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		envs := []Envelope{randomEnvelope(r), randomEnvelope(r)}
		execs := []model.Ticks{model.Ticks(1 + r.Intn(6)), model.Ticks(1 + r.Intn(6))}
		const n = 6
		build := func(traces [][]model.Ticks) *model.System {
			sys := &model.System{Procs: []model.Processor{{Sched: model.SPP}}}
			for k := range traces {
				sys.Jobs = append(sys.Jobs, model.Job{
					Deadline: 1,
					Subjobs:  []model.Subjob{{Proc: 0, Exec: execs[k], Priority: k}},
					Releases: traces[k],
				})
			}
			return sys
		}
		worst := build([][]model.Ticks{envs[0].MaximalTrace(n), envs[1].MaximalTrace(n)})
		bound, err := spp.AnalyzeWith(context.Background(), worst, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 10; rep++ {
			tr := [][]model.Ticks{
				randomConsistentTrace(r, envs[0], n),
				randomConsistentTrace(r, envs[1], n),
			}
			res, err := spp.AnalyzeWith(context.Background(), build(tr), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range tr {
				if res.WCRT[k] > bound.WCRT[k] {
					t.Fatalf("trial %d rep %d: job %d random trace response %d exceeds critical-instant bound %d\nenv %v / %v",
						trial, rep, k, res.WCRT[k], bound.WCRT[k], envs[0].MinGap, envs[1].MinGap)
				}
			}
		}
	}
}

func randomEnvelope(r *rand.Rand) Envelope {
	k := 1 + r.Intn(4)
	e := Envelope{MinGap: make([]model.Ticks, k)}
	g := model.Ticks(0)
	for i := range e.MinGap {
		g += model.Ticks(r.Intn(12))
		e.MinGap[i] = g
	}
	return superadditive(e)
}

// superadditive tightens an envelope to its superadditive closure: a
// group of a+2 instances and a group of b+2 instances sharing one instance
// cover a+b+3 consecutive instances, so MinGap[a+b+1] >= MinGap[a] +
// MinGap[b]. The closure is an equivalent, tighter envelope, so the random
// envelopes the tests draw are as tight as their constraints allow.
func superadditive(e Envelope) Envelope {
	g := append([]model.Ticks(nil), e.MinGap...)
	for i := 1; i < len(g); i++ {
		for a := 0; a < i; a++ {
			if s := g[a] + g[i-1-a]; s > g[i] {
				g[i] = s
			}
		}
	}
	return Envelope{MinGap: g}
}

// randomConsistentTrace perturbs the greedy trace by random delays while
// keeping it sorted; delaying releases can never violate a
// minimum-distance envelope... but shifting individual instances later
// while keeping order preserves all pairwise gaps or increases them.
func randomConsistentTrace(r *rand.Rand, e Envelope, n int) []model.Ticks {
	base := e.MaximalTrace(n)
	out := make([]model.Ticks, n)
	shift := model.Ticks(0)
	for i := range base {
		shift += model.Ticks(r.Intn(8))
		out[i] = base[i] + shift
	}
	return out
}

// TestAggregateSoundOnMerges: the aggregate envelope admits the merge of
// any consistent source traces.
func TestAggregateSoundOnMerges(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(3)
		envs := make([]Envelope, n)
		var traces []model.Ticks
		for i := range envs {
			envs[i] = randomEnvelope(r)
			traces = append(traces, randomConsistentTrace(r, envs[i], 2+r.Intn(8))...)
		}
		sortTicks(traces)
		agg := Aggregate(envs...)
		if err := agg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !agg.Admits(traces) {
			t.Fatalf("trial %d: aggregate rejects a valid merge\nagg=%v\ntraces=%v",
				trial, agg.MinGap, traces)
		}
	}
}

func sortTicks(ts []model.Ticks) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
