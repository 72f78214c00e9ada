package admission

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"rta/internal/analysis"
	"rta/internal/model"
	"rta/internal/sim"
)

func twoProcs(sched model.Scheduler) []model.Processor {
	return []model.Processor{{Name: "A", Sched: sched}, {Name: "B", Sched: sched}}
}

func job(name string, deadline model.Ticks, exec model.Ticks, prio int, releases ...model.Ticks) model.Job {
	return model.Job{
		Name: name, Deadline: deadline,
		Subjobs:  []model.Subjob{{Proc: 0, Exec: exec, Priority: prio}, {Proc: 1, Exec: exec, Priority: prio}},
		Releases: releases,
	}
}

func TestAdmitUntilFull(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	admitted := 0
	for i := 0; i < 10; i++ {
		ok, err := c.Request(job(name(i), 40, 5, i, 0, 50))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	// Each job needs 10 ticks end to end; deadline 40 fits at most 4-ish
	// on the shared pipeline at the synchronous instant.
	if admitted == 0 || admitted == 10 {
		t.Fatalf("admitted %d of 10; expected saturation in between", admitted)
	}
	// Every admitted job must actually meet its deadline in simulation.
	sys := c.System()
	got := sim.Run(sys)
	for k := range sys.Jobs {
		if w := got.WorstResponse(k); w > sys.Jobs[k].Deadline {
			t.Fatalf("admitted job %s misses: %d > %d", sys.JobName(k), w, sys.Jobs[k].Deadline)
		}
	}
	if c.Len() != admitted {
		t.Fatalf("Len() %d != %d", c.Len(), admitted)
	}
}

func name(i int) string { return string(rune('a' + i)) }

// admitted returns the admitted job names in admission order.
func admitted(t *testing.T, c *Controller) []string {
	t.Helper()
	names, _, err := c.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestRemoveFreesCapacity(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	var names []string
	for i := 0; ; i++ {
		ok, err := c.Request(job(name(i), 40, 5, i, 0, 50))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		names = append(names, name(i))
	}
	rejected := job("zz", 40, 5, 9, 0, 50)
	if ok, _ := c.Request(rejected); ok {
		t.Fatal("expected rejection at saturation")
	}
	if !c.Remove(names[len(names)-1]) {
		t.Fatal("Remove failed")
	}
	if ok, _ := c.Request(rejected); !ok {
		t.Fatal("removal should free capacity for an identical job")
	}
	if c.Remove("nope") {
		t.Fatal("Remove of unknown job reported true")
	}
}

func TestDuplicateAndValidation(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	if _, err := c.Request(model.Job{Name: "", Deadline: 10}); err == nil {
		t.Fatal("unnamed job accepted")
	}
	ok, err := c.Request(job("x", 100, 2, 0, 0))
	if err != nil || !ok {
		t.Fatalf("first admit failed: %v %v", ok, err)
	}
	if _, err := c.Request(job("x", 100, 2, 0, 0)); err != ErrDuplicate {
		t.Fatalf("duplicate err = %v", err)
	}
	// Invalid job (no releases) must error without mutating state.
	if _, err := c.Request(model.Job{Name: "y", Deadline: 10,
		Subjobs: []model.Subjob{{Proc: 0, Exec: 1}}}); err == nil {
		t.Fatal("invalid job accepted")
	}
	if c.Len() != 1 {
		t.Fatal("failed request mutated state")
	}
}

// TestSynthesizedAdmitsAtLeastSubmitted: per request, on the same
// admitted state, the Audsley policy (with its submitted-priorities
// fallback) admits whenever the submitted priorities alone would. Across
// a whole request sequence totals may differ either way (admission is
// path dependent), so the comparison is per decision.
func TestSynthesizedAdmitsAtLeastSubmitted(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	synthOnly, both := 0, 0
	for trial := 0; trial < 25; trial++ {
		synth := New(twoProcs(model.SPP), Synthesized)
		for i := 0; i < 8; i++ {
			// Adversarial fixed priorities: inverted (tightest deadline
			// lowest priority).
			d := model.Ticks(20 + r.Intn(100))
			j := job(name(i), d, model.Ticks(2+r.Intn(5)), int(d), 0, model.Ticks(60+r.Intn(60)))
			// Would the submitted priorities alone admit on the current
			// synthesized state?
			probe := New(twoProcs(model.SPP), KeepPriorities)
			replayed := true
			if sys := synth.System(); sys != nil {
				for k := range sys.Jobs {
					if ok, err := probe.Request(sys.Jobs[k]); err != nil || !ok {
						// Distributed scheduling anomalies can make a
						// prefix of a schedulable set unschedulable; skip
						// the comparison for this request.
						replayed = false
						break
					}
				}
			}
			if !replayed {
				if _, err := synth.Request(j); err != nil {
					t.Fatal(err)
				}
				continue
			}
			fixedOK, err := probe.Request(j)
			if err != nil {
				t.Fatal(err)
			}
			synthOK, err := synth.Request(j)
			if err != nil {
				t.Fatal(err)
			}
			if fixedOK && !synthOK {
				t.Fatalf("trial %d req %d: submitted priorities admit but Synthesized rejects", trial, i)
			}
			if synthOK && !fixedOK {
				synthOnly++
			}
			if synthOK && fixedOK {
				both++
			}
		}
		// Synthesized admissions must really hold up in simulation.
		if sys := synth.System(); sys != nil {
			got := sim.Run(sys)
			for k := range sys.Jobs {
				if w := got.WorstResponse(k); w > sys.Jobs[k].Deadline {
					t.Fatalf("trial %d: synthesized admission broken for %s", trial, sys.JobName(k))
				}
			}
		}
	}
	if synthOnly == 0 {
		t.Log("note: synthesis never beat the submitted priorities at this sample")
	}
	t.Logf("admitted by both: %d; only by synthesis: %d", both, synthOnly)
}

func TestBounds(t *testing.T) {
	c := New(twoProcs(model.SPP), DeadlineMonotonic)
	if b, err := c.Bounds(); err != nil || b != nil {
		t.Fatal("empty controller should have nil bounds")
	}
	if ok, err := c.Request(job("x", 100, 3, 0, 0, 30)); err != nil || !ok {
		t.Fatal("admit failed")
	}
	b, err := c.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 || b[0] != 6 {
		t.Fatalf("bounds = %v, want [6]", b)
	}
}

// TestConcurrentBounds hammers Bounds from reader goroutines while the
// admission set churns, validating the controller's read/write locking
// over the warm session (run under -race in CI).
func TestConcurrentBounds(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	if ok, err := c.Request(job("keep", 1000, 2, 0, 0, 50)); err != nil || !ok {
		t.Fatalf("seed admit failed: %v %v", ok, err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, err := c.Bounds()
				if err != nil {
					t.Errorf("Bounds: %v", err)
					return
				}
				if len(b) == 0 {
					t.Error("Bounds lost the persistent job")
					return
				}
				_ = c.Len()
				_ = c.System()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("churn%d", i%4)
		if ok, err := c.Request(job(name, 200, 3, 1+i%4, 0, 60)); err != nil && err != ErrDuplicate {
			t.Fatalf("Request: %v", err)
		} else if ok && i%2 == 1 {
			c.Remove(name)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRemoveErrRollsBackFailedReassignment forces assign()'s Mutate to
// fail during a removal and checks that nothing is committed: under the
// old code the removal was committed anyway, with the pre-reassignment
// priorities — exactly the corrupted state a resident service would then
// serve from.
func TestRemoveErrRollsBackFailedReassignment(t *testing.T) {
	c := New(twoProcs(model.SPP), DeadlineMonotonic)
	var names []string
	for i := 0; i < 3; i++ {
		n := name(i)
		if ok, err := c.Request(job(n, model.Ticks(100+10*i), 2, 0, 0, 200)); err != nil || !ok {
			t.Fatalf("seed admit %s: ok=%v err=%v", n, ok, err)
		}
		names = append(names, n)
	}
	before, err := c.Bounds()
	if err != nil {
		t.Fatal(err)
	}

	injected := fmt.Errorf("injected reassignment failure")
	testHookAssign = func() error { return injected }
	present, err := c.RemoveErr(names[1])
	testHookAssign = nil
	if !present {
		t.Fatal("RemoveErr reported the job absent")
	}
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("RemoveErr error = %v, want the injected cause", err)
	}

	// The admitted set, the bounds, and the index must all be untouched.
	if got := admitted(t, c); !slices.Equal(got, names) {
		t.Fatalf("admitted after failed removal = %v, want %v", got, names)
	}
	after, err := c.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatalf("bounds changed across a failed removal: %v -> %v", before, after)
	}
	// The index must still address every job correctly: remove each by
	// name and watch the set shrink in order.
	for i, n := range names {
		if ok, err := c.RemoveErr(n); err != nil || !ok {
			t.Fatalf("follow-up remove %s: ok=%v err=%v", n, ok, err)
		}
		if got := admitted(t, c); !slices.Equal(got, names[i+1:]) {
			t.Fatalf("after removing %s: admitted = %v, want %v", n, got, names[i+1:])
		}
	}
}

// TestRemoveErrRollsBackFailedSessionRemove forces sess.Remove to fail
// (via a corrupted index entry, white-box) and checks the staged state is
// rolled back instead of leaking into the next decision.
func TestRemoveErrRollsBackFailedSessionRemove(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	if ok, err := c.Request(job("a", 100, 2, 0, 0, 200)); err != nil || !ok {
		t.Fatalf("seed admit: ok=%v err=%v", ok, err)
	}
	// White-box corruption: an index entry pointing past the job set makes
	// sess.Remove fail after it has already begun staging.
	c.index["ghost"] = 42
	present, err := c.RemoveErr("ghost")
	delete(c.index, "ghost")
	if !present || err == nil {
		t.Fatalf("RemoveErr(ghost) = %v, %v; want present with an error", present, err)
	}
	// The failed stage must not leak: the next request decides on clean
	// state and the committed set is intact.
	if got := admitted(t, c); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("admitted = %v, want [a]", got)
	}
	if ok, err := c.Request(job("b", 100, 2, 1, 0, 200)); err != nil || !ok {
		t.Fatalf("post-failure admit: ok=%v err=%v", ok, err)
	}
	if b, err := c.Bounds(); err != nil || len(b) != 2 {
		t.Fatalf("bounds = %v, %v; want 2 finite bounds", b, err)
	}
}

// TestRemoveCompatWrapper pins the wrapper semantics: true only when the
// job was present and the removal applied.
func TestRemoveCompatWrapper(t *testing.T) {
	c := New(twoProcs(model.SPP), DeadlineMonotonic)
	if ok, err := c.Request(job("a", 100, 2, 0, 0, 200)); err != nil || !ok {
		t.Fatalf("seed admit: ok=%v err=%v", ok, err)
	}
	if c.Remove("nope") {
		t.Fatal("Remove of an absent job reported true")
	}
	testHookAssign = func() error { return fmt.Errorf("boom") }
	removed := c.Remove("a")
	testHookAssign = nil
	if removed {
		t.Fatal("Remove reported true for a failed removal")
	}
	if !c.Remove("a") {
		t.Fatal("Remove failed after the injection was cleared")
	}
}

// TestPerRequestOptions checks RequestOpts/RemoveOpts bind their options
// to one decision only: a canceled context fails that decision without
// mutating state, and the construction-time options are restored for the
// next plain call.
func TestPerRequestOptions(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, err := c.RequestOpts(job("a", 100, 2, 0, 0, 200), analysis.Options{Context: ctx}); err == nil || ok {
		t.Fatalf("canceled RequestOpts = %v, %v; want error", ok, err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("failed request mutated state: %d jobs", got)
	}
	// The canceled context must not stick to the session.
	if ok, err := c.Request(job("a", 100, 2, 0, 0, 200)); err != nil || !ok {
		t.Fatalf("follow-up admit: ok=%v err=%v", ok, err)
	}
	if ok, err := c.RemoveOpts("a", analysis.Options{Workers: 2}); err != nil || !ok {
		t.Fatalf("RemoveOpts: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentChurnRace hammers Request/RemoveErr/Bounds concurrently
// against one controller (run under -race in CI): the Bounds repair path
// upgrades from the read to the write lock, and the staleness re-check in
// that window is what keeps a concurrent commit from being clobbered.
func TestConcurrentChurnRace(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	if ok, err := c.Request(job("keep", 1000, 2, 0, 0, 50)); err != nil || !ok {
		t.Fatalf("seed admit failed: %v %v", ok, err)
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names, bounds, err := c.NamedBounds()
				if err != nil {
					t.Errorf("NamedBounds: %v", err)
					return
				}
				if len(names) != len(bounds) {
					t.Errorf("NamedBounds skew: %d names, %d bounds", len(names), len(bounds))
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("churn%d-%d", w, i%3)
				ok, err := c.Request(job(name, 200, 3, 1+i%4, 0, 60))
				if err != nil && err != ErrDuplicate {
					t.Errorf("Request: %v", err)
					return
				}
				if ok && i%2 == 1 {
					if _, err := c.RemoveErr(name); err != nil {
						t.Errorf("RemoveErr: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
