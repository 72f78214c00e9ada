package admission

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rta/internal/analysis"
	"rta/internal/model"
)

// TestReplayMatchesLive drives a live controller through a random churn
// of admits, in-place updates and removals while a log of (op, job, pri)
// tuples accumulates, then replays the log into a fresh controller and
// demands field-identical names and bounds — the property the durable
// store's recovery leans on. Some removals run under an already-canceled
// context: they commit with a stale result (the RemoveErr contract) and
// are logged like any other.
func TestReplayMatchesLive(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, policy := range []PriorityPolicy{KeepPriorities, DeadlineMonotonic, Synthesized} {
		policy := policy
		t.Run([...]string{"keep", "dm", "audsley"}[policy], func(t *testing.T) {
			rng := rand.New(rand.NewSource(7 + int64(policy)))
			live := New(twoProcs(model.SPP), policy)
			type entry struct {
				kind string
				job  model.Job
				name string
				pri  [][]int
			}
			var log []entry
			var admitted []string
			var updates, staleRemoves int
			for i := 0; i < 60; i++ {
				j := job(name(i), model.Ticks(30+rng.Intn(40)), model.Ticks(2+rng.Intn(5)), rng.Intn(8), 0, 50)
				switch op := rng.Intn(5); {
				case len(admitted) > 0 && op == 0:
					idx := rng.Intn(len(admitted))
					nm := admitted[idx]
					opts := analysis.Options{}
					if rng.Intn(2) == 0 {
						opts.Context = canceled
						staleRemoves++
					}
					present, err := live.RemoveOpts(nm, opts)
					if err != nil || !present {
						t.Fatalf("remove %q: present=%v err=%v", nm, present, err)
					}
					admitted = append(admitted[:idx], admitted[idx+1:]...)
					log = append(log, entry{kind: "remove", name: nm, pri: live.Priorities()})
				case len(admitted) > 0 && op == 1:
					j.Name = admitted[rng.Intn(len(admitted))]
					present, ok, err := live.UpdateOpts(j, analysis.Options{})
					if err != nil || !present {
						t.Fatalf("update %q: present=%v err=%v", j.Name, present, err)
					}
					if ok {
						updates++
						log = append(log, entry{kind: "update", job: j, pri: live.Priorities()})
					}
				default:
					ok, err := live.Request(j)
					if err != nil {
						t.Fatalf("request %q: %v", j.Name, err)
					}
					if ok {
						admitted = append(admitted, j.Name)
						log = append(log, entry{kind: "admit", job: j, pri: live.Priorities()})
					}
				}
			}
			if len(admitted) == 0 || updates == 0 || staleRemoves == 0 {
				t.Fatalf("churn left %d admitted, %d updates, %d stale removals; test is vacuous",
					len(admitted), updates, staleRemoves)
			}
			liveNames, liveBounds, err := live.NamedBounds()
			if err != nil {
				t.Fatal(err)
			}

			replay := New(twoProcs(model.SPP), policy)
			for _, e := range log {
				switch e.kind {
				case "admit":
					err = replay.Reinstate(e.job, e.pri)
				case "update":
					err = replay.ReinstateUpdate(e.job, e.pri)
				case "remove":
					err = replay.ReinstateRemove(e.name, e.pri)
				}
				if err != nil {
					t.Fatalf("replay %s %q%q: %v", e.kind, e.job.Name, e.name, err)
				}
			}
			gotNames, gotBounds, err := replay.NamedBounds()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotNames, liveNames) {
				t.Fatalf("replayed names %v != live %v", gotNames, liveNames)
			}
			if !reflect.DeepEqual(gotBounds, liveBounds) {
				t.Fatalf("replayed bounds %v != live %v", gotBounds, liveBounds)
			}
			if !reflect.DeepEqual(replay.Priorities(), live.Priorities()) {
				t.Fatalf("replayed priorities %v != live %v", replay.Priorities(), live.Priorities())
			}
		})
	}
}

// TestReplayPinsLoggedPriorities: replay applies the logged priority
// vector as is and never re-runs the policy. Each op is replayed with a
// vector other than the one the live policy chose for it; Priorities()
// must then be the logged vector. The second op's vector makes job a
// miss its deadline, and replay still commits it: replay does not
// re-decide history either.
func TestReplayPinsLoggedPriorities(t *testing.T) {
	granted := func(ok bool, err error) error {
		if err == nil && !ok {
			err = errors.New("denied")
		}
		return err
	}
	a, b := job("a", 12, 5, 1, 0, 50), job("b", 80, 5, 2, 0, 100)
	lighter := job("b", 80, 3, 2, 0, 100)
	steps := []struct {
		live   func(c *Controller) error
		replay func(c *Controller, pri [][]int) error
		pinned [][]int
		misses bool
	}{
		{func(c *Controller) error { return granted(c.Request(a)) },
			func(c *Controller, pri [][]int) error { return c.Reinstate(a, pri) }, [][]int{{7, 3}}, false},
		{func(c *Controller) error { return granted(c.Request(b)) },
			func(c *Controller, pri [][]int) error { return c.Reinstate(b, pri) }, [][]int{{9, 8}, {1, 2}}, true},
		{func(c *Controller) error {
			_, ok, err := c.UpdateOpts(lighter, analysis.Options{})
			return granted(ok, err)
		}, func(c *Controller, pri [][]int) error { return c.ReinstateUpdate(lighter, pri) }, [][]int{{6, 5}, {0, 0}}, false},
		{func(c *Controller) error { return granted(c.RemoveErr("a")) },
			func(c *Controller, pri [][]int) error { return c.ReinstateRemove("a", pri) }, [][]int{{4, 11}}, false},
	}
	for _, policy := range []PriorityPolicy{DeadlineMonotonic, Synthesized} {
		t.Run([...]string{"keep", "dm", "audsley"}[policy], func(t *testing.T) {
			live := New(twoProcs(model.SPP), policy)
			replay := New(twoProcs(model.SPP), policy)
			for i, st := range steps {
				if err := st.live(live); err != nil {
					t.Fatalf("step %d live: %v", i, err)
				}
				if chosen := live.Priorities(); reflect.DeepEqual(chosen, st.pinned) {
					t.Fatalf("step %d: the policy chose the pinned vector %v; test is vacuous", i, chosen)
				}
				if err := st.replay(replay, st.pinned); err != nil {
					t.Fatalf("step %d replay: %v", i, err)
				}
				if got := replay.Priorities(); !reflect.DeepEqual(got, st.pinned) {
					t.Fatalf("step %d: replayed priorities %v, want the logged %v", i, got, st.pinned)
				}
				if bounds, err := replay.Bounds(); err != nil || st.misses && bounds[0] <= a.Deadline {
					t.Fatalf("step %d: bounds %v, %v; want job a past its deadline %d", i, bounds, err, a.Deadline)
				}
			}
		})
	}
}

// A snapshot-seeded controller (ReinstateAll with priorities baked in)
// must agree with the op-by-op live state too.
func TestReinstateAllMatchesLive(t *testing.T) {
	live := New(twoProcs(model.SPP), DeadlineMonotonic)
	var kept []model.Job
	for i := 0; i < 6; i++ {
		j := job(name(i), model.Ticks(40+5*i), 4, 0, 0, 60)
		ok, err := live.Request(j)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			kept = append(kept, j)
		}
	}
	if len(kept) < 2 {
		t.Fatalf("only %d admitted; test is vacuous", len(kept))
	}
	liveNames, liveBounds, err := live.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}
	// Bake the committed priorities into the records, as a snapshot does.
	sys := live.System()
	jobs := make([]model.Job, len(sys.Jobs))
	copy(jobs, sys.Jobs)

	replay := New(twoProcs(model.SPP), DeadlineMonotonic)
	if err := replay.ReinstateAll(jobs); err != nil {
		t.Fatal(err)
	}
	gotNames, gotBounds, err := replay.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNames, liveNames) || !reflect.DeepEqual(gotBounds, liveBounds) {
		t.Fatalf("snapshot replay (%v, %v) != live (%v, %v)", gotNames, gotBounds, liveNames, liveBounds)
	}
	// Seeding a non-empty controller is refused.
	if err := replay.ReinstateAll(jobs); err == nil {
		t.Fatal("ReinstateAll on a non-empty controller succeeded")
	}
}

func TestUpdateDecision(t *testing.T) {
	c := New(twoProcs(model.SPP), KeepPriorities)
	j := job("a", 40, 5, 1, 0, 50)
	if ok, err := c.Request(j); err != nil || !ok {
		t.Fatalf("seed admit: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Request(job("b", 40, 5, 2, 0, 50)); err != nil || !ok {
		t.Fatalf("seed admit b: ok=%v err=%v", ok, err)
	}
	base, _, err := c.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}

	// Absent name: present=false, no decision.
	present, ok, err := c.UpdateOpts(job("ghost", 40, 5, 1, 0, 50), analysis.Options{})
	if present || ok || err != nil {
		t.Fatalf("update of absent job: present=%v ok=%v err=%v", present, ok, err)
	}
	// A harmless shrink is accepted.
	lighter := job("a", 40, 3, 1, 0, 50)
	present, ok, err = c.UpdateOpts(lighter, analysis.Options{})
	if !present || !ok || err != nil {
		t.Fatalf("lighter update: present=%v ok=%v err=%v", present, ok, err)
	}
	// An update that blows every deadline is rejected and rolls back.
	heavy := job("a", 40, 39, 1, 0, 50)
	present, ok, err = c.UpdateOpts(heavy, analysis.Options{})
	if !present || ok || err != nil {
		t.Fatalf("heavy update: present=%v ok=%v err=%v", present, ok, err)
	}
	// A hop-count change is an error, not a decision.
	odd := model.Job{Name: "a", Deadline: 40,
		Subjobs:  []model.Subjob{{Proc: 0, Exec: 2, Priority: 1}},
		Releases: []model.Ticks{0, 50}}
	present, ok, err = c.UpdateOpts(odd, analysis.Options{})
	if !present || ok || err == nil {
		t.Fatalf("hop-count change: present=%v ok=%v err=%v", present, ok, err)
	}
	// The committed set is still the accepted configuration.
	names, bounds, err := c.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, base) {
		t.Fatalf("names drifted: %v != %v", names, base)
	}
	for i := range bounds {
		if bounds[i] > 40 {
			t.Fatalf("job %s bound %d exceeds deadline after updates", names[i], bounds[i])
		}
	}

	// Replay of a committed update reproduces it.
	replay := New(twoProcs(model.SPP), KeepPriorities)
	if err := replay.Reinstate(j, nil); err != nil {
		t.Fatal(err)
	}
	if err := replay.Reinstate(job("b", 40, 5, 2, 0, 50), nil); err != nil {
		t.Fatal(err)
	}
	if err := replay.ReinstateUpdate(lighter, nil); err != nil {
		t.Fatal(err)
	}
	rn, rb, err := replay.NamedBounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rn, names) || !reflect.DeepEqual(rb, bounds) {
		t.Fatalf("update replay (%v, %v) != live (%v, %v)", rn, rb, names, bounds)
	}
	// Replaying an update against an absent name is an error.
	if err := replay.ReinstateUpdate(job("ghost", 40, 3, 1, 0, 50), nil); err == nil {
		t.Fatal("ReinstateUpdate of absent job succeeded")
	}
}
