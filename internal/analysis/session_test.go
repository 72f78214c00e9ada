package analysis

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sched/tdma"
	"rta/internal/spp"
)

// churnSystem builds a named benchsys workload; TDMA processors get slot
// tables with enough headroom for the churn to admit beyond the initial
// population.
func churnSystem(sc model.Scheduler, jobs, hops, instances, headroom int) *model.System {
	sys := benchsys.Large(jobs, hops, instances, sc)
	for k := range sys.Jobs {
		sys.Jobs[k].Name = fmt.Sprintf("J%02d", k)
	}
	if sc == tdma.Sched {
		for p := range sys.Procs {
			sys.Procs[p].Slot = 4
			sys.Procs[p].Cycle = model.Ticks(jobs+headroom) * 4
		}
	}
	return sys
}

// requireWarmEqualsCold converges the session and asserts the result is
// field-identical to a cold analysis of the same working system
// (IterativeOpts on the iterative engine, AnalyzeOpts otherwise).
func requireWarmEqualsCold(t *testing.T, label string, s *Session, opts Options) *Result {
	t.Helper()
	warm, werr := s.Converge()
	var cold *Result
	var cerr error
	if s.cfg.Engine == EngineIterative {
		cold, cerr = IterativeOpts(s.WorkingSystem(), s.cfg.MaxRounds, opts)
	} else {
		cold, cerr = AnalyzeOpts(s.WorkingSystem(), opts)
	}
	if (werr == nil) != (cerr == nil) {
		t.Fatalf("%s: error mismatch: warm %v vs cold %v", label, werr, cerr)
	}
	if werr != nil {
		return warm
	}
	requireSameResult(t, label, cold, warm)
	return warm
}

// TestSessionColdEquivalence scripts an admit/remove/mutate/rollback
// churn over every registered policy and both worker counts, asserting
// after every converge that the warm result is bit-identical to cold
// analysis of the same system.
func TestSessionColdEquivalence(t *testing.T) {
	for _, sc := range []model.Scheduler{model.SPP, model.SPNP, model.FCFS, tdma.Sched} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/w%d", sc, workers), func(t *testing.T) {
				opts := Options{Workers: workers}
				base := churnSystem(sc, 10, 4, 6, 4)
				s, err := NewSession(base, SessionConfig{Opts: opts})
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				requireWarmEqualsCold(t, "initial", s, opts)
				s.Commit()

				// Admit a fresh job.
				newJob := cloneJob(base.Jobs[3])
				newJob.Name = "newcomer"
				newJob.Subjobs[1].Priority = 2
				s.Admit(newJob)
				requireWarmEqualsCold(t, "admit", s, opts)
				s.Commit()

				// Remove a mid-priority job.
				if err := s.Remove(4); err != nil {
					t.Fatalf("Remove: %v", err)
				}
				requireWarmEqualsCold(t, "remove", s, opts)
				s.Commit()

				// Mutate: execution time (demand change).
				if err := s.Mutate(func(sys *model.System) error {
					sys.Jobs[2].Subjobs[1].Exec += 2
					return nil
				}); err != nil {
					t.Fatalf("Mutate exec: %v", err)
				}
				requireWarmEqualsCold(t, "mutate-exec", s, opts)
				s.Commit()

				// Mutate: priority move (reader-set change).
				if err := s.Mutate(func(sys *model.System) error {
					sys.Jobs[5].Subjobs[0].Priority = 0
					sys.Jobs[5].Subjobs[2].Priority = 11
					return nil
				}); err != nil {
					t.Fatalf("Mutate priority: %v", err)
				}
				requireWarmEqualsCold(t, "mutate-priority", s, opts)
				s.Commit()

				// Mutate: release trace (first-hop arrival change).
				if err := s.Mutate(func(sys *model.System) error {
					for i := range sys.Jobs[1].Releases {
						sys.Jobs[1].Releases[i] += 3
					}
					return nil
				}); err != nil {
					t.Fatalf("Mutate releases: %v", err)
				}
				requireWarmEqualsCold(t, "mutate-releases", s, opts)
				s.Commit()

				// Rollback: stage a change, drop it, verify the committed
				// state still matches cold analysis.
				s.Admit(newJob)
				s.Rollback()
				requireWarmEqualsCold(t, "rollback", s, opts)

				// Remove + re-admit in one staged batch.
				if err := s.Remove(s.Jobs() - 1); err != nil {
					t.Fatalf("Remove last: %v", err)
				}
				reAdd := cloneJob(base.Jobs[7])
				reAdd.Name = "readmitted"
				s.Admit(reAdd)
				requireWarmEqualsCold(t, "batch", s, opts)
				s.Commit()
			})
		}
	}

	// Error paths. A session's cold converge — an empty session admitting
	// the whole job set, so nothing is resident — must report the same
	// error class, Method and (partial) bounds as the cold entry point,
	// and NewSession over the full system the same error class. Budget
	// rows sweep the breakpoint ceiling from starvation to abundance,
	// crossing trips before any hop (no result), partial sweeps and
	// completion; they run serially, where the trip point is deterministic.
	loop := model.Job{
		Name:     "loop",
		Deadline: 1 << 40,
		Releases: []model.Ticks{0, 5},
		Subjobs: []model.Subjob{
			{Proc: 0, Exec: 1, Priority: 100},
			{Proc: 1, Exec: 1, Priority: 0},
			{Proc: 0, Exec: 1, Priority: -1},
		},
	}
	withLoop := func(sc model.Scheduler) *model.System {
		sys := churnSystem(sc, 4, 2, 3, 0)
		sys.Jobs = append(sys.Jobs, loop)
		return sys
	}
	mixed := churnSystem(model.SPP, 6, 3, 4, 0)
	mixed.Procs[0].Sched = model.FCFS
	errClass := func(err error) error {
		for _, c := range []error{ErrCyclic, ErrBudgetExceeded, spp.ErrNotSPP} {
			if errors.Is(err, c) {
				return c
			}
		}
		return err
	}
	sessionCold := func(sys *model.System, opts Options) (*Result, error) {
		empty := sys.Clone()
		empty.Jobs = nil
		s, err := NewSession(empty, SessionConfig{Opts: opts})
		if err != nil {
			t.Fatalf("NewSession(empty): %v", err)
		}
		for _, job := range sys.Jobs {
			s.Admit(job)
		}
		return s.Converge()
	}
	for _, tc := range []struct {
		name    string
		sys     *model.System
		budget  bool
		want    error  // error class at full budget
		partial string // Method of a budget-truncated result
	}{
		// Non-SPP under exact: ExactOpts refuses (checked below); the
		// session, like AnalyzeOpts, routes the system to Theorem 4.
		{name: "non-SPP", sys: mixed},
		{name: "cyclic-SPP", sys: withLoop(model.SPP), want: ErrCyclic},
		{name: "cyclic-FCFS", sys: withLoop(model.FCFS), want: ErrCyclic},
		{name: "budget-SPP", sys: churnSystem(model.SPP, 10, 4, 6, 0), budget: true, partial: "SPP/Exact(budget)"},
		{name: "budget-FCFS", sys: churnSystem(model.FCFS, 10, 4, 6, 0), budget: true, partial: "App(budget)"},
	} {
		t.Run("errors/"+tc.name, func(t *testing.T) {
			sawPartial := false
			for b := int64(1); ; b *= 2 {
				opts := Options{}
				if tc.budget {
					opts.Budget.Breakpoints = b
				}
				cold, cerr := AnalyzeOpts(tc.sys, opts)
				warm, werr := sessionCold(tc.sys, opts)
				_, nerr := NewSession(tc.sys, SessionConfig{Opts: opts})
				label := fmt.Sprintf("budget %d", opts.Budget.Breakpoints)
				if c := errClass(cerr); c != errClass(werr) || c != errClass(nerr) {
					t.Fatalf("%s: error class: cold %v, session %v, NewSession %v", label, cerr, werr, nerr)
				}
				if (cold == nil) != (warm == nil) {
					t.Fatalf("%s: result presence: cold %v, session %v", label, cold != nil, warm != nil)
				}
				if cold != nil {
					requireSameResult(t, label, cold, warm)
				}
				if !tc.budget || cerr == nil {
					if errClass(cerr) != tc.want {
						t.Fatalf("%s: err = %v, want %v", label, cerr, tc.want)
					}
					break
				}
				if !errors.Is(cerr, ErrBudgetExceeded) {
					t.Fatalf("%s: err = %v, want ErrBudgetExceeded", label, cerr)
				}
				if cold != nil {
					if cold.Method != tc.partial {
						t.Fatalf("%s: Method = %q, want %q", label, cold.Method, tc.partial)
					}
					sawPartial = true
				}
			}
			if tc.budget && !sawPartial {
				t.Error("no budget produced a partial result")
			}
		})
	}
	if res, err := ExactOpts(mixed, Options{}); err != spp.ErrNotSPP || res != nil {
		t.Fatalf("ExactOpts(non-SPP) = %v, %v; want nil, spp.ErrNotSPP", res, err)
	}
}

// TestSessionRandomChurn drives a randomized op stream (admit, remove,
// mutate, rollback, snapshot/restore) against an independently maintained
// mirror of the job set and asserts warm-vs-cold identity at every
// converge, for a policy mix that exercises both engines.
func TestSessionRandomChurn(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, sc := range []model.Scheduler{model.SPP, model.FCFS} {
		opts := Options{Workers: 4}
		base := churnSystem(sc, 8, 3, 4, 8)
		pool := make([]model.Job, 0, 8)
		for i := 0; i < 8; i++ {
			j := cloneJob(base.Jobs[r.Intn(len(base.Jobs))])
			j.Name = fmt.Sprintf("pool%02d", i)
			j.Subjobs[r.Intn(len(j.Subjobs))].Priority = r.Intn(12)
			pool = append(pool, j)
		}
		s, err := NewSession(base, SessionConfig{Opts: opts})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		mirror := base.Clone()
		staged := mirror.Clone()
		for step := 0; step < 60; step++ {
			switch op := r.Intn(10); {
			case op < 3 && len(staged.Jobs) < 14:
				j := pool[r.Intn(len(pool))]
				j = cloneJob(j)
				j.Name = fmt.Sprintf("dyn%03d", step)
				s.Admit(j)
				staged.Jobs = append(staged.Jobs, cloneJob(j))
			case op < 5 && len(staged.Jobs) > 2:
				k := r.Intn(len(staged.Jobs))
				if err := s.Remove(k); err != nil {
					t.Fatalf("step %d: Remove: %v", step, err)
				}
				staged.Jobs = append(staged.Jobs[:k:k], staged.Jobs[k+1:]...)
			case op < 7:
				k := r.Intn(len(staged.Jobs))
				h := r.Intn(len(staged.Jobs[k].Subjobs))
				d := model.Ticks(1 + r.Intn(3))
				if err := s.Mutate(func(sys *model.System) error {
					sys.Jobs[k].Subjobs[h].Exec += d
					return nil
				}); err != nil {
					t.Fatalf("step %d: Mutate: %v", step, err)
				}
				staged.Jobs[k].Subjobs[h].Exec += d
			case op < 8:
				s.Rollback()
				staged = mirror.Clone()
			default:
				requireWarmEqualsCold(t, fmt.Sprintf("step %d", step), s, opts)
				s.Commit()
				mirror = staged.Clone()
			}
			if !reflect.DeepEqual(s.WorkingSystem().Jobs, staged.Jobs) {
				t.Fatalf("step %d: staged job set diverged from mirror", step)
			}
		}
		requireWarmEqualsCold(t, "final", s, opts)
		if !reflect.DeepEqual(s.System().Jobs, mirror.Jobs) && !reflect.DeepEqual(s.WorkingSystem().Jobs, staged.Jobs) {
			t.Fatal("final job set diverged from mirror")
		}
	}
}

// TestSessionSnapshotRestore verifies the O(1) checkpointing the Audsley
// trial loop depends on: restore rewinds both the job set and the
// resident converged state, and converging after a restore is still
// bit-identical to cold.
func TestSessionSnapshotRestore(t *testing.T) {
	opts := Options{Workers: 2}
	base := churnSystem(model.SPP, 8, 3, 4, 0)
	s, err := NewSession(base, SessionConfig{Opts: opts})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	want, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	cp := s.Snapshot()

	j := cloneJob(base.Jobs[0])
	j.Name = "trial"
	s.Admit(j)
	if _, err := s.Converge(); err != nil {
		t.Fatalf("Converge: %v", err)
	}
	s.Commit()
	if s.Jobs() != len(base.Jobs)+1 {
		t.Fatalf("Jobs = %d after admit", s.Jobs())
	}

	s.Restore(cp)
	if s.Jobs() != len(base.Jobs) {
		t.Fatalf("Jobs = %d after restore", s.Jobs())
	}
	got, err := s.Result()
	if err != nil {
		t.Fatalf("Result after restore: %v", err)
	}
	requireSameResult(t, "restore", want, got)
	requireWarmEqualsCold(t, "post-restore", s, opts)
}

// TestSessionErrorRecovery: a staged change that fails validation leaves
// the session recoverable — Rollback restores the committed state and
// later converges (now cold) still match cold analysis.
func TestSessionErrorRecovery(t *testing.T) {
	opts := Options{Workers: 1}
	base := churnSystem(model.SPNP, 6, 3, 4, 0)
	s, err := NewSession(base, SessionConfig{Opts: opts})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	bad := cloneJob(base.Jobs[0])
	bad.Name = "bad"
	bad.Subjobs[1].Exec = 0 // invalid
	s.Admit(bad)
	if _, err := s.Converge(); err == nil {
		t.Fatal("expected validation error")
	}
	s.Rollback()
	requireWarmEqualsCold(t, "after-rollback", s, opts)
	s.Commit()

	// The failed converge dropped the warm state; the next delta must
	// still be correct (cold converge, then warm again).
	ok := cloneJob(base.Jobs[1])
	ok.Name = "ok"
	s.Admit(ok)
	requireWarmEqualsCold(t, "cold-recovery", s, opts)
	s.Commit()
	if err := s.Remove(0); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	requireWarmEqualsCold(t, "warm-again", s, opts)
}

// TestSessionStructureGuard: Mutate must reject structural edits.
func TestSessionStructureGuard(t *testing.T) {
	base := churnSystem(model.SPP, 4, 2, 3, 0)
	s, err := NewSession(base, SessionConfig{})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Mutate(func(sys *model.System) error {
		sys.Jobs = sys.Jobs[:len(sys.Jobs)-1]
		return nil
	}); err == nil {
		t.Fatal("job-count change not rejected")
	}
	if err := s.Mutate(func(sys *model.System) error {
		sys.Jobs[0].Subjobs = sys.Jobs[0].Subjobs[:1]
		return nil
	}); err == nil {
		t.Fatal("hop-count change not rejected")
	}
	if err := s.Mutate(func(sys *model.System) error {
		sys.Procs[0].Sched = model.FCFS
		return nil
	}); err == nil {
		t.Fatal("processor change not rejected")
	}
	// The rejected mutations must have been unstaged.
	requireWarmEqualsCold(t, "unstaged", s, Options{})
}

// TestSessionIterativeEngine: sessions on the iterative engine converge
// warm, cyclic components included. Under admit/remove/mutate/rollback
// churn over random loop systems and the loop shop, every converge equals
// IterativeOpts of the same working system, at one and four workers.
func TestSessionIterativeEngine(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "loopshop.json"))
	if err != nil {
		t.Fatal(err)
	}
	shop, err := model.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(63))
	cfg := randsys.Default
	cfg.Loops = true
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	bases := []*model.System{shop}
	for len(bases) < 8 {
		bases = append(bases, randsys.New(r, cfg))
	}
	sessions := 0
	for i, base := range bases {
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}
			s, err := NewSession(base, SessionConfig{Opts: opts, Engine: EngineIterative})
			if err != nil {
				continue // the base itself diverges; nothing warm to keep
			}
			sessions++
			pool := append([]model.Job(nil), base.Jobs...)
			for step := 0; step < 30; step++ {
				label := fmt.Sprintf("base %d workers %d step %d", i, workers, step)
				switch op := r.Intn(10); {
				case op < 3 && len(s.WorkingSystem().Jobs) < 6:
					j := cloneJob(pool[r.Intn(len(pool))])
					j.Name = fmt.Sprintf("dyn%03d", step)
					j.Subjobs[r.Intn(len(j.Subjobs))].Priority = r.Intn(4)
					s.Admit(j)
				case op < 5 && len(s.WorkingSystem().Jobs) > 1:
					if err := s.Remove(r.Intn(len(s.WorkingSystem().Jobs))); err != nil {
						t.Fatalf("%s: Remove: %v", label, err)
					}
				default:
					k := r.Intn(len(s.WorkingSystem().Jobs))
					if err := s.Mutate(func(sys *model.System) error {
						sj := &sys.Jobs[k].Subjobs[r.Intn(len(sys.Jobs[k].Subjobs))]
						if op%2 == 0 {
							sj.Exec += model.Ticks(1 + r.Intn(3))
						} else {
							sj.Priority = r.Intn(4)
						}
						return nil
					}); err != nil {
						t.Fatalf("%s: Mutate: %v", label, err)
					}
				}
				requireWarmEqualsCold(t, label, s, opts)
				if r.Intn(4) == 0 {
					s.Rollback()
				} else {
					s.Commit()
				}
			}
		}
	}
	if sessions == 0 {
		t.Fatal("no base system converged; the churn never ran")
	}
}

// TestSessionCyclicAuto: EngineAuto mirrors AnalyzeOpts and reports
// ErrCyclic when a staged change introduces a dependency cycle, keeping
// the session recoverable.
func TestSessionCyclicAuto(t *testing.T) {
	base := churnSystem(model.SPP, 4, 2, 3, 0)
	s, err := NewSession(base, SessionConfig{})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// A job revisiting processor 0 with both directions of priority
	// creates a physical loop.
	loop := model.Job{
		Name:     "loop",
		Deadline: 1 << 40,
		Releases: []model.Ticks{0, 5},
		Subjobs: []model.Subjob{
			{Proc: 0, Exec: 1, Priority: 100},
			{Proc: 1, Exec: 1, Priority: 0},
			{Proc: 0, Exec: 1, Priority: -1},
		},
	}
	s.Admit(loop)
	if _, err := s.Converge(); err != ErrCyclic {
		t.Fatalf("Converge = %v, want ErrCyclic", err)
	}
	s.Rollback()
	requireWarmEqualsCold(t, "post-cycle", s, Options{})
}

// TestSessionEmptyStart: sessions support the admission controller's
// empty starting state.
func TestSessionEmptyStart(t *testing.T) {
	sys := &model.System{Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}}}
	s, err := NewSession(sys, SessionConfig{})
	if err != nil {
		t.Fatalf("NewSession(empty): %v", err)
	}
	if ok, err := s.Schedulable(); err != nil || !ok {
		t.Fatalf("empty Schedulable = %v, %v", ok, err)
	}
	job := model.Job{
		Name: "first", Deadline: 1 << 30, Releases: []model.Ticks{0, 3, 6},
		Subjobs: []model.Subjob{{Proc: 0, Exec: 2}, {Proc: 1, Exec: 1}},
	}
	s.Admit(job)
	requireWarmEqualsCold(t, "first-admit", s, Options{})
	s.Commit()
	if err := s.Remove(0); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := s.Converge(); err != nil {
		t.Fatalf("Converge to empty: %v", err)
	}
	if ok, err := s.Schedulable(); err != nil || !ok {
		t.Fatalf("emptied Schedulable = %v, %v", ok, err)
	}
}

// FuzzSessionChurn drives a byte-string-derived op sequence and asserts
// warm-vs-cold identity at every converge point.
func FuzzSessionChurn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 1, 1, 30, 2, 61, 7, 8})
	f.Add([]byte{4, 0, 4, 1, 4, 2, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		scheds := []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
		sc := scheds[int(data[0])%len(scheds)]
		base := churnSystem(sc, 5, 2, 3, 0)
		opts := Options{Workers: 1 + int(data[0])%4}
		s, err := NewSession(base, SessionConfig{Opts: opts})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		next := 0
		for i, b := range data[1:] {
			if i > 24 {
				break
			}
			switch b % 6 {
			case 0:
				if len(s.WorkingSystem().Jobs) >= 9 {
					continue
				}
				j := cloneJob(base.Jobs[int(b/6)%len(base.Jobs)])
				j.Name = fmt.Sprintf("f%d", next)
				j.Subjobs[0].Priority = int(b) % 13
				next++
				s.Admit(j)
			case 1:
				if n := len(s.WorkingSystem().Jobs); n > 1 {
					_ = s.Remove(int(b) % n)
				}
			case 2:
				_ = s.Mutate(func(m *model.System) error {
					k := int(b) % len(m.Jobs)
					h := int(b/7) % len(m.Jobs[k].Subjobs)
					m.Jobs[k].Subjobs[h].Exec = 1 + model.Ticks(b%5)
					return nil
				})
			case 3:
				_ = s.Mutate(func(m *model.System) error {
					k := int(b) % len(m.Jobs)
					for i := range m.Jobs[k].Releases {
						m.Jobs[k].Releases[i] += model.Ticks(b % 4)
					}
					return nil
				})
			case 4:
				requireWarmEqualsCold(t, fmt.Sprintf("op %d", i), s, opts)
				s.Commit()
			default:
				s.Rollback()
			}
		}
		requireWarmEqualsCold(t, "final", s, opts)
	})
}
