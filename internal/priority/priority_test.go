package priority

import (
	"testing"

	"rta/internal/model"
)

// shop builds two jobs crossing two processors.
func shop() *model.System {
	return &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			// T1: total exec 10, deadline 100 -> sub-deadlines 20 and 80.
			{Deadline: 100, Releases: []model.Ticks{0}, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 2}, {Proc: 1, Exec: 8},
			}},
			// T2: total exec 10, deadline 40 -> sub-deadlines 24 and 16.
			{Deadline: 40, Releases: []model.Ticks{0}, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 6}, {Proc: 1, Exec: 4},
			}},
		},
	}
}

func TestRelativeDeadlineMonotonic(t *testing.T) {
	s := shop()
	RelativeDeadlineMonotonic(s)
	// P0: T1 hop1 sub-deadline 2/10*100 = 20; T2 hop1 6/10*40 = 24.
	// T1 first (higher priority = rank 0).
	if s.Jobs[0].Subjobs[0].Priority != 0 || s.Jobs[1].Subjobs[0].Priority != 1 {
		t.Errorf("P0 ranks: T1=%d T2=%d, want 0 and 1",
			s.Jobs[0].Subjobs[0].Priority, s.Jobs[1].Subjobs[0].Priority)
	}
	// P1: T1 hop2 8/10*100 = 80; T2 hop2 4/10*40 = 16. T2 first.
	if s.Jobs[1].Subjobs[1].Priority != 0 || s.Jobs[0].Subjobs[1].Priority != 1 {
		t.Errorf("P1 ranks: T2=%d T1=%d, want 0 and 1",
			s.Jobs[1].Subjobs[1].Priority, s.Jobs[0].Subjobs[1].Priority)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	s := shop()
	// Make sub-deadlines equal: same exec shares and deadlines.
	s.Jobs[1].Deadline = 100
	s.Jobs[1].Subjobs[0].Exec = 2
	s.Jobs[1].Subjobs[1].Exec = 8
	RelativeDeadlineMonotonic(s)
	if s.Jobs[0].Subjobs[0].Priority != 0 || s.Jobs[1].Subjobs[0].Priority != 1 {
		t.Error("ties must resolve by job index")
	}
}

// TestRanksAreDense: every processor gets ranks 0..n-1.
func TestRanksAreDense(t *testing.T) {
	s := shop()
	RelativeDeadlineMonotonic(s)
	for p := range s.Procs {
		seen := map[int]bool{}
		for _, ref := range s.OnProc(p) {
			seen[s.Subjob(ref).Priority] = true
		}
		for r := 0; r < len(seen); r++ {
			if !seen[r] {
				t.Errorf("processor %d: missing rank %d", p, r)
			}
		}
	}
}
