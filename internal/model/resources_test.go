package model

import (
	"encoding/json"
	"strings"
	"testing"
)

func resourceSystem() *System {
	return &System{
		Procs: []Processor{{Sched: SPP}, {Sched: SPP}},
		Jobs: []Job{
			{Deadline: 100, Releases: []Ticks{0}, Subjobs: []Subjob{{
				Proc: 0, Exec: 10, Priority: 0,
				CS: []CriticalSection{{Resource: 1, Start: 2, Duration: 3}},
			}}},
			{Deadline: 100, Releases: []Ticks{0}, Subjobs: []Subjob{{
				Proc: 0, Exec: 20, Priority: 4,
				CS: []CriticalSection{{Resource: 1, Start: 0, Duration: 8}, {Resource: 2, Start: 9, Duration: 2}},
			}}},
			{Deadline: 100, Releases: []Ticks{0}, Subjobs: []Subjob{{
				Proc: 0, Exec: 5, Priority: 2,
			}}},
		},
	}
}

func TestResourceValidation(t *testing.T) {
	if err := resourceSystem().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(*System)
		want   string
	}{
		{func(s *System) { s.Jobs[0].Subjobs[0].CS[0].Resource = -1 }, "negative resource"},
		{func(s *System) { s.Jobs[0].Subjobs[0].CS[0].Duration = 0 }, "non-positive duration"},
		{func(s *System) { s.Jobs[0].Subjobs[0].CS[0].Duration = 99 }, "outside execution"},
		{func(s *System) { s.Jobs[1].Subjobs[0].CS[1].Start = 5 }, "overlap"},
		{func(s *System) {
			s.Jobs[2].Subjobs[0].Proc = 1
			s.Jobs[2].Subjobs[0].CS = []CriticalSection{{Resource: 1, Start: 0, Duration: 1}}
		}, "must be local"},
	}
	for i, tc := range cases {
		s := resourceSystem()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestCeilingAndBlocking(t *testing.T) {
	s := resourceSystem()
	ceilings := s.Topology().Ceilings()
	if c, ok := ceilings[1]; !ok || c != 0 {
		t.Fatalf("Ceiling(1) = %d,%v; want 0,true", c, ok)
	}
	if c, ok := ceilings[2]; !ok || c != 4 {
		t.Fatalf("Ceiling(2) = %d,%v; want 4,true", c, ok)
	}
	if _, ok := ceilings[9]; ok {
		t.Fatal("Ceiling(9) should not exist")
	}
	// Job 1 (prio 0): blocked by job 2's 8-tick section on resource 1
	// (ceiling 0 reaches priority 0).
	if b := s.PCPBlocking(SubjobRef{0, 0}); b != 8 {
		t.Fatalf("PCPBlocking(T1) = %d, want 8", b)
	}
	// Job 3 (prio 2, no resources): also blocked by the ceiling-0 section.
	if b := s.PCPBlocking(SubjobRef{2, 0}); b != 8 {
		t.Fatalf("PCPBlocking(T3) = %d, want 8", b)
	}
	// Job 2 (prio 4, lowest): nothing below to block it.
	if b := s.PCPBlocking(SubjobRef{1, 0}); b != 0 {
		t.Fatalf("PCPBlocking(T2) = %d, want 0", b)
	}
	if !s.HasResources() {
		t.Fatal("HasResources = false")
	}
}

func TestResourceJSONRoundTrip(t *testing.T) {
	s := resourceSystem()
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	cs := got.Jobs[1].Subjobs[0].CS
	if len(cs) != 2 || cs[0].Resource != 1 || cs[0].Duration != 8 || cs[1].Start != 9 {
		t.Fatalf("critical sections mangled: %+v", cs)
	}
}

func TestCloneCopiesCS(t *testing.T) {
	s := resourceSystem()
	c := s.Clone()
	c.Jobs[0].Subjobs[0].CS[0].Duration = 99
	if s.Jobs[0].Subjobs[0].CS[0].Duration == 99 {
		t.Fatal("Clone shares critical sections")
	}
}
