package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func validSystem() *System {
	return &System{
		Procs: []Processor{{Name: "P1", Sched: SPP}, {Name: "P2", Sched: FCFS}},
		Jobs: []Job{
			{Name: "T1", Deadline: 100, Subjobs: []Subjob{
				{Proc: 0, Exec: 5, Priority: 1},
				{Proc: 1, Exec: 3, Priority: 0},
			}, Releases: []Ticks{0, 10, 10, 25}},
			{Name: "T2", Deadline: 50, Subjobs: []Subjob{
				{Proc: 1, Exec: 7, Priority: 2},
			}, Releases: []Ticks{5}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validSystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
		want   string
	}{
		{"no processors", func(s *System) { s.Procs = nil }, "no processors"},
		{"no jobs", func(s *System) { s.Jobs = nil }, "no jobs"},
		{"no subjobs", func(s *System) { s.Jobs[0].Subjobs = nil }, "no subjobs"},
		{"bad deadline", func(s *System) { s.Jobs[0].Deadline = 0 }, "deadline"},
		{"bad proc", func(s *System) { s.Jobs[0].Subjobs[0].Proc = 9 }, "processor"},
		{"bad exec", func(s *System) { s.Jobs[0].Subjobs[0].Exec = 0 }, "execution time"},
		{"no releases", func(s *System) { s.Jobs[1].Releases = nil }, "no release"},
		{"negative release", func(s *System) { s.Jobs[0].Releases[0] = -1 }, "negative"},
		{"unsorted releases", func(s *System) { s.Jobs[0].Releases[3] = 1 }, "not sorted"},
	}
	for _, tc := range cases {
		s := validSystem()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validSystem()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Procs) != 2 || got.Procs[1].Sched != FCFS {
		t.Fatalf("processors mangled: %+v", got.Procs)
	}
	if len(got.Jobs) != 2 || got.Jobs[0].Subjobs[0].Exec != 5 {
		t.Fatalf("jobs mangled: %+v", got.Jobs)
	}
	if got.Jobs[0].Releases[2] != 10 {
		t.Fatalf("releases mangled: %v", got.Jobs[0].Releases)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	_, err := Load(strings.NewReader(`{"processors":[{"scheduler":"SPP"}],"jobs":[]}`))
	if err == nil {
		t.Fatal("want validation error for empty job list")
	}
	_, err = Load(strings.NewReader(`{"processors":[{"scheduler":"WFQ"}],"jobs":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("err = %v, want unknown scheduler", err)
	}
}

func TestByPriorityAndBlocking(t *testing.T) {
	s := validSystem()
	refs := s.ByPriority(1)
	// P2 hosts T1 hop 2 (prio 0) and T2 hop 1 (prio 2).
	if len(refs) != 2 || refs[0] != (SubjobRef{0, 1}) || refs[1] != (SubjobRef{1, 0}) {
		t.Fatalf("ByPriority = %v", refs)
	}
	if b := s.Blocking(SubjobRef{0, 1}); b != 7 {
		t.Errorf("Blocking(T1,2) = %d, want 7", b)
	}
	if b := s.Blocking(SubjobRef{1, 0}); b != 0 {
		t.Errorf("Blocking(T2,1) = %d, want 0 (lowest priority)", b)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := validSystem()
	c := s.Clone()
	c.Jobs[0].Releases[0] = 999
	c.Jobs[0].Subjobs[0].Exec = 999
	c.Procs[0].Sched = FCFS
	if s.Jobs[0].Releases[0] == 999 || s.Jobs[0].Subjobs[0].Exec == 999 || s.Procs[0].Sched == FCFS {
		t.Error("Clone shares memory with the original")
	}
}

func TestNamesAndHelpers(t *testing.T) {
	s := validSystem()
	if s.JobName(0) != "T1" || s.ProcName(1) != "P2" {
		t.Error("explicit names not used")
	}
	s.Jobs[0].Name = ""
	s.Procs[0].Name = ""
	if s.JobName(0) != "T1" || s.ProcName(0) != "P1" {
		t.Error("default names wrong")
	}
	if s.MaxRelease() != 25 {
		t.Errorf("MaxRelease = %d, want 25", s.MaxRelease())
	}
	// TotalWork on P2: T1 hop2 (3x4 releases) + T2 (7x1).
	if w := s.TotalWork(1); w != 19 {
		t.Errorf("TotalWork(P2) = %d, want 19", w)
	}
	if got := (SubjobRef{1, 0}).String(); got != "T_{2,1}" {
		t.Errorf("SubjobRef.String = %q", got)
	}
	if SPNP.String() != "SPNP" {
		t.Errorf("Scheduler.String = %q", SPNP.String())
	}
	if _, err := ParseScheduler("nope"); err == nil {
		t.Error("ParseScheduler accepted junk")
	}
}

func TestSummaryHelpers(t *testing.T) {
	s := validSystem()
	if n := s.InstanceCount(); n != 5 {
		t.Errorf("InstanceCount = %d, want 5", n)
	}
	if n := s.SubjobCount(); n != 3 {
		t.Errorf("SubjobCount = %d, want 3", n)
	}
	str := s.String()
	for _, want := range []string{"1 SPP", "1 FCFS", "2 jobs", "3 subjobs", "5 instances"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestValidateJob(t *testing.T) {
	sys := validSystem()
	good := Job{Name: "T3", Deadline: 40, Subjobs: []Subjob{{Proc: 0, Exec: 2}}, Releases: []Ticks{0}}
	if err := sys.ValidateJob(&good); err != nil {
		t.Fatalf("valid candidate rejected: %v", err)
	}
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"processor out of range",
			Job{Name: "x", Deadline: 10, Subjobs: []Subjob{{Proc: 99, Exec: 1}}, Releases: []Ticks{0}},
			"references processor 99"},
		{"no releases",
			Job{Name: "x", Deadline: 10, Subjobs: []Subjob{{Proc: 0, Exec: 1}}},
			"no release instances"},
		{"bad critical section",
			Job{Name: "x", Deadline: 10, Subjobs: []Subjob{{Proc: 0, Exec: 1,
				CS: []CriticalSection{{Resource: -1, Start: 0, Duration: 1}}}}, Releases: []Ticks{0}},
			"negative resource"},
	}
	for _, tc := range cases {
		err := sys.ValidateJob(&tc.job)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error %v is not a *ValidationError", tc.name, err)
		}
	}
	// Cross-job locality: resource 7 lives on P1 of the resident system.
	sys.Jobs[0].Subjobs[0].CS = []CriticalSection{{Resource: 7, Start: 0, Duration: 1}}
	foreign := Job{Name: "x", Deadline: 10, Subjobs: []Subjob{{Proc: 1, Exec: 2,
		CS: []CriticalSection{{Resource: 7, Start: 0, Duration: 1}}}}, Releases: []Ticks{0}}
	if err := sys.ValidateJob(&foreign); err == nil || !strings.Contains(err.Error(), "must be local") {
		t.Errorf("cross-processor resource use: error = %v, want locality violation", err)
	}
}

func TestLoadSpecLimitedAllowsEmptyJobs(t *testing.T) {
	spec := `{"processors":[{"name":"P0","scheduler":"SPP"},{"scheduler":"FCFS"}]}`
	sys, err := LoadSpecLimited(strings.NewReader(spec), DefaultLimits)
	if err != nil {
		t.Fatalf("LoadSpecLimited: %v", err)
	}
	if len(sys.Procs) != 2 || len(sys.Jobs) != 0 {
		t.Fatalf("spec = %d procs %d jobs, want 2 procs 0 jobs", len(sys.Procs), len(sys.Jobs))
	}
	if _, err := LoadLimited(strings.NewReader(spec), DefaultLimits); err == nil {
		t.Fatal("LoadLimited accepted a jobs-free document; the spec loader must stay the only relaxed path")
	}
}

func TestJobMarshalRoundTrip(t *testing.T) {
	in := Job{Name: "T9", Deadline: 77, Subjobs: []Subjob{
		{Proc: 1, Exec: 9, Priority: 3, PostDelay: 2,
			CS: []CriticalSection{{Resource: 4, Start: 1, Duration: 2}}},
	}, Releases: []Ticks{0, 5}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := LoadJobLimited(bytes.NewReader(raw), DefaultLimits)
	if err != nil {
		t.Fatalf("round trip decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the job:\n in  %+v\n out %+v", in, out)
	}
}
