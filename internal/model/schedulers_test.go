package model_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rta/internal/model"
	"rta/internal/sched"
	_ "rta/internal/sched/tdma" // register the TDMA policy
)

// registeredSystem builds a small valid two-job system whose single
// processor runs s, using the policy's ProcRandomizer (when implemented)
// to fill in discipline-specific parameters.
func registeredSystem(t *testing.T, s model.Scheduler) *model.System {
	t.Helper()
	sys := &model.System{
		Procs: []model.Processor{{Name: "P", Sched: s}},
		Jobs: []model.Job{
			{Name: "A", Deadline: 100,
				Subjobs:  []model.Subjob{{Proc: 0, Exec: 3, Priority: 1}},
				Releases: []model.Ticks{0, 10, 20}},
			{Name: "B", Deadline: 100,
				Subjobs:  []model.Subjob{{Proc: 0, Exec: 2, Priority: 2}},
				Releases: []model.Ticks{5, 15}},
		},
	}
	if pol, ok := sched.Lookup(s); ok {
		if pr, ok := pol.(sched.ProcRandomizer); ok {
			pr.RandomizeProc(rand.New(rand.NewSource(7)), sys, 0)
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("system for scheduler %v does not validate: %v", s, err)
	}
	return sys
}

// TestJSONRoundTripAllSchedulers round-trips a system through the JSON
// codec for every scheduler in the model registry, checking both the name
// encoding and the per-processor parameters survive.
func TestJSONRoundTripAllSchedulers(t *testing.T) {
	scheds := model.RegisteredSchedulers()
	if len(scheds) < 4 {
		t.Fatalf("expected at least 4 registered schedulers, got %v", scheds)
	}
	for _, s := range scheds {
		sys := registeredSystem(t, s)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(sys); err != nil {
			t.Fatalf("%v: dump: %v", s, err)
		}
		if !strings.Contains(buf.String(), `"`+s.String()+`"`) {
			t.Errorf("%v: JSON does not encode the scheduler name %q", s, s.String())
		}
		back, err := model.Load(&buf)
		if err != nil {
			t.Fatalf("%v: load: %v", s, err)
		}
		if !reflect.DeepEqual(sys.Procs, back.Procs) || !reflect.DeepEqual(sys.Jobs, back.Jobs) {
			t.Errorf("%v: round trip mutated the system:\n in: %+v %+v\nout: %+v %+v",
				s, sys.Procs, sys.Jobs, back.Procs, back.Jobs)
		}
	}
}

// TestParseSchedulerUnknown pins the error paths for unknown scheduler
// names, both through ParseScheduler and through the JSON codec.
func TestParseSchedulerUnknown(t *testing.T) {
	if _, err := model.ParseScheduler("bogus"); err == nil {
		t.Error("ParseScheduler(bogus) succeeded")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("ParseScheduler(bogus) error %q does not name the input", err)
	}
	doc := `{"processors":[{"scheduler":"bogus"}],"jobs":[{"deadline":1,"subjobs":[{"proc":0,"exec":1}],"releases":[0]}]}`
	if _, err := model.Load(strings.NewReader(doc)); err == nil {
		t.Error("Load with unknown scheduler name succeeded")
	}
	var s model.Scheduler
	if err := json.Unmarshal([]byte(`"nope"`), &s); err == nil {
		t.Error("UnmarshalJSON(nope) succeeded")
	}
}

// TestValidateRejectsUnregisteredScheduler: a numeric scheduler value with
// no registry entry must fail validation, not silently analyze as nothing.
func TestValidateRejectsUnregisteredScheduler(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.Scheduler(99)}},
		Jobs: []model.Job{{Deadline: 10,
			Subjobs:  []model.Subjob{{Proc: 0, Exec: 1}},
			Releases: []model.Ticks{0}}},
	}
	if err := sys.Validate(); err == nil {
		t.Error("Validate accepted an unregistered scheduler")
	} else if !strings.Contains(err.Error(), "unregistered scheduler") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestTDMAValidation exercises the TDMA-specific ValidateProc hooks
// through the model registry (slot parameters and the no-critical-section
// restriction).
func TestTDMAValidation(t *testing.T) {
	tdmaSched := model.Scheduler(3)
	base := func() *model.System {
		return &model.System{
			Procs: []model.Processor{{Sched: tdmaSched, Slot: 2, Cycle: 6, Offset: 1}},
			Jobs: []model.Job{{Deadline: 50,
				Subjobs:  []model.Subjob{{Proc: 0, Exec: 3}},
				Releases: []model.Ticks{0, 10}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid TDMA system rejected: %v", err)
	}
	bad := base()
	bad.Procs[0].Slot = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero slot accepted")
	}
	bad = base()
	bad.Procs[0].Cycle = 1 // one subjob with slot 2 does not fit
	if err := bad.Validate(); err == nil {
		t.Error("cycle shorter than the slot table accepted")
	}
	bad = base()
	bad.Procs[0].Offset = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	bad = base()
	bad.Jobs[0].Subjobs[0].CS = []model.CriticalSection{{Resource: 0, Start: 0, Duration: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("critical section on a TDMA processor accepted")
	}
}
