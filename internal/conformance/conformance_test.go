package conformance

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
	"rta/internal/spp"
)

func pipeline() *model.System {
	return &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Name: "a", Deadline: 20, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 3, Priority: 0, PostDelay: 2},
				{Proc: 1, Exec: 4, Priority: 0},
			}, Releases: []model.Ticks{0, 30}},
		},
	}
}

// fromSim converts a simulation result into a log, so a simulated
// schedule can be replayed through the checker.
func fromSim(sys *model.System, arrival, departure [][][]model.Ticks) *Log {
	log := &Log{}
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			for i := range sys.Jobs[k].Releases {
				log.Records = append(log.Records, Record{
					Job: k, Hop: j, Idx: i,
					Release:  arrival[k][j][i],
					Complete: departure[k][j][i],
				})
			}
		}
	}
	return log
}

func TestSimulatedScheduleConforms(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		cfg := randsys.Default
		cfg.Schedulers = []model.Scheduler{model.SPP}
		cfg.MaxPostDelay = 5
		sys := randsys.New(r, cfg)
		// Deadlines equal to the exact bounds: nothing may be flagged.
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			sys.Jobs[k].Deadline = res.WCRT[k]
		}
		got := sim.Run(sys)
		log := fromSim(sys, got.Arrival, got.Departure)
		if v := Check(sys, log, res.WCRT); len(v) != 0 {
			t.Fatalf("trial %d: simulated schedule flagged: %v", trial, v[0])
		}
	}
}

func TestDetectsViolations(t *testing.T) {
	sys := pipeline()
	cases := []struct {
		log  Log
		kind string
	}{
		{Log{[]Record{{Job: 5, Hop: 0, Idx: 0, Release: 0, Complete: 3}}}, "structure"},
		{Log{[]Record{{Job: 0, Hop: 7, Idx: 0, Release: 0, Complete: 3}}}, "structure"},
		{Log{[]Record{{Job: 0, Hop: 0, Idx: 9, Release: 0, Complete: 3}}}, "structure"},
		{Log{[]Record{{Job: 0, Hop: 0, Idx: 0, Release: 5, Complete: 4}}}, "order"},
		// Next hop released before completion + link latency.
		{Log{[]Record{
			{Job: 0, Hop: 0, Idx: 0, Release: 0, Complete: 3},
			{Job: 0, Hop: 1, Idx: 0, Release: 4, Complete: 9},
		}}, "order"},
		// Deadline exceeded end to end.
		{Log{[]Record{
			{Job: 0, Hop: 0, Idx: 0, Release: 0, Complete: 10},
			{Job: 0, Hop: 1, Idx: 0, Release: 12, Complete: 25},
		}}, "deadline"},
	}
	for i, tc := range cases {
		v := Check(sys, &tc.log, nil)
		found := false
		for _, x := range v {
			if x.Kind == tc.kind {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: no %q violation in %v", i, tc.kind, v)
		}
	}
}

func TestBoundViolationFlagged(t *testing.T) {
	sys := pipeline()
	sys.Jobs[0].Deadline = 100 // deadline loose; bound tight
	log := &Log{[]Record{
		{Job: 0, Hop: 0, Idx: 0, Release: 0, Complete: 3},
		{Job: 0, Hop: 1, Idx: 0, Release: 5, Complete: 50},
	}}
	v := Check(sys, log, []model.Ticks{9})
	found := false
	for _, x := range v {
		if x.Kind == "bound" && strings.Contains(x.Detail, "model mismatch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound violation not flagged: %v", v)
	}
}

func TestParseCSVAndEnvelopes(t *testing.T) {
	src := `
# job,hop,idx,release,complete
0,0,0,0,3
0,0,1,30,34
0,1,0,5,9
`
	log, err := ParseCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 3 {
		t.Fatalf("records = %d", len(log.Records))
	}
	sys := pipeline()
	envs := ObservedEnvelopes(sys, log, 4)
	if len(envs[0].MinGap) == 0 || envs[0].MinGap[0] != 30 {
		t.Fatalf("observed envelope = %v, want first gap 30", envs[0].MinGap)
	}

	if _, err := ParseCSV(strings.NewReader("1,2,3")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ParseCSV(strings.NewReader("a,b,c,d,e")); err == nil {
		t.Error("non-numeric line accepted")
	}
}
