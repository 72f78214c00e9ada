package spp

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
	"rta/internal/sim"
)

// TestExactEqualsSimulation is the central exactness property of the
// paper's Section 4.1: on any concrete release trace, the Theorem 1-3
// analysis must reproduce the discrete-event schedule instant by instant -
// every per-hop departure and every end-to-end response time.
func TestExactEqualsSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		sys := randsys.New(r, randsys.Default)
		res, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				for i := range sys.Jobs[k].Releases {
					if res.Departure[k][j][i] != got.Departure[k][j][i] {
						t.Fatalf("trial %d: departure T_{%d,%d} instance %d: analysis %d, simulation %d\nsystem: %+v",
							trial, k+1, j+1, i, res.Departure[k][j][i], got.Departure[k][j][i], sys)
					}
					if res.Arrival[k][j][i] != got.Arrival[k][j][i] {
						t.Fatalf("trial %d: arrival T_{%d,%d} instance %d: analysis %d, simulation %d",
							trial, k+1, j+1, i, res.Arrival[k][j][i], got.Arrival[k][j][i])
					}
				}
			}
			if res.WCRT[k] != got.WorstResponse(k) {
				t.Fatalf("trial %d: WCRT job %d: analysis %d, simulation %d",
					trial, k+1, res.WCRT[k], got.WorstResponse(k))
			}
		}
	}
}

// TestSingleProcessorClassic checks hand-computed schedules.
func TestSingleProcessorClassic(t *testing.T) {
	// Two jobs on one SPP processor, priorities 0 (high) and 1 (low).
	// High: exec 2, releases at 0, 4, 8. Low: exec 3, releases at 0, 5.
	// Schedule: H:[0,2) L:[2,5) H:[4..] -> preemption at 4:
	//   t=0..2 H1; t=2..4 L1 (1 left); t=4..6 H2; t=6..7 L1 done at 7;
	//   t=7..10 L2? L2 released at 5: t=7..8 L2 (2 left); H3 at 8..10;
	//   L2 resumes 10..12.
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 2, Priority: 0}},
				Releases: []model.Ticks{0, 4, 8}},
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 3, Priority: 1}},
				Releases: []model.Ticks{0, 5}},
		},
	}
	res, err := AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantHigh := []model.Ticks{2, 6, 10}
	wantLow := []model.Ticks{7, 12}
	for i, w := range wantHigh {
		if res.Departure[0][0][i] != w {
			t.Errorf("high instance %d departs %d, want %d", i, res.Departure[0][0][i], w)
		}
	}
	for i, w := range wantLow {
		if res.Departure[1][0][i] != w {
			t.Errorf("low instance %d departs %d, want %d", i, res.Departure[1][0][i], w)
		}
	}
	if res.WCRT[0] != 2 || res.WCRT[1] != 7 {
		t.Errorf("WCRT = %v, want [2 7]", res.WCRT)
	}
	if !res.Schedulable(sys) {
		t.Error("system should be schedulable with deadline 100")
	}
}

// TestTwoHopPipeline checks a distributed chain by hand.
func TestTwoHopPipeline(t *testing.T) {
	// Job T1: P1 (exec 3) -> P2 (exec 2), released at 0 and 3.
	// Alone in the system: departures P1 at 3, 6; P2 arrivals 3, 6;
	// P2 departures 5, 8. End-to-end responses 5 and 5.
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 10, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 3, Priority: 0},
				{Proc: 1, Exec: 2, Priority: 0},
			}, Releases: []model.Ticks{0, 3}},
		},
	}
	res, err := AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departure[0][0][0] != 3 || res.Departure[0][0][1] != 6 {
		t.Errorf("hop 1 departures = %v", res.Departure[0][0])
	}
	if res.Departure[0][1][0] != 5 || res.Departure[0][1][1] != 8 {
		t.Errorf("hop 2 departures = %v", res.Departure[0][1])
	}
	if res.WCRT[0] != 5 {
		t.Errorf("WCRT = %d, want 5", res.WCRT[0])
	}
}

// TestBurstArrivals: simultaneous releases must queue FIFO within the
// subjob and the response of the last instance reflects the whole burst.
func TestBurstArrivals(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}},
		Jobs: []model.Job{
			{Deadline: 100, Subjobs: []model.Subjob{{Proc: 0, Exec: 4, Priority: 0}},
				Releases: []model.Ticks{10, 10, 10}},
		},
	}
	res, err := AnalyzeWith(context.Background(), sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Ticks{14, 18, 22}
	for i, w := range want {
		if res.Departure[0][0][i] != w {
			t.Errorf("instance %d departs %d, want %d", i, res.Departure[0][0][i], w)
		}
	}
	if res.WCRT[0] != 12 {
		t.Errorf("WCRT = %d, want 12", res.WCRT[0])
	}
}

// TestRejectsNonSPP verifies scheduler checking.
func TestRejectsNonSPP(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.FCFS}},
		Jobs: []model.Job{
			{Deadline: 10, Subjobs: []model.Subjob{{Proc: 0, Exec: 1}}, Releases: []model.Ticks{0}},
		},
	}
	if _, err := AnalyzeWith(context.Background(), sys, 1, nil); err != ErrNotSPP {
		t.Fatalf("err = %v, want ErrNotSPP", err)
	}
}

// TestDetectsCycle builds a logical loop: two jobs crossing two processors
// with priorities that make each depend on the other.
func TestDetectsCycle(t *testing.T) {
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
		Jobs: []model.Job{
			// A: P1 (low) -> P2 (high)
			{Deadline: 10, Subjobs: []model.Subjob{
				{Proc: 0, Exec: 1, Priority: 5},
				{Proc: 1, Exec: 1, Priority: 0},
			}, Releases: []model.Ticks{0}},
			// B: P2 (low) -> P1 (high)
			{Deadline: 10, Subjobs: []model.Subjob{
				{Proc: 1, Exec: 1, Priority: 5},
				{Proc: 0, Exec: 1, Priority: 0},
			}, Releases: []model.Ticks{0}},
		},
	}
	if _, err := AnalyzeWith(context.Background(), sys, 1, nil); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

// TestServiceCurvesAreValid: the exact service functions must satisfy all
// Curve invariants and sum to at most the elapsed time per processor.
func TestServiceCurvesAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sys := randsys.New(r, randsys.Default)
		res, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for p := range sys.Procs {
			var curves []*curve.Curve
			for _, ref := range sys.OnProc(p) {
				c := res.Service[ref.Job][ref.Hop]
				if err := c.Validate(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				curves = append(curves, c)
			}
			// Availability of a hypothetical lowest-priority subjob must
			// be a valid curve, i.e. total service has slope <= 1.
			a := curve.Availability(curves)
			if err := a.Validate(); err != nil {
				t.Fatalf("trial %d: processor %d oversubscribed: %v", trial, p, err)
			}
		}
	}
}
