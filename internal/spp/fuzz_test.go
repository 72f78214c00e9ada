package spp

import (
	"context"
	"testing"

	"rta/internal/model"
	"rta/internal/sim"
)

// FuzzExactEqualsSimulation decodes a compact byte recipe into a small
// two-processor system and checks the exactness property on it. Run with
//
//	go test -fuzz FuzzExactEqualsSimulation ./internal/spp
//
// for an open-ended search; the seeds below run as part of `go test`.
func FuzzExactEqualsSimulation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 9, 200, 3, 7, 77, 5, 0, 0, 13})
	f.Add([]byte{8, 0, 8, 0, 8, 0, 8, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := decodeSystem(data)
		if sys == nil {
			return
		}
		res, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			return // cyclic recipes are out of scope for the exact method
		}
		got := sim.Run(sys)
		for k := range sys.Jobs {
			if res.WCRT[k] != got.WorstResponse(k) {
				t.Fatalf("WCRT job %d: analysis %d, simulation %d\nsystem: %+v",
					k+1, res.WCRT[k], got.WorstResponse(k), sys)
			}
			for j := range sys.Jobs[k].Subjobs {
				for i := range sys.Jobs[k].Releases {
					if res.Departure[k][j][i] != got.Departure[k][j][i] {
						t.Fatalf("departure T_{%d,%d} inst %d: analysis %d, simulation %d\nsystem: %+v",
							k+1, j+1, i, res.Departure[k][j][i], got.Departure[k][j][i], sys)
					}
				}
			}
		}
	})
}

// decodeSystem turns fuzz bytes into a small SPP system: two processors,
// up to three jobs with up to two hops, bursty release traces. Returns
// nil if the recipe is too short.
func decodeSystem(data []byte) *model.System {
	if len(data) < 6 {
		return nil
	}
	next := func() int {
		v := int(data[0])
		data = data[1:]
		if len(data) == 0 {
			data = []byte{7}
		}
		return v
	}
	sys := &model.System{
		Procs: []model.Processor{{Sched: model.SPP}, {Sched: model.SPP}},
	}
	jobs := 1 + next()%3
	for k := 0; k < jobs; k++ {
		job := model.Job{Deadline: 1000}
		hops := 1 + next()%2
		for j := 0; j < hops; j++ {
			job.Subjobs = append(job.Subjobs, model.Subjob{
				Proc:     (next() + j) % 2,
				Exec:     model.Ticks(1 + next()%16),
				Priority: next() % 3,
			})
		}
		n := 1 + next()%5
		t := model.Ticks(0)
		for i := 0; i < n; i++ {
			job.Releases = append(job.Releases, t)
			t += model.Ticks(next() % 24)
		}
		sys.Jobs = append(sys.Jobs, job)
	}
	// Keep the exact method applicable: forbid physical loops by
	// remapping each job's hops to distinct processors.
	for k := range sys.Jobs {
		if len(sys.Jobs[k].Subjobs) == 2 && sys.Jobs[k].Subjobs[0].Proc == sys.Jobs[k].Subjobs[1].Proc {
			sys.Jobs[k].Subjobs[1].Proc = 1 - sys.Jobs[k].Subjobs[1].Proc
		}
	}
	return sys
}
