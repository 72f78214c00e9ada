// Package benchsys builds the deterministic 50x8 job shop that the
// large-system benchmarks of internal/analysis, internal/admission and
// internal/serve, and the serve-large workload of bench/, all measure.
package benchsys

import "rta/internal/model"

// The scale the tracked performance trajectory cares about: 50 chains of
// 8 hops, 16 bursty instances each (400 subjobs, 800 release events).
const (
	Jobs      = 50
	Hops      = 8
	Instances = 16
)

// Large builds a deterministic job shop: `jobs` chains of `hops` hops,
// one processor per hop (so every processor carries `jobs` subjobs),
// bursty release traces of `instances` instances per job, and a
// per-processor utilization around 0.8 so the service curves stay
// non-trivial all the way to the last hop.
func Large(jobs, hops, instances int, sched model.Scheduler) *model.System {
	sys := &model.System{}
	for p := 0; p < hops; p++ {
		sys.Procs = append(sys.Procs, model.Processor{Sched: sched})
	}
	// Execution times cycle 1..4 (mean 2.5): total work per release wave is
	// jobs*2.5 ticks per processor; a burst pair every 2 releases with gap
	// 2*jobs*3 ticks keeps the demanded utilization near 0.8.
	gap := model.Ticks(2 * jobs * 3)
	for k := 0; k < jobs; k++ {
		job := model.Job{Deadline: model.Ticks(hops) * gap * model.Ticks(instances)}
		for j := 0; j < hops; j++ {
			job.Subjobs = append(job.Subjobs, model.Subjob{
				Proc:     j,
				Exec:     model.Ticks(1 + (k+j)%4),
				Priority: k % 10,
			})
		}
		// Bursty trace: instances arrive in pairs (zero-gap bursts), the
		// pairs spread over the horizon with a per-job phase.
		t := model.Ticks(k % 7)
		for i := 0; i < instances; i++ {
			job.Releases = append(job.Releases, t)
			if i%2 == 1 {
				t += gap
			}
		}
		sys.Jobs = append(sys.Jobs, job)
	}
	return sys
}
