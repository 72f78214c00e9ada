// Package priority assigns static priorities to subjobs. The analyses
// accept arbitrary assignments (Section 3.2); the paper's evaluation uses
// the relative-deadline-monotonic rule of Equation (24), implemented here
// along with Audsley's optimal priority assignment.
package priority

import (
	"sort"

	"rta/internal/model"
)

// RelativeDeadlineMonotonic applies Equation (24): each subjob receives
// the sub-deadline
//
//	D_{k,j} = tau_{k,j} / sum_i tau_{k,i} * D_k
//
// and on every processor the subjobs are ranked by sub-deadline, smallest
// first (rank = priority value; smaller is higher priority). Ties rank
// deterministically by (job, hop).
func RelativeDeadlineMonotonic(sys *model.System) {
	type entry struct {
		ref model.SubjobRef
		sub float64
	}
	for p := range sys.Procs {
		var entries []entry
		for _, ref := range sys.OnProc(p) {
			job := &sys.Jobs[ref.Job]
			var total model.Ticks
			for _, sj := range job.Subjobs {
				total += sj.Exec
			}
			sub := float64(job.Subjobs[ref.Hop].Exec) / float64(total) * float64(job.Deadline)
			entries = append(entries, entry{ref, sub})
		}
		sort.SliceStable(entries, func(a, b int) bool {
			if entries[a].sub != entries[b].sub {
				return entries[a].sub < entries[b].sub
			}
			if entries[a].ref.Job != entries[b].ref.Job {
				return entries[a].ref.Job < entries[b].ref.Job
			}
			return entries[a].ref.Hop < entries[b].ref.Hop
		})
		for rank, e := range entries {
			sys.Subjob(e.ref).Priority = rank
		}
	}
}
