package model

import "fmt"

// CriticalSection is a span of a subjob's execution during which it holds
// a shared resource. The paper's conclusion lists shared-resource support
// as future work; this module implements it for resources local to one
// processor under the immediate priority ceiling protocol (IPCP, also
// called the highest locker protocol), whose worst-case blocking equals
// the classical priority ceiling protocol's: at most one critical section
// of a lower-priority subjob whose resource ceiling reaches the analyzed
// priority.
//
// Sections are given in execution-time coordinates: the subjob takes the
// lock after Start ticks of its own execution and releases it after
// Start+Duration ticks. Sections of one subjob must be sorted, non-empty,
// non-overlapping and contained in [0, Exec].
type CriticalSection struct {
	// Resource identifies the shared resource (small non-negative int).
	Resource int
	// Start is the executed-time offset at which the lock is taken.
	Start Ticks
	// Duration is the executed time for which the lock is held.
	Duration Ticks
}

// ValidateResources checks the critical-section structure and the
// local-resource restriction: every user of a resource must live on the
// same processor (remote resource access is the part of the paper's
// future work this module does not cover).
func (s *System) ValidateResources() error {
	procOf := map[int]int{} // resource -> processor
	for k := range s.Jobs {
		for j := range s.Jobs[k].Subjobs {
			sj := &s.Jobs[k].Subjobs[j]
			if err := validateSubjobCS(fmt.Sprintf("job %d hop %d", k, j), sj); err != nil {
				return err
			}
			for _, cs := range sj.CS {
				if p, ok := procOf[cs.Resource]; ok && p != sj.Proc {
					return fmt.Errorf("model: resource %d used on processors %d and %d; resources must be local",
						cs.Resource, p, sj.Proc)
				}
				procOf[cs.Resource] = sj.Proc
			}
		}
	}
	return nil
}

// validateSubjobCS checks one hop's critical-section structure (the
// per-subjob half of ValidateResources; the cross-job local-resource
// restriction needs the whole system and stays with the callers).
func validateSubjobCS(label string, sj *Subjob) error {
	var prev Ticks = -1
	for c, cs := range sj.CS {
		if cs.Resource < 0 {
			return fmt.Errorf("model: %s section %d: negative resource", label, c)
		}
		if cs.Duration <= 0 {
			return fmt.Errorf("model: %s section %d: non-positive duration", label, c)
		}
		if cs.Start < 0 || cs.Start+cs.Duration > sj.Exec {
			return fmt.Errorf("model: %s section %d: outside execution [0,%d]", label, c, sj.Exec)
		}
		if cs.Start < prev {
			return fmt.Errorf("model: %s section %d: sections overlap or are unsorted", label, c)
		}
		prev = cs.Start + cs.Duration
	}
	return nil
}

// HasResources reports whether any subjob declares a critical section.
func (s *System) HasResources() bool {
	for k := range s.Jobs {
		for _, sj := range s.Jobs[k].Subjobs {
			if len(sj.CS) > 0 {
				return true
			}
		}
	}
	return false
}

// PCPBlocking returns the worst-case blocking of subjob r on its SPP
// processor under the (immediate) priority ceiling protocol: the longest
// critical section of any strictly lower-priority subjob on the same
// processor whose resource ceiling is at least r's priority (ceiling
// comparisons use the numeric priority; ties block, matching the
// deterministic tie-break). On SPNP and FCFS processors execution is
// non-preemptable, so local resources are never contended and contribute
// no extra blocking beyond Equation (15). Cached in the topology index.
func (s *System) PCPBlocking(r SubjobRef) Ticks {
	return s.Topology().PCPBlocking(r)
}
