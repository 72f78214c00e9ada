// Package sensitivity answers the questions a system designer asks right
// after a schedulability verdict: how much margin is there? It provides
// per-job deadline slack under any of the analyses and a breakdown-load
// search - the largest uniform scaling of all execution times that keeps
// the system schedulable, the trace-based analogue of the classical
// breakdown-utilization metric.
package sensitivity

import (
	"errors"
	"fmt"

	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/model"
)

// Verdict is a schedulability test: it returns per-job worst-case
// response bounds for the system.
type Verdict func(*model.System) ([]model.Ticks, error)

// ExactVerdict analyzes with the exact SPP analysis.
func ExactVerdict(sys *model.System) ([]model.Ticks, error) {
	res, err := analysis.Exact(sys)
	if err != nil {
		return nil, err
	}
	return res.WCRT, nil
}

// Theorem4Verdict analyzes with the approximate pipeline (Equation 11
// bounds, as the paper's admission test uses).
func Theorem4Verdict(sys *model.System) ([]model.Ticks, error) {
	res, err := analysis.Approximate(sys)
	if err != nil {
		return nil, err
	}
	return res.WCRTSum, nil
}

// Slack returns, per job, the end-to-end deadline minus the computed
// worst-case response bound. Negative slack means the job misses. A job
// whose bound is curve.Inf (never certified to complete) has no finite
// slack and reports -curve.Inf+1 = math.MinInt64+2, below every finite
// slack; use Schedulable for verdicts.
func Slack(sys *model.System, v Verdict) ([]model.Ticks, error) {
	wcrt, err := v(sys)
	if err != nil {
		return nil, err
	}
	out := make([]model.Ticks, len(sys.Jobs))
	for k := range sys.Jobs {
		if curve.IsInf(wcrt[k]) {
			out[k] = -curve.Inf + 1
			continue
		}
		out[k] = sys.Jobs[k].Deadline - wcrt[k]
	}
	return out, nil
}

// Schedulable reports whether every job's bound meets its deadline.
func Schedulable(sys *model.System, v Verdict) (bool, error) {
	wcrt, err := v(sys)
	if err != nil {
		return false, err
	}
	for k := range sys.Jobs {
		if curve.IsInf(wcrt[k]) || wcrt[k] > sys.Jobs[k].Deadline {
			return false, nil
		}
	}
	return true, nil
}

// ScaleExec returns a copy of the system with every execution time
// multiplied by num/den (rounded up, never below one tick). Deadlines and
// release traces are unchanged.
func ScaleExec(sys *model.System, num, den int64) *model.System {
	if num <= 0 || den <= 0 {
		panic(fmt.Sprintf("sensitivity: invalid scale %d/%d", num, den))
	}
	out := sys.Clone()
	for k := range out.Jobs {
		for j := range out.Jobs[k].Subjobs {
			e := (out.Jobs[k].Subjobs[j].Exec*num + den - 1) / den
			if e < 1 {
				e = 1
			}
			out.Jobs[k].Subjobs[j].Exec = e
		}
	}
	return out
}

// ErrBaseUnschedulable is returned by Breakdown when even the unscaled
// system fails its deadlines.
var ErrBaseUnschedulable = errors.New("sensitivity: system unschedulable at scale 1.0")

// Breakdown finds the execution-time scaling frontier: the largest factor
// s (a multiple of 1/granularity in [1, maxScale]) such that the system
// is schedulable at *every* grid factor up to s. The frontier is scanned
// linearly rather than binary-searched because end-to-end response times
// in distributed systems are NOT monotone in the execution times: growing
// an upstream subjob can shift an instance's arrival at the next
// processor past a burst of interference and shorten its response (a
// Graham-style scheduling anomaly; the package tests exhibit a concrete
// instance). The everything-below-schedulable frontier is the margin a
// designer can actually rely on.
func Breakdown(sys *model.System, v Verdict, maxScale float64, granularity int64) (float64, error) {
	if granularity <= 0 {
		granularity = 128
	}
	if maxScale < 1 {
		maxScale = 1
	}
	ok, err := Schedulable(sys, v)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrBaseUnschedulable
	}
	last := granularity
	hi := int64(maxScale * float64(granularity))
	for num := granularity + 1; num <= hi; num++ {
		ok, err := Schedulable(ScaleExec(sys, num, granularity), v)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		last = num
	}
	return float64(last) / float64(granularity), nil
}
