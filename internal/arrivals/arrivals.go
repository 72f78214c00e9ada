// Package arrivals generates concrete release traces for the first subjob
// of a job (the t_{k,1,i} of Section 3.1). The analyses operate on
// arbitrary traces; this package provides the patterns used in the paper's
// evaluation - strictly periodic streams (Equation 25) and the bursty
// aperiodic pattern of Equation (27) - plus the clustered bursts of the
// bursty workload family.
//
// Generators work in continuous model time (float64) and scale to integer
// ticks with a Scale; the default of one million ticks per time unit keeps
// discretization error far below any quantity the paper reports.
package arrivals

import (
	"math"
	"sort"

	"rta/internal/model"
)

// Scale converts continuous model time to integer ticks.
type Scale struct {
	// TicksPerUnit is the number of ticks in one continuous time unit.
	TicksPerUnit int64
}

// DefaultScale resolves one time unit to 1e6 ticks.
var DefaultScale = Scale{TicksPerUnit: 1_000_000}

// Ticks converts a continuous instant or duration to ticks (rounding to
// nearest, never below zero for non-negative inputs).
func (s Scale) Ticks(t float64) model.Ticks {
	v := math.Round(t * float64(s.TicksPerUnit))
	if v < 0 {
		return 0
	}
	return model.Ticks(v)
}

// DurationTicks converts a positive duration, enforcing a one-tick
// minimum so execution times never collapse to zero.
func (s Scale) DurationTicks(d float64) model.Ticks {
	v := s.Ticks(d)
	if v < 1 {
		return 1
	}
	return v
}

// Periodic returns the releases of a strictly periodic stream with the
// given phase: phase, phase+period, ... up to horizon (inclusive). This is
// Equation (25) of the paper when phase = 0 and period = 1/x_k.
func Periodic(period, phase float64, horizon float64, sc Scale) []model.Ticks {
	if period <= 0 {
		panic("arrivals: non-positive period")
	}
	var out []model.Ticks
	for t := phase; t <= horizon; t += period {
		out = append(out, sc.Ticks(t))
	}
	return out
}

// PaperAperiodic returns the bursty aperiodic pattern of Equation (27):
//
//	t_m = (1/x) * sqrt(x^2 + (m-1)^2) - 1,   m = 1, 2, ...
//
// with x drawn uniformly from (0,1) by the caller. The stream starts at 0,
// is denser than periodic early on (the burst) and approaches period 1/x
// asymptotically. Releases are generated up to horizon.
func PaperAperiodic(x float64, horizon float64, sc Scale) []model.Ticks {
	if x <= 0 || x >= 1 {
		panic("arrivals: x must lie in (0,1)")
	}
	var out []model.Ticks
	for m := 1; ; m++ {
		t := math.Sqrt(x*x+float64(m-1)*float64(m-1))/x - 1
		if t > horizon {
			break
		}
		out = append(out, sc.Ticks(t))
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// Bursts returns clustered releases: every interval, a burst of size
// releases arrives with spacing gap inside the burst. Models the "bursty
// job arrivals" of the paper's title in their most adversarial form.
func Bursts(interval float64, size int, gap float64, horizon float64, sc Scale) []model.Ticks {
	if interval <= 0 || size <= 0 {
		panic("arrivals: invalid burst parameters")
	}
	var out []model.Ticks
	for t := 0.0; t <= horizon; t += interval {
		for i := 0; i < size; i++ {
			at := t + float64(i)*gap
			if at > horizon {
				break
			}
			out = append(out, sc.Ticks(at))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
