// Package stats provides the deterministic randomness and the small
// statistical toolkit the experiment harness needs: seeded generator
// construction, admission-probability estimation with binomial confidence
// intervals, and running min/mean/max summaries.
package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic generator for a (seed, stream) pair.
// Distinct streams decorrelate the parallel arms of an experiment while
// keeping every run reproducible from a single master seed.
func NewRand(seed int64, stream int64) *rand.Rand {
	// SplitMix64 step to spread (seed, stream) into a well-mixed state.
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Proportion is a Bernoulli estimate: successes out of trials.
type Proportion struct {
	Successes, Trials int
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Estimate returns the sample proportion.
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given z (1.96 for 95%).
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Estimate()
	den := 1 + z*z/n
	center := (ph + z*z/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Summary accumulates the running minimum, mean and maximum.
type Summary struct {
	N    int
	mean float64
	Min  float64
	Max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	}
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
	s.N++
	s.mean += (x - s.mean) / float64(s.N)
}

// Mean returns the sample mean.
func (s Summary) Mean() float64 { return s.mean }
