package curve

import (
	"fmt"
	"sync/atomic"

	"rta/internal/fault"
)

// Limiter meters the total number of curve breakpoints an analysis run
// materializes. Engines charge every curve they construct or cache against
// the run's limiter; once the running total crosses the ceiling, Charge
// panics a *BudgetError, which the engine recovers once its sweep has
// drained and converts into a partial result wrapped in
// fault.ErrBudgetExceeded.
//
// The counter is monotone — breakpoints are never refunded when a curve is
// discarded — so the budget bounds the cumulative work of the run, not the
// peak live memory. It is safe for concurrent use by par.Run workers. A
// nil *Limiter is valid and never trips.
type Limiter struct {
	max  int64
	used atomic.Int64
}

// NewLimiter returns a limiter that allows up to max breakpoints in total.
// max <= 0 means unlimited (the limiter never trips).
func NewLimiter(max int64) *Limiter {
	return &Limiter{max: max}
}

// Charge adds the breakpoint counts of the given curves (nil entries are
// ignored) to the running total and panics a *BudgetError if the total
// exceeds the ceiling. Nil receivers and non-positive ceilings never trip.
func (l *Limiter) Charge(curves ...*Curve) {
	if l == nil || l.max <= 0 {
		return
	}
	var n int64
	for _, c := range curves {
		if c != nil {
			n += int64(c.Breaks())
		}
	}
	if n == 0 {
		return
	}
	if l.used.Add(n) > l.max {
		panic(&BudgetError{Limit: l.max})
	}
}

// BudgetError is the typed panic payload raised by Limiter.Charge. Engines
// recover it (via fault.Payload + errors.As) and degrade to partial results
// instead of letting it reach an entry-point boundary as an internal error.
type BudgetError struct {
	// Limit is the breakpoint ceiling that was exceeded.
	Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("curve: breakpoint budget of %d exceeded: %v", e.Limit, fault.ErrBudgetExceeded)
}

// Unwrap makes errors.Is(e, fault.ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return fault.ErrBudgetExceeded }
