package curve

import (
	"fmt"
	"sort"
	"strings"
)

// Curve is a non-decreasing, integer-exact function of time on [0, +inf).
//
// It represents the paper's arrival functions f_arr (Definition 1),
// departure functions f_dep (Definition 2), workload functions c
// (Definition 3), service functions S (Definition 4) and utilization
// functions U (Definition 7). Arrival, departure and workload functions are
// right-continuous staircases; service and utilization functions are
// continuous with segment slopes in {0, 1} (the processor serves at unit
// rate or not at all). Both shapes, and nothing else, are representable:
// between breakpoints the slope is 0 or 1, and jumps are upward only.
//
// Curve values are immutable; all methods return new curves.
type Curve struct {
	f pl
}

// Zero returns the constant-zero curve, the trivial lower bound of
// Equation (6) in the paper.
func Zero() *Curve { return &Curve{constPL(0)} }

// Identity returns f(t) = t, the trivial service upper bound of
// Equation (5) in the paper and the availability of an idle processor.
func Identity() *Curve { return &Curve{linearPL(0, 1)} }

// Staircase returns the right-continuous staircase that jumps by height at
// every time in jumps: f(t) = height * |{i : jumps[i] <= t}|. The slice
// must be sorted ascending (duplicates encode simultaneous releases) and
// non-negative. With height 1 this is an arrival function built from
// release times; with height tau it is the workload function of
// Equation (1).
func Staircase(jumps []Time, height Value) *Curve {
	return StaircaseIn(nil, jumps, height)
}

// StaircaseIn is Staircase with the breakpoints carved from sc (nil =
// heap). An arena-backed staircase is an intermediate: it is only valid
// until the Scratch resets and must be Cloned to persist (the engines use
// it for per-evaluation demand curves that never outlive the evaluation).
func StaircaseIn(sc *Scratch, jumps []Time, height Value) *Curve {
	if height <= 0 {
		panic("curve: staircase height must be positive")
	}
	pts := sc.take(2*len(jumps) + 1)
	pts = append(pts, Point{0, 0})
	level := Value(0)
	for i := 0; i < len(jumps); {
		t := jumps[i]
		if t < 0 {
			panic("curve: negative release time")
		}
		if i > 0 && t < jumps[i-1] {
			panic("curve: release times not sorted")
		}
		j := i
		for j < len(jumps) && jumps[j] == t {
			j++
		}
		if t > 0 || level > 0 {
			pts = append(pts, Point{t, level})
		}
		level += Value(j-i) * height
		pts = append(pts, Point{t, level})
		i = j
	}
	return &Curve{canonIn(sc, pts, 0)}
}

// Clone returns a heap-backed copy of the curve. It is the persistence
// step for curves built in a Scratch arena: breakpoints are copied
// verbatim (canonical representations are unique, so the copy is
// bit-identical) and the clone stays valid after the arena resets.
// Cloning a heap-backed curve is a plain defensive copy.
func (c *Curve) Clone() *Curve {
	pts := make([]Point, len(c.f.pts))
	copy(pts, c.f.pts)
	return &Curve{pl{pts: pts, tail: c.f.tail}}
}

// fromPL wraps an internal pl as a Curve after verifying the Curve
// invariants. It panics on violation: every construction site is supposed
// to guarantee them by theory, so a violation is a bug in this package or
// in the analysis driving it, never a user input error.
func fromPL(f pl, op string) *Curve {
	f.check()
	if !f.isNonDecreasing() {
		panic(fmt.Sprintf("curve: %s produced a decreasing curve", op))
	}
	if !f.slopesWithin(0, 1) {
		panic(fmt.Sprintf("curve: %s produced a slope outside {0,1}", op))
	}
	return &Curve{f}
}

// Eval returns the (right-continuous) value of the curve at t >= 0.
func (c *Curve) Eval(t Time) Value { return c.f.evalRight(t) }

// EvalLeft returns the left limit of the curve at t (equal to Eval except
// at jump points).
func (c *Curve) EvalLeft(t Time) Value { return c.f.evalLeft(t) }

// Inverse is the pseudo-inverse of Definition 5 in the paper:
//
//	c^-1(y) = min{ s >= 0 : c(s) >= y }.
//
// It returns Inf when the curve never reaches y (an overloaded processor
// never completing instance y). For an arrival staircase, Inverse(m) is the
// release time of the m-th instance (Equation 3).
func (c *Curve) Inverse(y Value) Time {
	pts := c.f.pts
	if pts[0].Y >= y {
		return 0
	}
	// First breakpoint with value >= y; the value is first reached either
	// at that breakpoint (jump) or on the unit-slope segment leading to it.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Y >= y })
	if i == len(pts) {
		last := pts[len(pts)-1]
		if c.f.tail <= 0 {
			return Inf
		}
		return last.X + (y - last.Y) // tail slope is 1
	}
	p, q := pts[i-1], pts[i]
	if q.X > p.X && q.Y-p.Y == q.X-p.X {
		// Unit-slope segment: crossed exactly at an integer time.
		return p.X + (y - p.Y)
	}
	// Jump at q.X (a flat segment cannot raise the value to y).
	return q.X
}

// Add returns the pointwise sum of curves, e.g. the total workload G of
// Equation (21). The summands must be staircases (or at most one of them
// may carry unit-slope segments): the sum has to satisfy the Curve slope
// invariant, which two overlapping unit-rate segments would violate.
func (c *Curve) Add(others ...*Curve) *Curve {
	acc := c.f
	for _, o := range others {
		acc = acc.add(o.f)
	}
	return fromPL(acc, "Add")
}

// Residual is the residual availability A(t) = t - sum_i S_i(t) left
// over by a set of service curves, kept outside the Curve slope
// invariant: every subtracted unit-slope curve lowers the slope by up to
// one, so a residual over k curves has segment slopes down to 1-k and is
// not a valid Curve in general. It is the memoized form of the
// interference terms consumed by the theorem transforms (see sched.Memo):
// both the Theorem 5/6 bundle and the Equation (10) availability need
// exactly t - sum, so the chain maintains that form directly — extending
// by one curve is a single signed two-pointer merge, and the consumers
// read the result with no further pass over it. The empty residual (a
// fully available processor, A(t) = t) is the nil *Residual. Immutable
// once built; safe to share.
type Residual struct{ f pl }

// SubResidual extends the residual r by subtracting one more service
// curve: SubResidual(nil, c) is t - c(t). The result is heap-backed
// (memoized residuals outlive any per-evaluation arena) and, by exact
// integer arithmetic over unique canonical representations,
// bit-identical for any subtraction order.
func SubResidual(r *Residual, c *Curve) *Residual {
	if r == nil {
		return &Residual{sumIn(nil, 0, 1, nil, []pl{c.f})}
	}
	return &Residual{sumIn(nil, 0, 0, []pl{r.f}, []pl{c.f})}
}

// Sum returns the pointwise sum of the given curves in one k-way linear
// merge over the union of their breakpoints: summing k workload
// staircases costs O(total breakpoints) instead of the quadratic
// breakpoint churn of k sequential Adds. The same slope restriction as
// Add applies: at most one summand may carry unit-slope segments. With no
// arguments it returns the zero curve (the empty sum).
func Sum(curves ...*Curve) *Curve { return SumIn(nil, curves...) }

// SumIn is Sum with the result carved from sc (nil = heap); an
// arena-backed result must be Cloned to outlive the Scratch checkout.
func SumIn(sc *Scratch, curves ...*Curve) *Curve {
	if len(curves) == 0 {
		return Zero()
	}
	if len(curves) == 1 {
		return curves[0]
	}
	fs := make([]pl, len(curves))
	for i, c := range curves {
		fs[i] = c.f
	}
	return fromPL(sumIn(sc, 0, 0, fs, nil), "Sum")
}

// Min returns the pointwise minimum of two curves. The minimum is exact
// whenever every crossing of the two curves falls on the integer grid -
// always the case when at least one operand is a staircase, since segment
// slopes are limited to {0,1}; a fractional crossing (only possible
// between a rising and a flat segment meeting off-grid, which cannot occur
// within this slope class) would panic inside the representation.
func (c *Curve) Min(o *Curve) *Curve {
	return fromPL(c.f.minLower(o.f), "Min")
}

// CompletionTimes returns, for m = 1..n, the time at which the curve first
// reaches m*tau: under Theorem 2 these are the departure times of the first
// n instances of a subjob with execution time tau served according to this
// service curve. Entries are Inf for instances that are never completed.
func (c *Curve) CompletionTimes(tau Value, n int) []Time {
	out := make([]Time, n)
	cur := newInverseCursor(c.f)
	for m := 0; m < n; m++ {
		out[m] = cur.inverse(Value(m+1) * tau)
	}
	return out
}

// inverseCursor evaluates the pseudo-inverse at a non-decreasing sequence
// of levels in amortized O(1) per query: because curve values are
// monotone, the breakpoint index only ever moves forward, so a whole
// sweep over n levels costs O(n + breakpoints) instead of a fresh binary
// search per level. Like evalCursor it holds the breakpoints by value.
// The function must be non-decreasing with segment slopes in {0, 1}.
type inverseCursor struct {
	pts  []Point
	tail int64
	i    int // first index with pts[i].Y >= previous query level
}

func newInverseCursor(f pl) inverseCursor { return inverseCursor{pts: f.pts, tail: f.tail} }

// inverse returns min{ s >= 0 : f(s) >= y }, or Inf when f never reaches
// y. Levels must be queried in non-decreasing order.
func (c *inverseCursor) inverse(y Value) Time {
	pts := c.pts
	for c.i < len(pts) && pts[c.i].Y < y {
		c.i++
	}
	if c.i == 0 {
		return 0
	}
	if c.i == len(pts) {
		last := pts[len(pts)-1]
		if c.tail <= 0 {
			return Inf
		}
		return last.X + (y - last.Y) // tail slope is 1
	}
	p, q := pts[c.i-1], pts[c.i]
	if q.X > p.X && q.Y-p.Y == q.X-p.X {
		// Unit-slope segment: crossed exactly at an integer time.
		return p.X + (y - p.Y)
	}
	// Jump at q.X (a flat segment cannot raise the value to y).
	return q.X
}

// Equal reports whether two curves are the same function. Canonical
// representations are unique (canon drops redundant breakpoints), so
// pointwise equality reduces to comparing breakpoints and tail slopes.
// The incremental analysis engine uses this to detect service bounds
// that did not move between fixed-point rounds.
func (c *Curve) Equal(o *Curve) bool {
	if c == o {
		return true
	}
	if c == nil || o == nil || c.f.tail != o.f.tail || len(c.f.pts) != len(o.f.pts) {
		return false
	}
	for i, p := range c.f.pts {
		if p != o.f.pts[i] {
			return false
		}
	}
	return true
}

// Tail returns the slope of the curve after its last breakpoint (0 or 1).
func (c *Curve) Tail() int64 { return c.f.tail }

// Sup returns the supremum of the curve value, or Inf-like behaviour via
// ok=false when the curve grows without bound.
func (c *Curve) Sup() (v Value, ok bool) {
	if c.f.tail != 0 {
		return 0, false
	}
	return c.f.pts[len(c.f.pts)-1].Y, true
}

// Breaks returns the number of breakpoints in the representation, the unit
// metered by Limiter budgets.
func (c *Curve) Breaks() int { return len(c.f.pts) }

// Breakpoints returns a copy of the breakpoint list. Primarily for tests
// and debugging.
func (c *Curve) Breakpoints() []Point {
	out := make([]Point, len(c.f.pts))
	copy(out, c.f.pts)
	return out
}

// Validate checks all representation invariants and returns an error
// instead of panicking. Used by tests and by code that builds curves from
// untrusted inputs.
func (c *Curve) Validate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("curve: %v", r)
		}
	}()
	fromPL(c.f, "Validate")
	return nil
}

// String renders the curve compactly for debugging.
func (c *Curve) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range c.f.pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "(%d,%d)", p.X, p.Y)
	}
	fmt.Fprintf(&b, " tail=%d]", c.f.tail)
	return b.String()
}
