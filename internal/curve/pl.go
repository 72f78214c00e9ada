package curve

import (
	"fmt"
	"sort"
	"sync"
)

// pl is the internal, unrestricted piecewise-linear representation used to
// build curves. Unlike the exported Curve it may be non-monotone and may
// jump downwards, which is required for intermediate quantities such as the
// non-preemptive availability function B of Theorem 5 (which drops by the
// blocking time) and the difference c(s)-A(s) whose running minimum drives
// every service transform.
//
// Representation invariants (checked by check()):
//   - pts is non-empty and pts[0].X == 0;
//   - pts is sorted by X; at most two points share an X (a jump);
//   - between consecutive points with distinct X the function is linear
//     and the slope (Y2-Y1)/(X2-X1) is an integer;
//   - tail is the slope after the last point.
//
// Evaluation is right-continuous; evalLeft gives left limits.
//
// Most constructors take an optional *Scratch (nil = heap): a non-nil
// scratch marks the result as an intermediate whose breakpoints live in
// the arena and die at the next Reset. Final results — everything wrapped
// into an exported Curve — are built with a nil scratch, so exported
// curves never alias arena memory.
type pl struct {
	pts  []Point
	tail int64
}

// constPL returns the constant function v.
func constPL(v Value) pl { return pl{pts: []Point{{0, v}}, tail: 0} }

// linearPL returns the function f(t) = y0 + slope*t.
func linearPL(y0 Value, slope int64) pl {
	return pl{pts: []Point{{0, y0}}, tail: slope}
}

// identityPL is the shared identity function t; immutable, so hot paths
// can use it without allocating a fresh linearPL(0, 1).
var identityPL = linearPL(0, 1)

// check panics if the representation invariants are violated. It is cheap
// (linear) and called by the exported Validate helpers and in tests.
func (f pl) check() {
	if len(f.pts) == 0 {
		panic("curve: empty point list")
	}
	if f.pts[0].X != 0 {
		panic(fmt.Sprintf("curve: first breakpoint at x=%d, want 0", f.pts[0].X))
	}
	atX := 1
	for i := 1; i < len(f.pts); i++ {
		p, q := f.pts[i-1], f.pts[i]
		switch {
		case q.X < p.X:
			panic(fmt.Sprintf("curve: breakpoints out of order at %d: %v after %v", i, q, p))
		case q.X == p.X:
			atX++
			if atX > 2 {
				panic(fmt.Sprintf("curve: more than two breakpoints at x=%d", q.X))
			}
		default:
			atX = 1
			if (q.Y-p.Y)%(q.X-p.X) != 0 {
				panic(fmt.Sprintf("curve: non-integer slope between %v and %v", p, q))
			}
		}
	}
}

// lastIdxAtOrBefore returns the index of the last point with X <= t, or -1
// if t precedes every point (impossible for canonical curves, which start
// at X=0, when t >= 0).
func (f pl) lastIdxAtOrBefore(t Time) int {
	// sort.Search finds the first index with X > t.
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].X > t })
	return i - 1
}

// evalRight returns f(t) (right-continuous value). t must be >= 0.
func (f pl) evalRight(t Time) Value {
	i := f.lastIdxAtOrBefore(t)
	if i < 0 {
		panic(fmt.Sprintf("curve: evalRight(%d) before domain start", t))
	}
	p := f.pts[i]
	if i+1 < len(f.pts) {
		q := f.pts[i+1]
		slope := (q.Y - p.Y) / (q.X - p.X)
		return p.Y + slope*(t-p.X)
	}
	return p.Y + f.tail*(t-p.X)
}

// evalLeft returns the left limit lim_{s -> t-} f(s). For t == 0 it returns
// f(0) as there is nothing to the left of the domain.
func (f pl) evalLeft(t Time) Value {
	if t <= 0 {
		return f.evalRight(0)
	}
	i := f.lastIdxAtOrBefore(t)
	p := f.pts[i]
	if p.X == t {
		// Use the first point at X == t: it carries the left limit.
		if i > 0 && f.pts[i-1].X == t {
			return f.pts[i-1].Y
		}
		return p.Y
	}
	return f.evalRight(t)
}

// evalCursor evaluates f at a non-decreasing sequence of positions t >= 0
// in amortized O(1) per query: the index of the last breakpoint at or
// before t only moves forward, so a walk over n sorted positions costs
// O(n + breakpoints) instead of a binary search per position. It stops at
// the same index lastIdxAtOrBefore finds, so right and left return exactly
// what evalRight and evalLeft do. Like sumCursor it holds the breakpoints
// by value, so a cursor over a pl parameter keeps it off the heap.
type evalCursor struct {
	pts  []Point
	tail int64
	i    int // last index with pts[i].X <= the latest query position
}

func newEvalCursor(f pl) evalCursor { return evalCursor{pts: f.pts, tail: f.tail} }

// seek moves the cursor to the last breakpoint with X <= t.
func (c *evalCursor) seek(t Time) {
	for c.i+1 < len(c.pts) && c.pts[c.i+1].X <= t {
		c.i++
	}
}

// right returns f(t); see evalRight.
func (c *evalCursor) right(t Time) Value {
	c.seek(t)
	p := c.pts[c.i]
	if c.i+1 < len(c.pts) {
		q := c.pts[c.i+1]
		slope := (q.Y - p.Y) / (q.X - p.X)
		return p.Y + slope*(t-p.X)
	}
	return p.Y + c.tail*(t-p.X)
}

// left returns the left limit of f at t; see evalLeft.
func (c *evalCursor) left(t Time) Value {
	if t <= 0 {
		return c.right(0)
	}
	c.seek(t)
	p := c.pts[c.i]
	if p.X == t {
		// Use the first point at X == t: it carries the left limit.
		if c.i > 0 && c.pts[c.i-1].X == t {
			return c.pts[c.i-1].Y
		}
		return p.Y
	}
	return c.right(t)
}

// canonIn normalises a list of points produced by an operation: it
// collapses redundant points at equal X (keeping only first and last),
// drops interior collinear points and returns a canonical pl. The tail
// slope is taken from the argument. The result breakpoints are carved from
// sc (nil = an exact-size heap slice); the input buffer is scribbled on
// either way and left free for reuse by the caller.
//
// Canonical representations are unique: the emitted breakpoints are
// exactly the jump positions and slope changes of the function, so any two
// build paths of the same mathematical function canonicalize to identical
// point lists. The engines rely on this to keep results bit-identical
// across algebraically equivalent groupings (e.g. the memoized prefix
// interference sums versus the per-subjob k-way sums).
func canonIn(sc *Scratch, pts []Point, tail int64) pl {
	if len(pts) == 0 {
		panic("curve: canon of empty point list")
	}
	// Collapse runs of equal X to (first, last); drop zero jumps. Each run
	// emits at most as many points as it contains, so the write index never
	// passes the read index and the phase can reuse the input buffer; the
	// result is copied into a fresh slice below, leaving the caller's
	// buffer free for reuse (sumIn pools its merge buffer this way).
	out := pts[:0]
	for i := 0; i < len(pts); {
		j := i
		for j+1 < len(pts) && pts[j+1].X == pts[i].X {
			j++
		}
		if pts[i].Y != pts[j].Y && i != j {
			out = append(out, pts[i], pts[j])
		} else {
			out = append(out, pts[j])
		}
		i = j + 1
	}
	// Drop interior collinear points.
	pts = out
	out = sc.take(len(pts))
	for _, p := range pts {
		for len(out) >= 2 {
			a, b := out[len(out)-2], out[len(out)-1]
			if a.X == b.X || b.X == p.X {
				break
			}
			// b is redundant if (a,b) and (b,p) have equal slope.
			s1n, s1d := b.Y-a.Y, b.X-a.X
			s2n, s2d := p.Y-b.Y, p.X-b.X
			if s1n*s2d == s2n*s1d {
				out = out[:len(out)-1]
			} else {
				break
			}
		}
		out = append(out, p)
	}
	// Drop a trailing point collinear with the tail extension of the
	// previous point.
	for len(out) >= 2 {
		a, b := out[len(out)-2], out[len(out)-1]
		if a.X != b.X && b.Y-a.Y == tail*(b.X-a.X) {
			out = out[:len(out)-1]
		} else {
			break
		}
	}
	return pl{pts: out, tail: tail}
}

// mergedXs returns the sorted union of breakpoint X coordinates of a and
// b, without duplicates, carved from sc (nil = heap). The coordinates are
// stored in the X fields of a Point buffer so they can live in the arena
// without an unsafe cast; the Y fields are unused.
func mergedXs(sc *Scratch, a, b pl) []Point {
	buf := sc.take(len(a.pts) + len(b.pts))
	i, j := 0, 0
	var last Time = -1
	push := func(x Time) {
		if len(buf) == 0 || x != last {
			buf = append(buf, Point{X: x})
			last = x
		}
	}
	for i < len(a.pts) || j < len(b.pts) {
		switch {
		case j >= len(b.pts) || (i < len(a.pts) && a.pts[i].X <= b.pts[j].X):
			push(a.pts[i].X)
			i++
		default:
			push(b.pts[j].X)
			j++
		}
	}
	return buf
}

// sumCursor walks one summand of sumIn left to right. i is the index of
// the last breakpoint at or before the sweep position and slope the
// segment slope immediately to its right (past any jump at that position).
// sign is +1 for added summands and -1 for subtracted ones: subtraction
// rides the same merge instead of materializing a negated copy of every
// subtrahend, which used to be the single largest allocation source of the
// whole analysis (the interference sums negate one curve per
// higher-priority neighbor).
type sumCursor struct {
	pts   []Point
	tail  int64
	i     int
	slope int64
	sign  int64
}

// slopeAfter returns the signed slope immediately right of the cursor
// position. The cursor is always past every duplicate-X point, so the next
// point (if any) is at a strictly larger X.
func (c *sumCursor) slopeAfter() int64 {
	if c.i+1 < len(c.pts) {
		p, q := c.pts[c.i], c.pts[c.i+1]
		return c.sign * (q.Y - p.Y) / (q.X - p.X)
	}
	return c.sign * c.tail
}

// sumScratch holds the reusable per-call buffers of sumIn: the cursor
// array and the merged-breakpoint buffer. canonIn copies the result out of
// the merge buffer, so neither buffer escapes a call and both can be
// recycled by the next (possibly concurrent) sum.
type sumScratch struct {
	cs  []sumCursor
	pts []Point
}

var sumPool = sync.Pool{New: func() any { return new(sumScratch) }}

// sumIn returns y0 + slope*t + sum(plus) - sum(minus) in a single k-way
// signed linear merge: one left-to-right sweep over the union of all
// breakpoints, maintaining the summed value and summed slope
// incrementally. This is the engine behind the binary add and sub, the
// exported Sum, and every availability/interference combination
// (linearSubSum), replacing both the former per-breakpoint binary-search
// evaluation and the former per-subtrahend negated copies. Scratch buffers
// are pooled: the FCFS path sums one staircase per co-located subjob for
// every subjob of the processor, and the fixed-point engine re-sums on
// every dirty evaluation, so the merge buffers are the hottest allocation
// in the entire analysis. The result breakpoints are carved from sc
// (nil = heap).
func sumIn(sc *Scratch, y0 Value, slope int64, plus, minus []pl) pl {
	if len(plus)+len(minus) == 0 {
		return linearPL(y0, slope)
	}
	ss := sumPool.Get().(*sumScratch)
	cs := ss.cs[:0]
	tail, slopeSum := slope, slope
	valRight := y0
	npts := 0
	for s, fs := range [2][]pl{plus, minus} {
		sign := int64(1 - 2*s) // +1 for plus, -1 for minus
		for _, f := range fs {
			c := sumCursor{pts: f.pts, tail: f.tail, sign: sign}
			for c.i+1 < len(c.pts) && c.pts[c.i+1].X == 0 {
				c.i++ // start from the post-jump value at x = 0
			}
			c.slope = c.slopeAfter()
			valRight += sign * c.pts[c.i].Y
			slopeSum += c.slope
			tail += sign * f.tail
			npts += len(c.pts)
			cs = append(cs, c)
		}
	}
	pts := ss.pts[:0]
	if cap(pts) < npts+1 {
		pts = make([]Point, 0, npts+1)
	}
	pts = append(pts, Point{0, valRight})
	prevX := Time(0)
	for {
		// Next sweep position: the smallest unvisited breakpoint.
		next := Inf
		for n := range cs {
			c := &cs[n]
			if c.i+1 < len(c.pts) && c.pts[c.i+1].X < next {
				next = c.pts[c.i+1].X
			}
		}
		if next == Inf {
			break
		}
		// All summands are linear on (prevX, next), so the left limit is
		// the linear extension of the running sum; jumps at next add the
		// difference between each summand's post-jump value and its own
		// linear extension.
		l := valRight + slopeSum*(next-prevX)
		r := l
		for n := range cs {
			c := &cs[n]
			if c.i+1 < len(c.pts) && c.pts[c.i+1].X == next {
				// Signed left limit of this summand at next: c.slope is
				// already sign-folded, the base value is not.
				leftF := c.sign*c.pts[c.i].Y + c.slope*(next-c.pts[c.i].X)
				for c.i+1 < len(c.pts) && c.pts[c.i+1].X == next {
					c.i++
				}
				r += c.sign*c.pts[c.i].Y - leftF
				slopeSum -= c.slope
				c.slope = c.slopeAfter()
				slopeSum += c.slope
			}
		}
		if l != r {
			pts = append(pts, Point{next, l})
		}
		pts = append(pts, Point{next, r})
		prevX, valRight = next, r
	}
	out := canonIn(sc, pts, tail)
	for i := range cs {
		cs[i] = sumCursor{} // drop summand references so the pool pins nothing
	}
	ss.cs, ss.pts = cs[:0], pts[:0]
	sumPool.Put(ss)
	return out
}

// sumRunningMin returns h(t) = min(seed, inf_{0<=s<=t} F(s)) for
// F = y0 + slope*t + sum(plus) - sum(minus), fusing sumIn's signed k-way
// merge with the runningMinSeeded transform: the summed curve is never
// materialized, and the output carries only the breakpoints where the
// minimum actually moves — typically a handful next to the interference
// sums the service transforms feed in. Left limits at downward jumps are
// accounted exactly as in runningMinSeeded; the same slope restrictions
// apply (a dip below the minimum must happen at slope -1 so the crossing
// stays on the integer grid). The result is carved from sc (nil = heap)
// and bit-identical to materializing the sum and running
// runningMinSeeded over it (both canonicalize the same function).
func sumRunningMin(sc *Scratch, y0 Value, slope int64, plus, minus []pl, seed Value) pl {
	ss := sumPool.Get().(*sumScratch)
	cs := ss.cs[:0]
	tail, slopeSum := slope, slope
	valRight := y0
	for s, fs := range [2][]pl{plus, minus} {
		sign := int64(1 - 2*s) // +1 for plus, -1 for minus
		for _, f := range fs {
			c := sumCursor{pts: f.pts, tail: f.tail, sign: sign}
			for c.i+1 < len(c.pts) && c.pts[c.i+1].X == 0 {
				c.i++ // start from the post-jump value at x = 0
			}
			c.slope = c.slopeAfter()
			valRight += sign * c.pts[c.i].Y
			slopeSum += c.slope
			tail += sign * f.tail
			cs = append(cs, c)
		}
	}
	pts := ss.pts[:0]
	cur := seed
	if valRight < cur {
		cur = valRight
	}
	pts = append(pts, Point{0, cur})
	prevX := Time(0)
	for {
		next := Inf
		for n := range cs {
			c := &cs[n]
			if c.i+1 < len(c.pts) && c.pts[c.i+1].X < next {
				next = c.pts[c.i+1].X
			}
		}
		if next == Inf {
			break
		}
		// The sum is linear on (prevX, next); its left limit at next is l.
		l := valRight + slopeSum*(next-prevX)
		if l < cur {
			// The segment dips below the running minimum; find the crossing.
			if slopeSum >= 0 {
				panic("curve: runningMin: non-decreasing segment dips below minimum")
			}
			if slopeSum < -1 {
				panic("curve: runningMin: slope below -1 unsupported")
			}
			pts = append(pts, Point{prevX + (cur-valRight)/slopeSum, cur}, Point{next, l})
			cur = l
		}
		r := l
		for n := range cs {
			c := &cs[n]
			if c.i+1 < len(c.pts) && c.pts[c.i+1].X == next {
				// Signed left limit of this summand at next: c.slope is
				// already sign-folded, the base value is not.
				leftF := c.sign*c.pts[c.i].Y + c.slope*(next-c.pts[c.i].X)
				for c.i+1 < len(c.pts) && c.pts[c.i+1].X == next {
					c.i++
				}
				r += c.sign*c.pts[c.i].Y - leftF
				slopeSum -= c.slope
				c.slope = c.slopeAfter()
				slopeSum += c.slope
			}
		}
		if r < cur {
			// Downward jump below the minimum at next.
			pts = append(pts, Point{next, cur}, Point{next, r})
			cur = r
		}
		prevX, valRight = next, r
	}
	var out pl
	if tail < 0 {
		if tail < -1 {
			panic("curve: runningMin: tail slope below -1 unsupported")
		}
		if valRight > cur {
			// Flat at cur until the tail crosses it, then follow the tail.
			pts = append(pts, Point{prevX + (cur-valRight)/tail, cur})
		} else {
			pts = append(pts, Point{prevX, cur})
		}
		out = canonIn(sc, pts, tail)
	} else {
		pts = append(pts, Point{prevX, cur})
		out = canonIn(sc, pts, 0)
	}
	for i := range cs {
		cs[i] = sumCursor{} // drop summand references so the pool pins nothing
	}
	ss.cs, ss.pts = cs[:0], pts[:0]
	sumPool.Put(ss)
	return out
}

// shiftFlat returns F'(y) = F(max(y-b, 0)) for b >= 0: F delayed by b
// with a flat prefix at F(0). It folds a constant blocking offset into
// the small outer curve of a composition instead of shifting (and
// copying) the large inner one: F(max(A(t)-b, 0)) == F'(max(A(t), 0))
// pointwise, so callers can share one clamped availability across
// subjobs with different blocking terms.
func (f pl) shiftFlat(sc *Scratch, b Value) pl {
	out := sc.take(len(f.pts) + 1)
	out = append(out, Point{0, f.pts[0].Y})
	for _, p := range f.pts {
		out = append(out, Point{p.X + b, p.Y})
	}
	return canonIn(sc, out, f.tail)
}

// add returns f + g by a two-pointer linear merge.
func (f pl) add(g pl) pl { return f.addIn(nil, g) }

// addIn is add with the result carved from sc (nil = heap).
func (f pl) addIn(sc *Scratch, g pl) pl {
	return sumIn(sc, 0, 0, []pl{f, g}, nil)
}

// neg returns -f.
func (f pl) neg() pl { return f.negIn(nil) }

// negIn is neg with the result carved from sc (nil = heap).
func (f pl) negIn(sc *Scratch) pl {
	pts := sc.take(len(f.pts))
	for _, p := range f.pts {
		pts = append(pts, Point{p.X, -p.Y})
	}
	return pl{pts: pts, tail: -f.tail}
}

// sub returns f - g.
func (f pl) sub(g pl) pl { return f.subIn(nil, g) }

// subIn is sub with the result carved from sc (nil = heap). The
// subtrahend is merged with a negative sign instead of materializing -g.
func (f pl) subIn(sc *Scratch, g pl) pl {
	return sumIn(sc, 0, 0, []pl{f}, []pl{g})
}

// addConst returns f + v with the result carved from sc (nil = heap).
func (f pl) addConst(sc *Scratch, v Value) pl {
	pts := sc.take(len(f.pts))
	for _, p := range f.pts {
		pts = append(pts, Point{p.X, p.Y + v})
	}
	return pl{pts: pts, tail: f.tail}
}

// heap returns f backed by an exact-size heap slice. It is the copy-out
// step for final results built in an arena: canonical points are copied
// verbatim, so the canonical representation (and bit-identity) is
// preserved. With a nil sc the points are already heap-backed and f is
// returned unchanged.
func (f pl) heap(sc *Scratch) pl {
	if sc == nil {
		return f
	}
	pts := make([]Point, len(f.pts))
	copy(pts, f.pts)
	return pl{pts: pts, tail: f.tail}
}

// runningMin returns h with h(t) = inf_{0 <= s <= t} f(s). The infimum
// accounts for left limits at jump points (the infimum over a closed
// interval of a right-continuous function). Downward segment slopes of f
// must be >= -1 (rising slopes are unrestricted); this keeps every crossing
// point on the integer grid, which the analysis relies on. The result has
// slopes in {-1, 0}.
func (f pl) runningMin() pl {
	return f.runningMinSeeded(nil, f.evalRight(0))
}

// runningMinSeeded is runningMin with an additional candidate value seed
// injected at t = 0: h(t) = min(seed, inf_{0<=s<=t} f(s)). The service
// transforms use seed = c(0-) - A(0-) = 0, the "empty prefix" candidate of
// the paper's min terms: without it, instances released exactly at time 0
// would be treated as if their full workload had been served instantly.
// The result is carved from sc (nil = heap).
func (f pl) runningMinSeeded(sc *Scratch, seed Value) pl {
	// Worst case each input breakpoint emits a crossing point plus the
	// breakpoint itself, and the tail handling appends one more pair.
	out := sc.take(2*len(f.pts) + 2)
	// A pre-jump marker at x = 0 is not a function value (the domain
	// starts at 0 and evaluation is right-continuous); start from the
	// post-jump value.
	start := 0
	if len(f.pts) > 1 && f.pts[1].X == 0 {
		start = 1
	}
	cur := seed // running infimum so far
	if f.pts[start].Y < cur {
		cur = f.pts[start].Y
	}
	out = append(out, Point{0, cur})
	emit := func(p Point) {
		out = append(out, p)
	}
	for i := start; i < len(f.pts); i++ {
		p := f.pts[i]
		// Value reached at p.X from the left is evalLeft; the sweep
		// visits points in order so jumps appear as two points.
		if p.Y < cur {
			// The function dips below the running minimum somewhere in
			// (prevX, p.X]. Find where it crosses cur.
			if i == 0 {
				cur = p.Y
				out[0] = Point{0, cur}
				continue
			}
			q := f.pts[i-1]
			if q.X == p.X {
				// Downward jump below cur: minimum drops at p.X.
				emit(Point{p.X, cur})
				emit(Point{p.X, p.Y})
				cur = p.Y
				continue
			}
			slope := (p.Y - q.Y) / (p.X - q.X)
			if slope >= 0 {
				panic("curve: runningMin: non-decreasing segment dips below minimum")
			}
			if slope < -1 {
				panic("curve: runningMin: slope below -1 unsupported")
			}
			// q.Y + slope*(x-q.X) == cur  =>  x = q.X + (cur-q.Y)/slope.
			x := q.X + (cur-q.Y)/slope
			emit(Point{x, cur})
			emit(p)
			cur = p.Y
			continue
		}
		// p.Y >= cur: minimum unchanged at this breakpoint, but the
		// segment leading *out* of p may dip; handled on next iteration.
		// Also check the segment between this point and the next: if it
		// decreases we will catch the dip at the next breakpoint; if this
		// is the last point the tail may dip, handled below.
	}
	last := f.pts[len(f.pts)-1]
	if f.tail < 0 {
		if f.tail < -1 {
			panic("curve: runningMin: tail slope below -1 unsupported")
		}
		if last.Y > cur {
			// Flat at cur until the tail crosses it, then follow the tail.
			x := last.X + (cur-last.Y)/f.tail
			emit(Point{x, cur})
		} else {
			emit(Point{last.X, cur})
		}
		return canonIn(sc, out, f.tail)
	}
	emit(Point{last.X, cur})
	return canonIn(sc, out, 0)
}

// runningMax returns h with h(t) = sup_{0 <= s <= t} f(s), accounting for
// left limits at downward jumps. Segment slopes must lie in {-1, 0, 1}.
// The result has slopes in {0, 1} and is used to make sound lower service
// bounds monotone (a running maximum of a lower bound on a non-decreasing
// function is still a lower bound).
func (f pl) runningMax() pl { return f.runningMaxIn(nil) }

// runningMaxIn is runningMax with intermediates and result carved from sc
// (nil = heap). An already non-decreasing f is its own running maximum and
// is returned as-is (shared, copy-on-write style): the interference terms
// of lightly loaded processors are usually already monotone, and skipping
// the rebuild skips the largest buffer of the transform.
func (f pl) runningMaxIn(sc *Scratch) pl {
	if f.isNonDecreasing() {
		return f
	}
	return f.negIn(sc).runningMinSeedHereIn(sc).negIn(sc)
}

// runningMinSeedHereIn is runningMin (seed = f(0)) carved from sc.
func (f pl) runningMinSeedHereIn(sc *Scratch) pl {
	return f.runningMinSeeded(sc, f.evalRight(0))
}

// clampMin returns max(f, v) pointwise. Upward crossings must happen on
// segments of slope +1 or at breakpoints/jumps for exactness; slopes must
// lie in {-1, 0, 1}.
func (f pl) clampMin(v Value) pl { return f.clampMinIn(nil, v) }

// clampMinIn is clampMin with intermediates and result carved from sc.
// A function already at or above v everywhere is returned as-is.
func (f pl) clampMinIn(sc *Scratch, v Value) pl {
	if f.tail >= 0 && f.min() >= v {
		return f
	}
	return f.negIn(sc).clampMaxIn(sc, -v).negIn(sc)
}

// min returns the smallest breakpoint value (the function minimum when the
// tail is non-negative, since segments are linear between breakpoints).
func (f pl) min() Value {
	m := f.pts[0].Y
	for _, p := range f.pts[1:] {
		if p.Y < m {
			m = p.Y
		}
	}
	return m
}

// clampMax returns min(f, v) pointwise.
func (f pl) clampMax(v Value) pl { return f.clampMaxIn(nil, v) }

// clampMaxIn is clampMax with the result carved from sc (nil = heap).
func (f pl) clampMaxIn(sc *Scratch, v Value) pl {
	// Worst case every segment contributes a crossing point on top of its
	// endpoint, plus one tail crossing.
	out := sc.take(2*len(f.pts) + 1)
	clip := func(y Value) Value {
		if y > v {
			return v
		}
		return y
	}
	out = append(out, Point{0, clip(f.pts[0].Y)})
	// Walk segments between consecutive sweep points, inserting crossing
	// breakpoints where the function passes through v.
	for i := 1; i < len(f.pts); i++ {
		q := f.pts[i]
		p := f.pts[i-1]
		if q.X > p.X && ((p.Y < v && q.Y > v) || (p.Y > v && q.Y < v)) {
			slope := (q.Y - p.Y) / (q.X - p.X)
			if slope > 1 || slope < -1 {
				panic("curve: clamp: slope outside {-1,0,1}")
			}
			// Strict crossing inside the segment.
			out = append(out, Point{p.X + (v-p.Y)/slope, v})
		}
		out = append(out, Point{q.X, clip(q.Y)})
	}
	last := f.pts[len(f.pts)-1]
	tail := f.tail
	switch {
	case tail > 0 && last.Y >= v:
		tail = 0
	case tail > 0 && last.Y < v:
		// Tail will hit the cap later; add the crossing then go flat.
		if tail > 1 {
			panic("curve: clamp: tail slope above 1")
		}
		out = append(out, Point{last.X + (v-last.Y)/tail, v})
		tail = 0
	case tail < 0 && last.Y > v:
		// f re-enters the clamped region later: stay at v until then.
		if tail < -1 {
			panic("curve: clamp: tail slope below -1")
		}
		out = append(out, Point{last.X + (v-last.Y)/tail, v})
	}
	return canonIn(sc, out, tail)
}

// minLower returns a piecewise-linear integer function h with
// h <= min(f, g) pointwise and h equal to min(f, g) everywhere except
// possibly inside unit intervals containing a fractional crossing of f and
// g, where h is the chord between the exact integer-grid values (the chord
// of a concave piece lies below it, so the result stays a sound *lower*
// bound). It is used to cap lower service bounds by the arrived workload.
func (f pl) minLower(g pl) pl { return f.minLowerIn(nil, g) }

// minLowerIn is minLower with intermediates and result carved from sc
// (nil = heap). Samples are streamed against the previous one instead of
// materialized, so the only buffers are the merged-X list and the output.
func (f pl) minLowerIn(sc *Scratch, g pl) pl {
	xs := mergedXs(sc, f, g)
	type sample struct {
		x      Time
		fy, gy Value
	}
	min2 := func(a, b Value) Value {
		if a < b {
			return a
		}
		return b
	}
	// Each X yields at most two samples (left limit + right value at a
	// jump); each sample appends itself plus at most two crossing points,
	// and the diverging-tail fixup after the loop at most two more.
	out := sc.take(6*len(xs) + 2)
	var prev sample
	havePrev := false
	process := func(s sample) {
		if havePrev && s.x > prev.x {
			// Insert crossing breakpoints where f-g changes sign strictly
			// inside the segment.
			p := prev
			d1, d2 := p.fy-p.gy, s.fy-s.gy
			if (d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0) {
				dx := s.x - p.x
				sf := (s.fy - p.fy) / dx
				sg := (s.gy - p.gy) / dx
				num, den := p.gy-p.fy, sf-sg
				// x* = p.x + num/den with den != 0 by sign change.
				if num%den == 0 {
					x := p.x + num/den
					out = append(out, Point{x, p.fy + sf*(x-p.x)})
				} else {
					// Fractional crossing: bracket it with the exact
					// values at the neighbouring integer grid points.
					x := p.x + num/den // floor or toward-zero; num,den same sign
					if x > p.x {
						out = append(out, Point{x, min2(p.fy+sf*(x-p.x), p.gy+sg*(x-p.x))})
					}
					if x+1 < s.x {
						out = append(out, Point{x + 1, min2(p.fy+sf*(x+1-p.x), p.gy+sg*(x+1-p.x))})
					}
				}
			}
		}
		out = append(out, Point{s.x, min2(s.fy, s.gy)})
		prev, havePrev = s, true
	}
	// Expand jumps: at a jump of either function emit a left-limit sample
	// followed by a right-value sample.
	fc, gc := newEvalCursor(f), newEvalCursor(g)
	for _, xp := range xs {
		x := xp.X
		fl, fr := fc.left(x), fc.right(x)
		gl, gr := gc.left(x), gc.right(x)
		if x > 0 && (fl != fr || gl != gr) {
			process(sample{x, fl, gl})
		}
		process(sample{x, fr, gr})
	}
	tail := f.tail
	if g.tail < tail {
		tail = g.tail
	}
	// If the tails diverge, the function with the smaller tail eventually
	// wins; add breakpoints around the tail crossing so the min is decided.
	last := prev
	if f.tail != g.tail {
		num := last.gy - last.fy
		den := f.tail - g.tail
		if (num > 0 && den > 0) || (num < 0 && den < 0) {
			// Crossing strictly after the last sample at offset num/den.
			k := num / den // exact or floor (num, den share sign)
			at := func(k Value) Point {
				return Point{last.x + k, min2(last.fy+f.tail*k, last.gy+g.tail*k)}
			}
			if num%den == 0 {
				out = append(out, at(k))
			} else {
				if k > 0 {
					out = append(out, at(k))
				}
				out = append(out, at(k+1))
			}
		}
	}
	return canonIn(sc, out, tail)
}

// composeMonotone returns f(g(t)) for non-decreasing f and g with segment
// slopes in {0,1} and g continuous. Breakpoints of the result are g's
// breakpoints plus the preimages of f's breakpoints, all integers because
// g crosses integer levels on unit-slope segments at integer times. The
// result is carved from sc (nil = heap).
func composeMonotone(sc *Scratch, f, g pl) pl {
	// Candidate times: g's breakpoints and min{t : g(t) >= y} for every
	// breakpoint level y of f within g's range. Both streams are already
	// sorted (g's breakpoints by the pl invariant, the preimages because f's
	// levels increase and g's inverse is monotone), so they merge with two
	// pointers instead of a sort. The candidate buffer aliases point slots
	// of the arena (X coordinates only), like mergedXs.
	tbuf := sc.take(len(f.pts))
	gInv := newInverseCursor(g)
	for _, p := range f.pts {
		// f changes slope at domain position p.X; include its preimage.
		if t := gInv.inverse(p.X); !IsInf(t) {
			tbuf = append(tbuf, Point{X: t})
		}
	}
	pts := sc.take(len(g.pts) + len(tbuf) + 1)
	var last Time = -1
	i, j := 0, 0
	// The merged times increase and g is non-decreasing, so both curves
	// are evaluated at non-decreasing positions.
	fc, gc := newEvalCursor(f), newEvalCursor(g)
	for i < len(g.pts) || j < len(tbuf) {
		var t Time
		if j >= len(tbuf) || (i < len(g.pts) && g.pts[i].X <= tbuf[j].X) {
			t = g.pts[i].X
			i++
		} else {
			t = tbuf[j].X
			j++
		}
		if t == last {
			continue
		}
		last = t
		pts = append(pts, Point{t, fc.right(gc.right(t))})
	}
	// The merge always seeds t = 0: g's first breakpoint sits at x = 0 by
	// the pl representation invariant.
	// Tail: if g goes flat the composition does too; otherwise g grows at
	// unit rate past every f breakpoint preimage (all were candidates), so
	// f's tail slope applies.
	tail := int64(0)
	if g.tail != 0 {
		tail = f.tail
	}
	return canonIn(sc, pts, tail)
}

// isNonDecreasing reports whether f never decreases.
func (f pl) isNonDecreasing() bool {
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].Y < f.pts[i-1].Y {
			return false
		}
	}
	return f.tail >= 0
}

// slopesWithin reports whether every segment slope (and the tail) lies in
// [lo, hi]. Jumps are not slopes and are ignored.
func (f pl) slopesWithin(lo, hi int64) bool {
	for i := 1; i < len(f.pts); i++ {
		p, q := f.pts[i-1], f.pts[i]
		if q.X == p.X {
			continue
		}
		s := (q.Y - p.Y) / (q.X - p.X)
		if s < lo || s > hi {
			return false
		}
	}
	return f.tail >= lo && f.tail <= hi
}
