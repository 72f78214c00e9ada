package curve

// This file provides a dense brute-force reference model of the paper's
// formulas, evaluated point by point on the integer grid. Every optimized
// sweep in the package is cross-checked against it on randomized inputs.

import (
	"math/rand"
	"testing"
)

// FloorDiv implements Theorem 2 of the paper: given a service curve S and
// the execution time tau, the departure function is
//
//	f_dep(t) = floor( S(t) / tau ).
//
// The result is a staircase that jumps at the times S first reaches
// m*tau. Because service curves have integer breakpoints and slopes in
// {0,1}, these times are exact integers. The engines read the same jump
// times straight off CompletionTimes; the staircase form is the reference
// the tests compare it against.
func (c *Curve) FloorDiv(tau Value) *Curve {
	if tau <= 0 {
		panic("curve: FloorDiv with non-positive execution time")
	}
	var jumps []Time
	cur := newInverseCursor(c.f)
	for m := Value(1); ; m++ {
		t := cur.inverse(m * tau)
		if IsInf(t) {
			break
		}
		jumps = append(jumps, t)
		if c.f.tail == 0 {
			// Finite total service: stop once exceeded.
			lim := c.f.pts[len(c.f.pts)-1].Y
			if (m+1)*tau > lim {
				break
			}
		}
		if c.f.tail > 0 && m > 1<<40 {
			panic("curve: FloorDiv runaway on unbounded curve")
		}
	}
	if len(jumps) == 0 {
		return Zero()
	}
	return Staircase(jumps, 1)
}

// JumpTimes returns the jump times of a staircase curve, with multiplicity
// given by jump height divided by height. It is the inverse of Staircase
// and panics if the curve has a non-staircase segment or a jump that is not
// a multiple of height. The tests use it to read release and completion
// lists back off staircases.
func (c *Curve) JumpTimes(height Value) []Time {
	if height <= 0 {
		panic("curve: JumpTimes height must be positive")
	}
	var out []Time
	pts := c.f.pts
	if c.f.tail != 0 {
		panic("curve: JumpTimes of non-staircase curve (unbounded tail)")
	}
	prev := Value(0)
	prevX := Time(-1)
	for _, p := range pts {
		if p.Y < prev {
			panic("curve: decreasing staircase")
		}
		if p.Y > prev {
			if p.X != prevX && prevX >= 0 {
				// A strictly increasing segment (slope 1) is not a staircase.
				panic("curve: JumpTimes of curve with sloped segment")
			}
			d := p.Y - prev
			if d%height != 0 {
				panic("curve: jump not a multiple of height")
			}
			for k := Value(0); k < d/height; k++ {
				out = append(out, p.X)
			}
			prev = p.Y
		}
		prevX = p.X
	}
	return out
}

// denseEval evaluates a Curve on the grid 0..h.
func denseEval(c *Curve, h Time) []Value {
	out := make([]Value, h+1)
	for t := Time(0); t <= h; t++ {
		out[t] = c.Eval(t)
	}
	return out
}

// densePL evaluates an internal pl on the grid 0..h.
func densePL(f pl, h Time) []Value {
	out := make([]Value, h+1)
	for t := Time(0); t <= h; t++ {
		out[t] = f.evalRight(t)
	}
	return out
}

// denseLeft evaluates left limits on the grid. Because breakpoints are
// integers, the left limit at integer t equals the right value anywhere in
// (t-1, t); for staircases that is the value at t-1 plus any slope
// contribution, which denseLeft approximates exactly via EvalLeft.
func denseLeft(c *Curve, h Time) []Value {
	out := make([]Value, h+1)
	for t := Time(0); t <= h; t++ {
		out[t] = c.EvalLeft(t)
	}
	return out
}

// refServiceTransform computes S(t) = A(t) + min(0, inf_{0<=s<=t}(c(s)-A(s)))
// on the grid, with the infimum over the closed real interval: interior
// points of segments contribute via the left limits at integer points
// because c is constant between its integer jump times.
func refServiceTransform(avail, availLeft, demand, demandLeft []Value) []Value {
	h := len(avail) - 1
	out := make([]Value, h+1)
	m := Value(0) // seeded with the empty-prefix candidate
	for t := 0; t <= h; t++ {
		if t >= 1 {
			if v := demandLeft[t] - availLeft[t]; v < m {
				m = v
			}
		}
		if v := demand[t] - avail[t]; v < m {
			m = v
		}
		out[t] = avail[t] + m
	}
	return out
}

// randStaircase builds a random right-continuous staircase with jumps of
// the given height at up to n random times in [0, h].
func randStaircase(r *rand.Rand, n int, h Time, height Value) (*Curve, []Time) {
	k := r.Intn(n + 1)
	times := make([]Time, k)
	for i := range times {
		times[i] = Time(r.Intn(int(h + 1)))
	}
	sortTimes(times)
	return Staircase(times, height), times
}

func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// randMonotone builds a random Curve with slopes in {0,1} and occasional
// upward jumps, starting at 0.
func randMonotone(r *rand.Rand, segs int, h Time) *Curve {
	pts := []Point{{0, 0}}
	x, y := Time(0), Value(0)
	for i := 0; i < segs && x < h; i++ {
		switch r.Intn(3) {
		case 0: // flat segment
			dx := Time(1 + r.Intn(10))
			x += dx
			pts = append(pts, Point{x, y})
		case 1: // unit-slope segment
			dx := Time(1 + r.Intn(10))
			x += dx
			y += dx
			pts = append(pts, Point{x, y})
		default: // jump
			dy := Value(1 + r.Intn(5))
			pts = append(pts, Point{x, y})
			y += dy
			pts = append(pts, Point{x, y})
		}
	}
	tail := int64(r.Intn(2))
	return fromPL(canon(pts, tail), "randMonotone")
}

func TestStaircaseDense(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const h = Time(120)
	for trial := 0; trial < 200; trial++ {
		c, times := randStaircase(r, 20, h, 3)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for x := Time(0); x <= h; x++ {
			want := Value(0)
			for _, ts := range times {
				if ts <= x {
					want += 3
				}
			}
			if got := c.Eval(x); got != want {
				t.Fatalf("trial %d: Eval(%d) = %d, want %d (times %v)", trial, x, got, want, times)
			}
			wantL := Value(0)
			for _, ts := range times {
				if ts < x {
					wantL += 3
				}
			}
			if x == 0 {
				wantL = c.Eval(0) // left limit convention at domain start
			}
			if got := c.EvalLeft(x); got != wantL {
				t.Fatalf("trial %d: EvalLeft(%d) = %d, want %d (times %v)", trial, x, got, wantL, times)
			}
		}
		// JumpTimes must round-trip.
		got := c.JumpTimes(3)
		if len(got) != len(times) {
			t.Fatalf("trial %d: JumpTimes len %d, want %d", trial, len(got), len(times))
		}
		for i := range got {
			if got[i] != times[i] {
				t.Fatalf("trial %d: JumpTimes[%d] = %d, want %d", trial, i, got[i], times[i])
			}
		}
	}
}

func TestInverseGalois(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const h = Time(150)
	for trial := 0; trial < 300; trial++ {
		c := randMonotone(r, 12, h)
		sup, bounded := c.Sup()
		for y := Value(0); y <= 60; y++ {
			inv := c.Inverse(y)
			if bounded && y > sup {
				if !IsInf(inv) {
					t.Fatalf("trial %d: Inverse(%d) = %d, want Inf (sup %d)", trial, y, inv, sup)
				}
				continue
			}
			if IsInf(inv) {
				t.Fatalf("trial %d: Inverse(%d) = Inf but curve reaches %d", trial, y, y)
			}
			if got := c.Eval(inv); got < y {
				t.Fatalf("trial %d: Eval(Inverse(%d)=%d) = %d < %d", trial, y, inv, got, y)
			}
			if inv > 0 {
				if got := c.EvalLeft(inv); got >= y && c.Eval(inv-1) >= y {
					t.Fatalf("trial %d: Inverse(%d) = %d not minimal: f(%d) = %d",
						trial, y, inv, inv-1, c.Eval(inv-1))
				}
			}
		}
		// Inverse must be minimal on the integer grid everywhere.
		for x := Time(0); x <= h; x++ {
			y := c.Eval(x)
			if inv := c.Inverse(y); inv > x {
				t.Fatalf("trial %d: Inverse(Eval(%d)=%d) = %d > %d", trial, x, y, inv, x)
			}
		}
	}
}

func TestAddDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const h = Time(100)
	for trial := 0; trial < 200; trial++ {
		a := randMonotone(r, 8, h)
		b, _ := randStaircase(r, 10, h, 2)
		sum := a.Add(b)
		da, db, ds := denseEval(a, h), denseEval(b, h), denseEval(sum, h)
		for x := Time(0); x <= h; x++ {
			if ds[x] != da[x]+db[x] {
				t.Fatalf("trial %d: Add at %d: %d != %d + %d", trial, x, ds[x], da[x], db[x])
			}
		}
		la, lb, ls := denseLeft(a, h), denseLeft(b, h), denseLeft(sum, h)
		for x := Time(1); x <= h; x++ {
			if ls[x] != la[x]+lb[x] {
				t.Fatalf("trial %d: Add left limit at %d: %d != %d + %d", trial, x, ls[x], la[x], lb[x])
			}
		}
	}
}

func TestServiceTransformDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const h = Time(140)
	for trial := 0; trial < 300; trial++ {
		avail := randMonotone(r, 10, h)
		demand, _ := randStaircase(r, 12, h, Value(1+r.Intn(7)))
		s := ServiceTransform(avail, demand)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refServiceTransform(denseEval(avail, h), denseLeft(avail, h),
			denseEval(demand, h), denseLeft(demand, h))
		got := denseEval(s, h)
		for x := Time(0); x <= h; x++ {
			if got[x] != want[x] {
				t.Fatalf("trial %d: ServiceTransform at %d: got %d, want %d\navail=%v\ndemand=%v\ns=%v",
					trial, x, got[x], want[x], avail, demand, s)
			}
		}
	}
}

func TestUtilizationDense(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const h = Time(140)
	for trial := 0; trial < 200; trial++ {
		total, _ := randStaircase(r, 15, h, Value(1+r.Intn(5)))
		u := Utilization(total)
		// Brute force over the closed interval: U(t) = min_{0<=s<=t}{t-s+G(s)}
		// with G right-continuous; interior infima occur at left limits.
		dg, lg := denseEval(total, h), denseLeft(total, h)
		for x := Time(0); x <= h; x++ {
			want := x // s = 0 with G(0-) = 0
			for s := Time(0); s <= x; s++ {
				if v := x - s + dg[s]; v < want {
					want = v
				}
				if s >= 1 {
					if v := x - s + lg[s]; v < want {
						want = v
					}
				}
			}
			if got := u.Eval(x); got != want {
				t.Fatalf("trial %d: U(%d) = %d, want %d\nG=%v", trial, x, got, want, total)
			}
		}
	}
}

func TestFloorDivDense(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const h = Time(130)
	for trial := 0; trial < 200; trial++ {
		avail := randMonotone(r, 10, h)
		tau := Value(1 + r.Intn(9))
		demand, _ := randStaircase(r, 10, h, tau)
		s := ServiceTransform(avail, demand)
		dep := s.FloorDiv(tau)
		ds, dd := denseEval(s, h), denseEval(dep, h)
		for x := Time(0); x <= h; x++ {
			if want := ds[x] / tau; dd[x] != want {
				t.Fatalf("trial %d: FloorDiv at %d: got %d, want %d (S=%d, tau=%d)",
					trial, x, dd[x], want, ds[x], tau)
			}
		}
		// CompletionTimes must agree with the departure staircase.
		n := int(demand.Eval(h) / tau)
		ct := s.CompletionTimes(tau, n)
		for m := 1; m <= n; m++ {
			want := dep.Inverse(Value(m))
			if ct[m-1] != want {
				t.Fatalf("trial %d: CompletionTimes[%d] = %d, want %d", trial, m, ct[m-1], want)
			}
		}
	}
}
