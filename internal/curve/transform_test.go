package curve

import (
	"math/rand"
	"testing"
)

// randContinuous builds a random continuous Curve with slopes in {0,1},
// the shape of a real service function.
func randContinuous(r *rand.Rand, segs int, h Time) *Curve {
	pts := []Point{{0, 0}}
	x, y := Time(0), Value(0)
	for i := 0; i < segs && x < h; i++ {
		dx := Time(1 + r.Intn(12))
		x += dx
		if r.Intn(2) == 0 {
			y += dx
		}
		pts = append(pts, Point{x, y})
	}
	return fromPL(canon(pts, 0), "randContinuous")
}

// denseAvail evaluates t - offset - sum interf on the grid, with left
// limits, the Bup/Blo availability functions of the NP bounds.
func denseAvail(offset Value, interf []*Curve, h Time) (right, left []Value) {
	right = make([]Value, h+1)
	left = make([]Value, h+1)
	for t := Time(0); t <= h; t++ {
		right[t] = t - offset
		left[t] = t - offset
		for _, s := range interf {
			right[t] -= s.Eval(t)
			left[t] -= s.EvalLeft(t)
		}
	}
	return right, left
}

// refSeededMin computes m(t) = min(0, inf_{0<=s<=t}(c(s) - avail(s))) on
// the grid, with interior infima via left limits.
func refSeededMin(dc, lc, dAvail, lAvail []Value) []Value {
	h := len(dc) - 1
	m := make([]Value, h+1)
	cur := Value(0)
	for t := 0; t <= h; t++ {
		if t >= 1 {
			if v := lc[t] - lAvail[t]; v < cur {
				cur = v
			}
		}
		if v := dc[t] - dAvail[t]; v < cur {
			cur = v
		}
		m[t] = cur
	}
	return m
}

// refLowerNP mirrors LowerServiceNP on the dense grid: the clamped
// busy-period envelope over arrival-instant candidates.
func refLowerNP(b Value, upper, lower []*Curve, demand *Curve, h Time) []Value {
	dT, _ := denseAvail(b, upper, h)
	dS, _ := denseAvail(0, lower, h)
	// Running maxima (both functions are continuous, so grid values
	// determine the maxima).
	ahat := make([]Value, h+1)
	vhat := make([]Value, h+1)
	curA, curV := Value(0), dS[0]
	for t := Time(0); t <= h; t++ {
		if dT[t] > curA {
			curA = dT[t]
		}
		if dS[t] > curV {
			curV = dS[t]
		}
		ahat[t] = curA
		vhat[t] = curV
	}
	// Candidates: u = 0 and every arrival instant of the demand staircase.
	type cand struct{ v, k Value }
	cands := []cand{{0, 0}}
	lc := denseLeft(demand, h)
	dc := denseEval(demand, h)
	for x := Time(0); x <= h; x++ {
		left := lc[x]
		if x == 0 {
			left = 0
		}
		if dc[x] > left {
			cands = append(cands, cand{vhat[x], left})
		}
	}
	total, _ := demand.Sup()
	out := make([]Value, h+1)
	for t := Time(0); t <= h; t++ {
		best := total
		for _, c := range cands {
			v := c.k
			if d := ahat[t] - c.v; d > 0 {
				v += d
			}
			if v < best {
				best = v
			}
		}
		out[t] = best
	}
	return out
}

func TestLowerServiceNPDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const h = Time(150)
	for trial := 0; trial < 300; trial++ {
		b := Value(r.Intn(20))
		var upper, lower []*Curve
		for i := 0; i < r.Intn(3); i++ {
			upper = append(upper, randContinuous(r, 8, h))
		}
		for i := 0; i < r.Intn(3); i++ {
			lower = append(lower, randContinuous(r, 8, h))
		}
		tau := Value(1 + r.Intn(8))
		demand, _ := randStaircase(r, 10, h, tau)
		s := LowerServiceNPIn(nil, b, upper, lower, demand)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refLowerNP(b, upper, lower, demand, h)
		got := denseEval(s, h)
		for x := Time(0); x <= h; x++ {
			if got[x] != want[x] {
				t.Fatalf("trial %d: LowerServiceNP(b=%d) at %d: got %d, want %d\ndemand=%v\ngot=%v",
					trial, b, x, got[x], want[x], demand, s)
			}
		}
	}
}

// refUpperNP mirrors UpperServiceNP on the dense grid.
func refUpperNP(lower, upper []*Curve, demand *Curve, h Time) []Value {
	dT, _ := denseAvail(0, lower, h)
	dS, lS := denseAvail(0, upper, h)
	dc, lc := denseEval(demand, h), denseLeft(demand, h)
	m := refSeededMin(dc, lc, dS, lS)
	out := make([]Value, h+1)
	runmax := Value(0)
	for t := Time(0); t <= h; t++ {
		if raw := dT[t] + m[t]; raw > runmax {
			runmax = raw
		}
		v := runmax
		if v > dc[t] {
			v = dc[t] // workload cap
		}
		out[t] = v
	}
	return out
}

func TestUpperServiceNPDense(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const h = Time(150)
	for trial := 0; trial < 300; trial++ {
		var upper, lower []*Curve
		for i := 0; i < r.Intn(3); i++ {
			upper = append(upper, randContinuous(r, 8, h))
		}
		for i := 0; i < r.Intn(3); i++ {
			lower = append(lower, randContinuous(r, 8, h))
		}
		tau := Value(1 + r.Intn(8))
		demand, _ := randStaircase(r, 10, h, tau)
		s := UpperServiceNPIn(nil, lower, upper, demand)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := refUpperNP(lower, upper, demand, h)
		got := denseEval(s, h)
		for x := Time(0); x <= h; x++ {
			if got[x] != want[x] {
				t.Fatalf("trial %d: UpperServiceNP at %d: got %d, want %d\ndemand=%v\ngot=%v",
					trial, x, got[x], want[x], demand, s)
			}
		}
	}
}

func TestComposeFCFSDense(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const h = Time(150)
	for trial := 0; trial < 300; trial++ {
		tau := Value(1 + r.Intn(6))
		demand, times := randStaircase(r, 8, h, tau)
		other, _ := randStaircase(r, 8, h, Value(1+r.Intn(6)))
		total := demand.Add(other)
		util := Utilization(total)
		for _, upper := range []bool{false, true} {
			got := ComposeFCFSIn(nil, demand, total, util, upper)
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			// Reference: R(t) jumps to demand(x_j) at the first time
			// U(t) >= G(x_j) (lower) respectively U(t) >= G(x_j-) (upper).
			du := denseEval(util, h)
			for x := Time(0); x <= h; x++ {
				want := Value(0)
				for _, xj := range times {
					var y Value
					if upper {
						if xj > 0 {
							y = total.EvalLeft(xj)
						}
					} else {
						y = total.Eval(xj)
					}
					if du[x] >= y {
						want += tau
					}
				}
				if g := got.Eval(x); g != want {
					t.Fatalf("trial %d upper=%v: Compose at %d: got %d, want %d\ndemand=%v\ntotal=%v\nutil=%v\ngot=%v",
						trial, upper, x, g, want, demand, total, util, got)
				}
			}
			// The lower bound must never exceed, and the upper (plus tau)
			// never undercut, the subjob workload by more than the slack
			// the theorems allow.
			for x := Time(0); x <= h; x++ {
				if !upper && got.Eval(x) > demand.Eval(x) {
					t.Fatalf("trial %d: lower compose exceeds workload at %d", trial, x)
				}
			}
		}
	}
}

func TestMinLowerGrid(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	const h = Time(120)
	for trial := 0; trial < 300; trial++ {
		f := randMonotone(r, 10, h).f
		g := randMonotone(r, 10, h).f
		m := f.minLower(g)
		m.check()
		for x := Time(0); x <= h; x++ {
			want := f.evalRight(x)
			if v := g.evalRight(x); v < want {
				want = v
			}
			if got := m.evalRight(x); got != want {
				t.Fatalf("trial %d: minLower at %d: got %d, want %d", trial, x, got, want)
			}
		}
	}
}

func TestMinLowerFractionalCrossing(t *testing.T) {
	// f falls with slope -2 through a flat g: the crossing at x = 10.5 is
	// fractional; the result must equal min(f,g) on the grid and stay a
	// lower bound in between (checked via the chord endpoints).
	f := pl{pts: []Point{{0, 21}, {20, -19}}, tail: 0}
	f.check()
	g := constPL(0)
	m := f.minLower(g)
	m.check()
	for x := Time(0); x <= 30; x++ {
		want := f.evalRight(x)
		if want > 0 {
			want = 0
		}
		if got := m.evalRight(x); got != want {
			t.Fatalf("minLower at %d: got %d, want %d (m=%v)", x, got, want, m.pts)
		}
	}
}

func TestAvailability(t *testing.T) {
	// One higher-priority service consuming [5,15): A flat there.
	s := fromPL(canon([]Point{{0, 0}, {5, 0}, {15, 10}}, 0), "test")
	a := Availability([]*Curve{s})
	for x := Time(0); x <= 30; x++ {
		want := x - s.Eval(x)
		if got := a.Eval(x); got != want {
			t.Fatalf("A(%d) = %d, want %d", x, got, want)
		}
	}
}

// MaxVerticalDeviation returns the largest vertical distance
// max_t (upper(t) - lower(t)) between two curves, or ok=false when the
// gap grows without bound (diverging tails). For an arrival upper bound
// and a departure lower bound of one subjob this is the maximum backlog,
// so it is the test oracle for MaxBacklog, which computes the same number
// straight from the release and completion times.
func MaxVerticalDeviation(upper, lower *Curve) (Value, bool) {
	if upper.f.tail > lower.f.tail {
		return 0, false
	}
	// The difference is piecewise linear; its maximum sits at a
	// breakpoint of either curve (evaluating both one-sided limits
	// handles jumps). Each curve's breakpoints are sorted, so both curves
	// are walked with forward cursors.
	var best Value
	for _, f := range [2]pl{upper.f, lower.f} {
		u, l := newEvalCursor(upper.f), newEvalCursor(lower.f)
		for _, p := range f.pts {
			if d := u.right(p.X) - l.right(p.X); d > best {
				best = d
			}
			if p.X > 0 {
				if d := u.left(p.X) - l.left(p.X); d > best {
					best = d
				}
			}
		}
	}
	return best, true
}

// TestMaxBacklogMatchesVerticalDeviation: the two-pointer backlog count
// equals the largest vertical gap between the release and completion
// staircases, on sorted lists with duplicates, empty lists and Inf
// completions (instances that never complete).
func TestMaxBacklogMatchesVerticalDeviation(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3000; trial++ {
		_, arr := randStaircase(r, 12, 40, 1)
		_, dep := randStaircase(r, 12, 60, 1)
		for k := r.Intn(3); k > 0; k-- {
			dep = append(dep, Inf)
		}
		want, ok := MaxVerticalDeviation(Staircase(arr, 1), Staircase(dep, 1))
		if !ok {
			t.Fatalf("trial %d: staircases reported a diverging gap", trial)
		}
		if got := MaxBacklog(arr, dep); got != want {
			t.Fatalf("trial %d: MaxBacklog(%v, %v) = %d, MaxVerticalDeviation = %d", trial, arr, dep, got, want)
		}
	}
}
