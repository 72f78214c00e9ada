package curve

import (
	"math/rand"
	"testing"
)

// randPL builds a random general pl with slopes in {-1,0,1} and jumps in
// both directions.
func randPL(r *rand.Rand, segs int) pl {
	pts := []Point{{0, Value(r.Intn(21) - 10)}}
	x := Time(0)
	y := pts[0].Y
	for i := 0; i < segs; i++ {
		switch r.Intn(4) {
		case 0:
			dx := Time(1 + r.Intn(8))
			x += dx
			pts = append(pts, Point{x, y})
		case 1:
			dx := Time(1 + r.Intn(8))
			x += dx
			y += dx
			pts = append(pts, Point{x, y})
		case 2:
			dx := Time(1 + r.Intn(8))
			x += dx
			y -= dx
			pts = append(pts, Point{x, y})
		default:
			dy := Value(r.Intn(13) - 6)
			if dy != 0 {
				pts = append(pts, Point{x, y})
				y += dy
				pts = append(pts, Point{x, y})
			}
		}
	}
	tail := int64(r.Intn(3) - 1)
	return canon(pts, tail)
}

func TestCanonPreservesValues(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 12)
		f.check()
		// Canon of canon is identical pointwise.
		g := canon(append([]Point(nil), f.pts...), f.tail)
		for x := Time(0); x <= 120; x++ {
			if f.evalRight(x) != g.evalRight(x) {
				t.Fatalf("trial %d: canon changed value at %d", trial, x)
			}
			if f.evalLeft(x) != g.evalLeft(x) {
				t.Fatalf("trial %d: canon changed left limit at %d", trial, x)
			}
		}
	}
}

func TestAddSubNegRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		g := randPL(r, 10)
		sum := f.add(g)
		diff := sum.sub(g)
		sum.check()
		diff.check()
		for x := Time(0); x <= 120; x++ {
			if sum.evalRight(x) != f.evalRight(x)+g.evalRight(x) {
				t.Fatalf("trial %d: add wrong at %d", trial, x)
			}
			if diff.evalRight(x) != f.evalRight(x) {
				t.Fatalf("trial %d: add/sub round trip broken at %d", trial, x)
			}
		}
	}
}

func TestRunningMinDense(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		// Clamp falls to slope >= -1 is already guaranteed by generator.
		m := f.runningMin()
		m.check()
		cur := f.evalRight(0)
		for x := Time(0); x <= 120; x++ {
			if l := f.evalLeft(x); l < cur {
				cur = l
			}
			if v := f.evalRight(x); v < cur {
				cur = v
			}
			if got := m.evalRight(x); got != cur {
				t.Fatalf("trial %d: runningMin at %d: got %d, want %d\nf=%v tail %d",
					trial, x, got, cur, f.pts, f.tail)
			}
		}
	}
}

func TestRunningMaxDense(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		m := f.runningMax()
		m.check()
		cur := f.evalRight(0)
		for x := Time(0); x <= 120; x++ {
			if l := f.evalLeft(x); l > cur {
				cur = l
			}
			if v := f.evalRight(x); v > cur {
				cur = v
			}
			if got := m.evalRight(x); got != cur {
				t.Fatalf("trial %d: runningMax at %d: got %d, want %d", trial, x, got, cur)
			}
		}
	}
}

func TestClampDense(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		v := Value(r.Intn(21) - 10)
		hi := f.clampMax(v)
		lo := f.clampMin(v)
		hi.check()
		lo.check()
		for x := Time(0); x <= 120; x++ {
			fv := f.evalRight(x)
			wantHi, wantLo := fv, fv
			if wantHi > v {
				wantHi = v
			}
			if wantLo < v {
				wantLo = v
			}
			if got := hi.evalRight(x); got != wantHi {
				t.Fatalf("trial %d: clampMax at %d: got %d, want %d", trial, x, got, wantHi)
			}
			if got := lo.evalRight(x); got != wantLo {
				t.Fatalf("trial %d: clampMin at %d: got %d, want %d", trial, x, got, wantLo)
			}
		}
	}
}

func TestComposeMonotoneDense(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	for trial := 0; trial < 500; trial++ {
		// f: monotone slopes {0,1} over the VALUE domain of g; g:
		// continuous monotone slopes {0,1}.
		f := randMonotone(r, 10, 200).f
		g := randContinuous(r, 10, 120).f
		// composeMonotone requires f continuous as well: rebuild without
		// jumps by using a continuous random curve.
		f = randContinuous(r, 10, 200).f
		h := composeMonotone(nil, f, g)
		h.check()
		for x := Time(0); x <= 140; x++ {
			want := f.evalRight(g.evalRight(x))
			if got := h.evalRight(x); got != want {
				t.Fatalf("trial %d: compose at %d: got %d, want %d", trial, x, got, want)
			}
		}
	}
}

func TestMergedXsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(69))
	for trial := 0; trial < 200; trial++ {
		a, b := randPL(r, 10), randPL(r, 10)
		xs := mergedXs(nil, a, b)
		for i := 1; i < len(xs); i++ {
			if xs[i].X <= xs[i-1].X {
				t.Fatalf("trial %d: mergedXs not strictly sorted: %v", trial, xs)
			}
		}
	}
}

// TestEvalCursorMatchesEval: walking non-decreasing positions through an
// evalCursor gives exactly evalRight and evalLeft at every position, on
// non-monotone pls with jumps at x = 0 and elsewhere and tails of every
// sign, with repeated positions, t = 0 and positions past the last
// breakpoint.
func TestEvalCursorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		f := randPL(r, 1+r.Intn(16))
		if r.Intn(3) == 0 {
			// Force a jump at x = 0 in front of the drawn function.
			pts := append([]Point{{0, f.pts[0].Y + Value(r.Intn(9)-4)}}, f.pts...)
			f = canon(pts, f.tail)
		}
		f.check()
		end := f.pts[len(f.pts)-1].X
		cur := newEvalCursor(f)
		x := Time(0)
		for step := 0; step < 60 && x <= end+20; step++ {
			if r.Intn(3) > 0 {
				x += Time(r.Intn(5)) // zero steps repeat a position
			}
			// Query left and right in either order at a position.
			var gotR, gotL Value
			if r.Intn(2) == 0 {
				gotR, gotL = cur.right(x), cur.left(x)
			} else {
				gotL, gotR = cur.left(x), cur.right(x)
			}
			if want := f.evalRight(x); gotR != want {
				t.Fatalf("trial %d: cursor right(%d) = %d, evalRight = %d (f %v tail %d)", trial, x, gotR, want, f.pts, f.tail)
			}
			if want := f.evalLeft(x); gotL != want {
				t.Fatalf("trial %d: cursor left(%d) = %d, evalLeft = %d (f %v tail %d)", trial, x, gotL, want, f.pts, f.tail)
			}
		}
	}
}
