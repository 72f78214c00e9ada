package curve

import (
	"testing"
)

// FuzzCurveOps interprets fuzz bytes as a program over the curve algebra
// — staircase construction, Sum, Min, FloorDiv, Inverse, CompletionTimes
// — restricted to the documented operand contracts, and checks that every
// intermediate result satisfies the Curve invariants: compositions of
// valid operations must never panic or produce an invalid curve. Two more
// steps check the sweep kernels against their one-shot references: an
// evalCursor walk against evalRight/evalLeft, and MaxBacklog against
// MaxVerticalDeviation over the two staircases. Run with
//
//	go test -fuzz FuzzCurveOps ./internal/curve
func FuzzCurveOps(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 1, 2, 255, 0, 3, 128, 7})
	f.Add([]byte{10, 0, 1, 20, 2, 2, 30, 4, 3, 40, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 5
			}
			v := data[0]
			data = data[1:]
			return v
		}
		check := func(op string, c *Curve) *Curve {
			t.Helper()
			if err := c.Validate(); err != nil {
				t.Fatalf("%s produced an invalid curve: %v", op, err)
			}
			return c
		}
		// Build a small pool of staircases: jumps are cumulative byte sums
		// (sorted, non-negative, duplicates allowed via zero gaps).
		var pool []*Curve
		for len(pool) < 4 && len(data) > 0 {
			n := int(next()%6) + 1
			jumps := make([]Time, 0, n)
			cum := Time(0)
			for i := 0; i < n; i++ {
				cum += Time(next() % 64)
				jumps = append(jumps, cum)
			}
			height := Value(next()%8) + 1
			pool = append(pool, check("Staircase", Staircase(jumps, height)))
		}
		if len(pool) == 0 {
			return
		}
		pick := func() *Curve { return pool[int(next())%len(pool)] }
		for steps := 0; steps < 16 && len(data) > 0; steps++ {
			switch next() % 7 {
			case 0:
				pool = append(pool, check("Sum", Sum(pick(), pick())))
			case 1:
				pool = append(pool, check("Min", pick().Min(pick())))
			case 2:
				tau := Value(next()%7) + 1
				pool = append(pool, check("FloorDiv", pick().FloorDiv(tau)))
			case 3:
				// Pseudo-inverse consistency: where Inverse(y) is finite the
				// curve actually reaches y there, and not strictly before.
				c := pick()
				y := Value(next() % 32)
				x := c.Inverse(y)
				if !IsInf(x) {
					if got := c.Eval(x); got < y {
						t.Fatalf("Eval(Inverse(%d)) = %d < %d on %v", y, got, y, c)
					}
					if x > 0 && c.EvalLeft(x) >= y && c.Eval(x-1) >= y {
						t.Fatalf("Inverse(%d) = %d is not minimal on %v", y, x, c)
					}
				}
			case 4:
				// Completion times are non-decreasing and match the inverse.
				c := pick()
				tau := Value(next()%7) + 1
				n := int(next()%8) + 1
				ts := c.CompletionTimes(tau, n)
				for m, x := range ts {
					if m > 0 && !IsInf(x) && IsInf(ts[m-1]) {
						t.Fatalf("completion %d finite after an Inf predecessor", m)
					}
					if m > 0 && !IsInf(x) && x < ts[m-1] {
						t.Fatalf("completion times decrease at %d: %v", m, ts)
					}
					if want := c.Inverse(Value(m+1) * tau); x != want {
						t.Fatalf("CompletionTimes[%d] = %d, Inverse = %d", m, x, want)
					}
				}
			case 5:
				// A cursor walk over non-decreasing positions (repeats
				// allowed) matches the binary-search evaluation.
				c := pick()
				cur := newEvalCursor(c.f)
				x := Time(0)
				for k := int(next() % 16); k >= 0; k-- {
					x += Time(next() % 8)
					if got, want := cur.right(x), c.f.evalRight(x); got != want {
						t.Fatalf("cursor right(%d) = %d, evalRight = %d on %v", x, got, want, c)
					}
					if got, want := cur.left(x), c.f.evalLeft(x); got != want {
						t.Fatalf("cursor left(%d) = %d, evalLeft = %d on %v", x, got, want, c)
					}
				}
			case 6:
				// The backlog count equals the staircases' largest gap;
				// completions may include instances that never complete.
				arr, dep := pick().JumpTimes(1), pick().JumpTimes(1)
				for k := next() % 3; k > 0; k-- {
					dep = append(dep, Inf)
				}
				want, _ := MaxVerticalDeviation(Staircase(arr, 1), Staircase(dep, 1))
				if got := MaxBacklog(arr, dep); got != want {
					t.Fatalf("MaxBacklog(%v, %v) = %d, MaxVerticalDeviation = %d", arr, dep, got, want)
				}
			}
			if len(pool) > 16 {
				pool = pool[len(pool)-8:]
			}
		}
	})
}
