package curve

// Equivalence tests for the linear-merge addition path: the k-way Sum and
// the two-pointer add must agree exactly with naive pointwise evaluation,
// and the monotone inverse cursor must agree with the binary-search
// Inverse on every non-decreasing query sequence.

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSumEqualsRepeatedAdd: Sum(f1..fk) has the same canonical
// representation as ((f1+f2)+f3)+... for random monotone curves.
func TestSumEqualsRepeatedAdd(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		// At most one summand may carry unit-slope segments (the Add/Sum
		// slope restriction); the rest are staircases.
		k := 1 + r.Intn(6)
		curves := make([]*Curve, k)
		for i := range curves {
			curves[i], _ = randStaircase(r, 8, 160, Value(1+r.Intn(5)))
		}
		if r.Intn(2) == 0 {
			curves[r.Intn(k)] = randMonotone(r, 1+r.Intn(10), 160)
		}
		sum := Sum(curves...)
		acc := curves[0]
		for _, c := range curves[1:] {
			acc = acc.Add(c)
		}
		if !reflect.DeepEqual(sum.f, acc.f) {
			t.Fatalf("trial %d: Sum %v != repeated Add %v", trial, sum, acc)
		}
		if err := sum.Validate(); err != nil {
			t.Fatalf("trial %d: invalid sum: %v", trial, err)
		}
	}
}

// TestSumPointwise: the merged sum equals the pointwise sum of the
// summands' right and left limits at every integer in range.
func TestSumPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		k := 2 + r.Intn(4)
		curves := make([]*Curve, k)
		for i := range curves {
			curves[i], _ = randStaircase(r, 8, 120, Value(1+r.Intn(4)))
		}
		curves[r.Intn(k)] = randMonotone(r, 1+r.Intn(8), 120)
		sum := Sum(curves...)
		for x := Time(0); x <= 140; x++ {
			var right, left Value
			for _, c := range curves {
				right += c.Eval(x)
				left += c.EvalLeft(x)
			}
			if got := sum.Eval(x); got != right {
				t.Fatalf("trial %d: Sum(%d) = %d, want %d", trial, x, got, right)
			}
			if got := sum.EvalLeft(x); got != left {
				t.Fatalf("trial %d: Sum left(%d) = %d, want %d", trial, x, got, left)
			}
		}
	}
}

// TestSumEdgeCases: the trivial arities.
func TestSumEdgeCases(t *testing.T) {
	if got := Sum(); got.Eval(100) != 0 || got.Tail() != 0 {
		t.Fatalf("Sum() = %v, want zero curve", got)
	}
	c := Staircase([]Time{3, 7}, 2)
	if got := Sum(c); got != c {
		t.Fatalf("Sum(c) should return the same curve, got %v", got)
	}
}

// TestInverseCursorMatchesInverse: walking a non-decreasing level
// sequence through the cursor gives exactly Inverse at every level.
func TestInverseCursorMatchesInverse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		c := randMonotone(r, 1+r.Intn(12), 160)
		cur := newInverseCursor(c.f)
		y := Value(0)
		for step := 0; step < 40; step++ {
			y += Value(r.Intn(4))
			want := c.Inverse(y)
			got := cur.inverse(y)
			if got != want {
				t.Fatalf("trial %d: cursor inverse(%d) = %d, Inverse = %d (curve %v)",
					trial, y, got, want, c)
			}
		}
	}
}
