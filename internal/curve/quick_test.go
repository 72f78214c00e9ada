package curve

// Property-based tests (testing/quick) for the invariants every operation
// must preserve: monotonicity, slope class, the Galois connection of the
// pseudo-inverse, and ordering relations between the transforms.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genCurve is a quick.Generator wrapper around a random monotone curve.
type genCurve struct{ C *Curve }

func (genCurve) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genCurve{randMonotone(r, 2+size%14, 160)})
}

// genStair is a quick.Generator wrapper around a random staircase and its
// jump height.
type genStair struct {
	C      *Curve
	Height Value
}

func (genStair) Generate(r *rand.Rand, size int) reflect.Value {
	h := Value(1 + r.Intn(8))
	c, _ := randStaircase(r, 2+size%12, 160, h)
	return reflect.ValueOf(genStair{c, h})
}

var quickCfg = &quick.Config{MaxCount: 400}

func TestQuickCurveInvariants(t *testing.T) {
	prop := func(g genCurve) bool {
		return g.C.Validate() == nil
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseGalois(t *testing.T) {
	prop := func(g genCurve, yRaw uint8) bool {
		c := g.C
		y := Value(yRaw)
		inv := c.Inverse(y)
		if IsInf(inv) {
			sup, ok := c.Sup()
			return ok && sup < y
		}
		if c.Eval(inv) < y {
			return false
		}
		// Minimality on the grid.
		return inv == 0 || c.Eval(inv-1) < y
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddMonotoneCommutes(t *testing.T) {
	prop := func(a, b genStair) bool {
		s1 := a.C.Add(b.C)
		s2 := b.C.Add(a.C)
		if s1.Validate() != nil {
			return false
		}
		for x := Time(0); x <= 170; x += 7 {
			if s1.Eval(x) != s2.Eval(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// genCont is a quick.Generator for random *continuous* monotone curves,
// the shape of real availability and service functions (availability never
// jumps: a processor cannot deliver service instantaneously).
type genCont struct{ C *Curve }

func (genCont) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genCont{randContinuous(r, 2+size%14, 160)})
}

func TestQuickServiceTransformBounds(t *testing.T) {
	// 0 <= S(t) <= min(avail(t), demand(t)) and S is a valid curve; the
	// transform is monotone in the availability.
	prop := func(a genCont, d genStair) bool {
		s := ServiceTransform(a.C, d.C)
		if s.Validate() != nil {
			return false
		}
		for x := Time(0); x <= 170; x += 3 {
			v := s.Eval(x)
			if v < 0 || v > a.C.Eval(x) || v > d.C.Eval(x) {
				return false
			}
		}
		// More availability can only increase service: compare against an
		// idle processor (A = t >= any valid availability curve).
		full := ServiceTransform(Identity(), d.C)
		for x := Time(0); x <= 170; x += 3 {
			if s.Eval(x) > full.Eval(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNPBoundsOrdered(t *testing.T) {
	// When the interference upper and lower bounds coincide (exact
	// interference), the Theorem 5 lower bound never exceeds the
	// Theorem 6 upper bound, and blocking only hurts.
	prop := func(i genCont, d genStair, bRaw uint8) bool {
		b := Value(bRaw % 40)
		interference := []*Curve{i.C}
		lo := LowerServiceNPIn(nil, b, interference, interference, d.C)
		up := UpperServiceNPIn(nil, interference, interference, d.C)
		lo0 := LowerServiceNPIn(nil, 0, interference, interference, d.C)
		for x := Time(0); x <= 170; x += 3 {
			if lo.Eval(x) > up.Eval(x) {
				return false
			}
			if lo.Eval(x) > lo0.Eval(x) {
				return false // more blocking cannot mean more service
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUtilizationBounds(t *testing.T) {
	// U(t) <= t, U(t) <= G(t), and U is exactly t while work is pending.
	prop := func(d genStair) bool {
		u := Utilization(d.C)
		if u.Validate() != nil {
			return false
		}
		for x := Time(0); x <= 170; x += 3 {
			v := u.Eval(x)
			if v > x || v > d.C.Eval(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFCFSComposeOrdered(t *testing.T) {
	// The lower composition never exceeds the upper one, and both are
	// staircases bounded by the subjob workload (+tau for the upper).
	prop := func(d genStair, o genStair) bool {
		total := d.C.Add(o.C)
		util := Utilization(total)
		lo := ComposeFCFSIn(nil, d.C, total, util, false)
		up := ComposeFCFSIn(nil, d.C, total, util, true)
		for x := Time(0); x <= 170; x += 3 {
			if lo.Eval(x) > up.Eval(x) {
				return false
			}
			if lo.Eval(x) > d.C.Eval(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloorDivCounts(t *testing.T) {
	// floor(S/tau) never counts more departures than arrivals, and all
	// arrivals eventually depart when the processor has spare capacity.
	prop := func(d genStair) bool {
		s := ServiceTransform(Identity(), d.C)
		dep := s.FloorDiv(d.Height)
		arr := d.C // workload staircase; counts scale by Height
		for x := Time(0); x <= 170; x += 3 {
			if dep.Eval(x)*d.Height > arr.Eval(x) {
				return false
			}
		}
		sup, ok := arr.Sup()
		if !ok {
			return false
		}
		total, ok2 := dep.Sup()
		return ok2 && total == sup/d.Height
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinIsPointwiseMin(t *testing.T) {
	prop := func(a genCurve, b genStair) bool {
		m := a.C.Min(b.C)
		if m.Validate() != nil {
			return false
		}
		for x := Time(0); x <= 170; x += 3 {
			want := a.C.Eval(x)
			if v := b.C.Eval(x); v < want {
				want = v
			}
			if m.Eval(x) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxVerticalDeviationDense(t *testing.T) {
	prop := func(up genStair, lo genCont) bool {
		// upper staircase vs a continuous lower curve: the deviation
		// must match a dense scan when both tails are flat.
		d, ok := MaxVerticalDeviation(up.C, lo.C)
		if !ok {
			return up.C.Tail() > lo.C.Tail()
		}
		var want Value
		for x := Time(0); x <= 200; x++ {
			if v := up.C.Eval(x) - lo.C.Eval(x); v > want {
				want = v
			}
			if x > 0 {
				if v := up.C.EvalLeft(x) - lo.C.EvalLeft(x); v > want {
					want = v
				}
			}
		}
		return d == want
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddConstShifts(t *testing.T) {
	prop := func(a genStair, vRaw uint8) bool {
		v := Value(vRaw)
		s := a.C.AddConstIn(nil, v)
		for x := Time(0); x <= 170; x += 7 {
			if s.Eval(x) != a.C.Eval(x)+v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}
