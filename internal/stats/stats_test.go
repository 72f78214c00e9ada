package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42, 7)
	b := NewRand(42, 7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) must give the same sequence")
		}
	}
	c := NewRand(42, 8)
	same := true
	d := NewRand(42, 7)
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams should diverge")
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	for i := 0; i < 80; i++ {
		p.Add(i%4 != 0) // 60/80
	}
	if got := p.Estimate(); got != 0.75 {
		t.Fatalf("estimate = %v, want 0.75", got)
	}
	lo, hi := p.Wilson(1.96)
	if lo >= 0.75 || hi <= 0.75 {
		t.Fatalf("Wilson interval [%.3f, %.3f] must contain the estimate", lo, hi)
	}
	if lo < 0.6 || hi > 0.9 {
		t.Fatalf("Wilson interval [%.3f, %.3f] implausibly wide for n=80", lo, hi)
	}
}

func TestProportionEmpty(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Error("empty estimate should be 0")
	}
	lo, hi := p.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty interval should be [0, 1]")
	}
}

func TestSummaryAgainstDirect(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		var xs []float64
		for _, v := range raw {
			x := float64(v)
			s.Add(x)
			xs = append(xs, x)
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		return math.Abs(s.Mean()-mean) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
