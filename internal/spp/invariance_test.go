package spp

import (
	"context"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/randsys"
)

// TestShiftInvariance: shifting every release by a constant shifts every
// departure by the same constant and leaves all response times unchanged.
// This is a strong structural property of the curve machinery (it
// exercises breakpoint arithmetic at a different absolute position).
func TestShiftInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 400; trial++ {
		sys := randsys.New(r, randsys.Default)
		base, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		shift := model.Ticks(1 + r.Intn(1000))
		shifted := sys.Clone()
		for k := range shifted.Jobs {
			for i := range shifted.Jobs[k].Releases {
				shifted.Jobs[k].Releases[i] += shift
			}
		}
		got, err := AnalyzeWith(context.Background(), shifted, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			if got.WCRT[k] != base.WCRT[k] {
				t.Fatalf("trial %d: WCRT changed under shift: %d -> %d",
					trial, base.WCRT[k], got.WCRT[k])
			}
			last := len(sys.Jobs[k].Subjobs) - 1
			for i := range sys.Jobs[k].Releases {
				if got.Departure[k][last][i] != base.Departure[k][last][i]+shift {
					t.Fatalf("trial %d: departure not shifted: %d vs %d+%d",
						trial, got.Departure[k][last][i], base.Departure[k][last][i], shift)
				}
			}
		}
	}
}

// TestScaleInvariance: multiplying every time quantity (releases and
// execution times) by a constant scales every response by the same
// constant - the tick resolution is semantically irrelevant.
func TestScaleInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 400; trial++ {
		sys := randsys.New(r, randsys.Default)
		base, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := model.Ticks(2 + r.Intn(9))
		scaled := sys.Clone()
		for k := range scaled.Jobs {
			for i := range scaled.Jobs[k].Releases {
				scaled.Jobs[k].Releases[i] *= c
			}
			for j := range scaled.Jobs[k].Subjobs {
				scaled.Jobs[k].Subjobs[j].Exec *= c
			}
		}
		got, err := AnalyzeWith(context.Background(), scaled, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			if got.WCRT[k] != c*base.WCRT[k] {
				t.Fatalf("trial %d: WCRT not scaled: %d vs %d*%d",
					trial, got.WCRT[k], c, base.WCRT[k])
			}
		}
	}
}

// TestPriorityRemapInvariance: only the relative order of priorities
// matters, not their numeric values.
func TestPriorityRemapInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		sys := randsys.New(r, randsys.Default)
		base, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		remapped := sys.Clone()
		for k := range remapped.Jobs {
			for j := range remapped.Jobs[k].Subjobs {
				// Strictly monotone remap: 7*p + 3.
				remapped.Jobs[k].Subjobs[j].Priority = 7*remapped.Jobs[k].Subjobs[j].Priority + 3
			}
		}
		got, err := AnalyzeWith(context.Background(), remapped, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			if got.WCRT[k] != base.WCRT[k] {
				t.Fatalf("trial %d: WCRT changed under priority remap: %d -> %d",
					trial, base.WCRT[k], got.WCRT[k])
			}
		}
	}
}

// TestIdleGapDecomposition: if the traces are separated by a gap larger
// than any backlog can survive, the analysis of the concatenation equals
// the analyses of the halves (busy periods do not interact across idle
// time).
func TestIdleGapDecomposition(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for trial := 0; trial < 200; trial++ {
		cfg := randsys.Default
		cfg.MaxStages = 1
		cfg.MaxProcsPerStage = 1
		sys := randsys.New(r, cfg)
		// Total work bounds any busy period.
		var totalWork model.Ticks
		for k := range sys.Jobs {
			totalWork += sys.Jobs[k].Subjobs[0].Exec * model.Ticks(len(sys.Jobs[k].Releases))
		}
		gap := totalWork + sys.MaxRelease() + 1
		// Duplicate every trace shifted by the gap.
		doubled := sys.Clone()
		for k := range doubled.Jobs {
			rel := doubled.Jobs[k].Releases
			for _, t0 := range sys.Jobs[k].Releases {
				rel = append(rel, t0+gap)
			}
			doubled.Jobs[k].Releases = rel
		}
		base, err := AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeWith(context.Background(), doubled, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sys.Jobs {
			if got.WCRT[k] != base.WCRT[k] {
				t.Fatalf("trial %d: WCRT changed when appending an independent busy window: %d -> %d",
					trial, base.WCRT[k], got.WCRT[k])
			}
		}
	}
}
