package arrivals

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rta/internal/model"
)

func sorted(ts []model.Ticks) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return false
		}
	}
	return true
}

func TestPeriodicMatchesEquation25(t *testing.T) {
	// Equation (25): t_m = (m-1)/x with x = 0.25 -> period 4.
	got := Periodic(4, 0, 20, Scale{TicksPerUnit: 10})
	want := []model.Ticks{0, 40, 80, 120, 160, 200}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("release %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPeriodicPhase(t *testing.T) {
	got := Periodic(5, 2, 13, Scale{TicksPerUnit: 1})
	want := []model.Ticks{2, 7, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPaperAperiodicMatchesEquation27(t *testing.T) {
	// t_m = sqrt(x^2+(m-1)^2)/x - 1; spot-check against direct evaluation.
	x := 0.4
	sc := Scale{TicksPerUnit: 1_000_000}
	got := PaperAperiodic(x, 12, sc)
	if got[0] != 0 {
		t.Fatalf("first release = %d, want 0", got[0])
	}
	for m := 1; m <= len(got); m++ {
		want := sc.Ticks(math.Sqrt(x*x+float64(m-1)*float64(m-1))/x - 1)
		if got[m-1] != want {
			t.Fatalf("release %d = %d, want %d", m, got[m-1], want)
		}
	}
	if !sorted(got) {
		t.Fatal("aperiodic trace not sorted")
	}
	// The early stream is denser than its asymptotic period 1/x: the
	// second gap is below the asymptotic spacing.
	if len(got) > 2 {
		gap := float64(got[1]-got[0]) / float64(sc.TicksPerUnit)
		if gap >= 1/x {
			t.Errorf("early gap %.3f not bursty (asymptotic period %.3f)", gap, 1/x)
		}
	}
}

func TestGeneratorsProduceValidTraces(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sc := DefaultScale
	check := func(name string, ts []model.Ticks) {
		t.Helper()
		if len(ts) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if !sorted(ts) {
			t.Fatalf("%s: unsorted trace %v", name, ts)
		}
		if ts[0] < 0 {
			t.Fatalf("%s: negative release", name)
		}
	}
	for trial := 0; trial < 200; trial++ {
		period := 0.5 + 5*r.Float64()
		check("Periodic", Periodic(period, 0, 30, sc))
		check("PaperAperiodic", PaperAperiodic(0.05+0.9*r.Float64(), 30, sc))
		check("Bursts", Bursts(period*3, 1+r.Intn(4), period/10, 30, sc))
	}
}

func TestScaleProperties(t *testing.T) {
	sc := Scale{TicksPerUnit: 1000}
	if sc.Ticks(-0.5) != 0 {
		t.Error("negative times must clamp to 0")
	}
	if sc.DurationTicks(1e-9) != 1 {
		t.Error("durations must be at least one tick")
	}
	prop := func(raw uint16) bool {
		v := float64(raw) / 64
		return sc.Ticks(v) == model.Ticks(math.Round(v*1000))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
