package workload

import (
	"math"
	"math/rand"
	"testing"

	"rta/internal/model"
	"rta/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		cfg := Default
		cfg.Stages = 1 + r.Intn(4)
		cfg.ProcsPerStage = 1 + r.Intn(3)
		cfg.Jobs = 1 + r.Intn(8)
		d, err := Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := d.System
		if len(sys.Procs) != cfg.Stages*cfg.ProcsPerStage {
			t.Fatalf("procs = %d, want %d", len(sys.Procs), cfg.Stages*cfg.ProcsPerStage)
		}
		if len(sys.Jobs) != cfg.Jobs {
			t.Fatalf("jobs = %d, want %d", len(sys.Jobs), cfg.Jobs)
		}
		for k := range sys.Jobs {
			if len(sys.Jobs[k].Subjobs) != cfg.Stages {
				t.Fatalf("job %d hops = %d, want %d", k, len(sys.Jobs[k].Subjobs), cfg.Stages)
			}
			for s, sj := range sys.Jobs[k].Subjobs {
				// Hop s must sit in stage s; the stages are disjoint, so
				// no job revisits a processor.
				if sj.Proc < s*cfg.ProcsPerStage || sj.Proc >= (s+1)*cfg.ProcsPerStage {
					t.Fatalf("job %d hop %d on proc %d outside stage %d", k, s, sj.Proc, s)
				}
			}
		}
	}
}

// TestNormalizedUtilization: with NormalizeUtilization the realized
// per-processor utilization matches the parameter closely (up to tick
// rounding), and without it stays below.
func TestNormalizedUtilization(t *testing.T) {
	realized := func(d *Draw) []float64 {
		out := make([]float64, len(d.System.Procs))
		for k := range d.System.Jobs {
			for _, sj := range d.System.Jobs[k].Subjobs {
				out[sj.Proc] += float64(sj.Exec) / float64(d.Period[k])
			}
		}
		return out
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		cfg := Default
		cfg.Utilization = 0.6
		cfg.NormalizeUtilization = true
		d, err := Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p, u := range realized(d) {
			if len(d.System.OnProc(p)) == 0 {
				continue // random routing may leave a processor unused
			}
			if u < 0.55 || u > 0.65 {
				t.Fatalf("trial %d: normalized utilization of P%d = %.3f, want ~0.6", trial, p, u)
			}
		}
		cfg.NormalizeUtilization = false
		d, err = Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p, u := range realized(d) {
			if u > 0.65 {
				t.Fatalf("trial %d: as-printed utilization of P%d = %.3f exceeds the parameter", trial, p, u)
			}
		}
	}
}

func TestPeriodicReleasesFollowEquation25(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := Default
	cfg.Arrival = Periodic
	d, err := Generate(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, job := range d.System.Jobs {
		if job.Releases[0] != 0 {
			t.Fatalf("job %d first release %d, want 0 (synchronous critical instant)", k, job.Releases[0])
		}
		for i := 1; i < len(job.Releases); i++ {
			gap := job.Releases[i] - job.Releases[i-1]
			if diff := gap - d.Period[k]; diff > 1 || diff < -1 {
				t.Fatalf("job %d gap %d differs from period %d", k, gap, d.Period[k])
			}
		}
		// Deadline = factor * period.
		want := float64(d.Period[k]) * cfg.DeadlineFactor
		if diff := float64(job.Deadline) - want; diff > 2 || diff < -2 {
			t.Fatalf("job %d deadline %d, want ~%.0f", k, job.Deadline, want)
		}
	}
}

func TestAperiodicDeadlinesShiftedExponential(t *testing.T) {
	cfg := Default
	cfg.Arrival = Aperiodic
	cfg.DeadlineOffset = 5
	cfg.DeadlineScale = 2
	var s stats.Summary
	for trial := 0; trial < 300; trial++ {
		r := stats.NewRand(4, int64(trial))
		d, err := Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range d.System.Jobs {
			s.Add(float64(job.Deadline) / float64(cfg.Scale.TicksPerUnit))
		}
	}
	if s.Min < 5 {
		t.Errorf("deadline %.3f below offset", s.Min)
	}
	if s.Mean() < 6.7 || s.Mean() > 7.3 {
		t.Errorf("deadline mean %.3f, want ~7", s.Mean())
	}
}

func TestWithSchedulerAndSunLiu(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d, err := Generate(r, Default)
	if err != nil {
		t.Fatal(err)
	}
	f := d.WithScheduler(model.FCFS)
	for p := range f.Procs {
		if f.Procs[p].Sched != model.FCFS {
			t.Fatal("WithScheduler did not override")
		}
	}
	if d.System.Procs[0].Sched != model.SPP {
		t.Fatal("WithScheduler mutated the original")
	}
	ts := d.SunLiu()
	if len(ts.Tasks) != len(d.System.Jobs) {
		t.Fatal("SunLiu lost tasks")
	}
	for k := range ts.Tasks {
		if ts.Tasks[k].Period != d.Period[k] {
			t.Fatal("SunLiu periods wrong")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	bad := []func(*Config){
		func(c *Config) { c.Stages = 0 },
		func(c *Config) { c.Utilization = 0 },
		func(c *Config) { c.Utilization = 1.5 },
		func(c *Config) { c.MinX = 0 },
		func(c *Config) { c.MinX = 0.9; c.MaxX = 0.5 },
		func(c *Config) { c.HorizonPeriods = 0 },
		func(c *Config) { c.Scale.TicksPerUnit = 0 },
	}
	for i, mutate := range bad {
		cfg := Default
		mutate(&cfg)
		if _, err := Generate(r, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBurstyReleases(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cfg := Default
	cfg.Arrival = Bursty
	cfg.BurstSize = 4
	d, err := Generate(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, job := range d.System.Jobs {
		// Releases come in groups of BurstSize at identical instants.
		n := len(job.Releases)
		if n < 4 {
			t.Fatalf("job %d has only %d releases", k, n)
		}
		for i := 0; i+3 < n && i%4 == 0; i += 4 {
			if job.Releases[i] != job.Releases[i+3] {
				t.Fatalf("job %d releases %d..%d not a burst: %v", k, i, i+3, job.Releases[i:i+4])
			}
		}
		// Burst spacing is BurstSize periods (up to rounding).
		if n >= 8 {
			gap := job.Releases[4] - job.Releases[0]
			want := 4 * d.Period[k]
			if diff := gap - want; diff > 4 || diff < -4 {
				t.Fatalf("job %d burst gap %d, want ~%d", k, gap, want)
			}
		}
	}
	// Burst size 1 equals the periodic pattern.
	r2 := rand.New(rand.NewSource(9))
	cfg1 := cfg
	cfg1.BurstSize = 1
	d1, err := Generate(r2, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r3 := rand.New(rand.NewSource(9))
	cfgP := cfg
	cfgP.Arrival = Periodic
	dP, err := Generate(r3, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	for k := range d1.System.Jobs {
		a, b := d1.System.Jobs[k].Releases, dP.System.Jobs[k].Releases
		if len(a) != len(b) {
			t.Fatalf("job %d: burst-1 has %d releases, periodic %d", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("job %d: burst-1 trace differs from periodic at %d", k, i)
			}
		}
	}
}

// TestGammaMoments checks the sampler against its analytic mean and
// variance across the CV range the load harness uses, including the
// shape<1 boost branch (cv>1).
func TestGammaMoments(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 200000
	for _, cv := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		mean := 3.0
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			g := GammaInterarrival(r, mean, cv)
			if g < 0 {
				t.Fatalf("cv=%v: negative interarrival %v", cv, g)
			}
			sum += g
			sumsq += g * g
		}
		m := sum / n
		v := sumsq/n - m*m
		gotCV := math.Sqrt(v) / m
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("cv=%v: sample mean %v, want ~%v", cv, m, mean)
		}
		if math.Abs(gotCV-cv)/cv > 0.08 {
			t.Errorf("cv=%v: sample CV %v", cv, gotCV)
		}
	}
}

// TestGammaEdgeCases pins the degenerate configurations the harness
// relies on: cv<=0 is deterministic pacing, mean<=0 is a zero gap, and a
// fixed seed reproduces the same trace.
func TestGammaEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if g := GammaInterarrival(r, 2.5, 0); g != 2.5 {
		t.Fatalf("cv=0 gap = %v, want 2.5", g)
	}
	if g := GammaInterarrival(r, 0, 2); g != 0 {
		t.Fatalf("mean=0 gap = %v, want 0", g)
	}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if ga, gb := GammaInterarrival(a, 1, 4), GammaInterarrival(b, 1, 4); ga != gb {
			t.Fatalf("draw %d: same seed diverged: %v != %v", i, ga, gb)
		}
	}
}
