package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"rta/internal/stats"
	"rta/internal/workload"
)

// smallOpts keeps the statistical tests fast; the qualitative anchors are
// robust at this sample size.
func smallOpts(methods ...Method) Options {
	return Options{
		Seed:         1,
		Sets:         60,
		Utilizations: []float64{0.3, 0.6, 0.9},
		Methods:      methods,
	}
}

// mustSweep fails the test on a sweep error.
func mustSweep(t *testing.T, cfg workload.Config, opts Options) Panel {
	t.Helper()
	p, err := Sweep(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSweepDeterministic: the same seed yields identical proportions
// regardless of worker scheduling.
func TestSweepDeterministic(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 2
	opts := smallOpts(SPPExact, SPNPApp)
	a := mustSweep(t, cfg, opts)
	opts.Workers = 3
	b := mustSweep(t, cfg, opts)
	for i := range a.Points {
		for m := range a.Points[i].Admission {
			if a.Points[i].Admission[m] != b.Points[i].Admission[m] {
				t.Fatalf("point %d method %s: %v != %v", i, m,
					a.Points[i].Admission[m], b.Points[i].Admission[m])
			}
		}
	}
	// The rendered figure CSVs must be byte-identical too (the acceptance
	// bar for the fault-containment plumbing being unobservable on
	// uncanceled, unbudgeted runs at any worker count).
	var csvA, csvB bytes.Buffer
	RenderCSV(&csvA, []Panel{a})
	RenderCSV(&csvB, []Panel{b})
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatalf("CSV output differs across worker counts:\n%s\n---\n%s", csvA.String(), csvB.String())
	}
}

// TestSweepReportsGeneratorError: an invalid configuration surfaces as an
// error from the sweep instead of killing a worker goroutine.
func TestSweepReportsGeneratorError(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 0 // invalid shop shape
	if _, err := Sweep(cfg, smallOpts(SPPExact)); err == nil {
		t.Fatal("Sweep accepted an invalid configuration")
	}
	if _, err := Figure3(cfg, []int{0}, []float64{2}, smallOpts(SPPExact)); err == nil {
		t.Fatal("Figure3 accepted an invalid configuration")
	}
}

// TestPaperAnchorSingleStage: SPP/Exact and SPP/S&L admit exactly the
// same job sets on single-stage shops (Section 5.2, Figure 3 (a)/(d)).
func TestPaperAnchorSingleStage(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 1
	cfg.DeadlineFactor = 1.5
	for set := 0; set < 200; set++ {
		r := stats.NewRand(11, int64(set))
		d, err := workload.Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Admit(d, []Method{SPPExact, SunLiu})
		if err != nil {
			t.Fatal(err)
		}
		if got[SPPExact] != got[SunLiu] {
			t.Fatalf("set %d: single-stage decisions differ: exact=%v S&L=%v",
				set, got[SPPExact], got[SunLiu])
		}
	}
}

// TestPaperAnchorOrdering: per-draw, the methods' admission decisions
// respect the paper's dominance ordering: whatever SPP/S&L admits,
// SPP/Exact admits too (the exact bound is never larger on the same SPP
// system).
func TestPaperAnchorOrdering(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 4
	cfg.DeadlineFactor = 2
	exactWins, slWins := 0, 0
	for set := 0; set < 200; set++ {
		r := stats.NewRand(12, int64(set))
		cfg.Utilization = 0.4 + 0.5*float64(set%6)/5
		d, err := workload.Generate(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Admit(d, []Method{SPPExact, SunLiu})
		if err != nil {
			t.Fatal(err)
		}
		if got[SunLiu] && !got[SPPExact] {
			t.Fatalf("set %d: S&L admits but the exact analysis rejects", set)
		}
		if got[SPPExact] && !got[SunLiu] {
			exactWins++
		}
		if got[SPPExact] == got[SunLiu] {
			slWins++
		}
	}
	if exactWins == 0 {
		t.Error("exact analysis never admitted a set S&L rejected; the paper's multi-stage gap should appear")
	}
}

// TestAdmissionMonotoneInUtilization: admission probabilities decrease
// (statistically) as utilization grows, for every method.
func TestAdmissionMonotoneInUtilization(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 2
	cfg.DeadlineFactor = 2
	p := mustSweep(t, cfg, Options{
		Seed: 2, Sets: 120,
		Utilizations: []float64{0.2, 0.9},
		Methods:      []Method{SPPExact, SunLiu, SPNPApp, FCFSApp},
	})
	for _, m := range []Method{SPPExact, SunLiu, SPNPApp, FCFSApp} {
		lo := p.Points[0].Admission[m].Estimate()
		hi := p.Points[1].Admission[m].Estimate()
		if hi > lo+0.05 {
			t.Errorf("%s: admission rose from %.3f to %.3f with utilization", m, lo, hi)
		}
	}
}

// TestDeadlineDoublingHelps: the paper's left-to-right improvement.
func TestDeadlineDoublingHelps(t *testing.T) {
	base := workload.Default
	base.Stages = 2
	base.Utilization = 0.8

	admitted := func(df float64) int {
		cfg := base
		cfg.DeadlineFactor = df
		n := 0
		for set := 0; set < 120; set++ {
			r := stats.NewRand(13, int64(set))
			d, err := workload.Generate(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Admit(d, []Method{SPNPApp})
			if err != nil {
				t.Fatal(err)
			}
			if got[SPNPApp] {
				n++
			}
		}
		return n
	}
	lo, hi := admitted(1.5), admitted(3)
	if hi < lo {
		t.Errorf("doubling the deadline reduced admissions: %d -> %d", lo, hi)
	}
	if hi == lo {
		t.Logf("warning: deadline factor had no effect at this sample (lo=hi=%d)", lo)
	}
}

// TestRenderFormats: both renderers produce parseable output.
func TestRenderFormats(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 1
	p := mustSweep(t, cfg, smallOpts(SPPExact, FCFSApp))
	p.Name = "panel-x"
	var txt, csv bytes.Buffer
	Render(&txt, []Panel{p})
	RenderCSV(&csv, []Panel{p})
	if !strings.Contains(txt.String(), "panel-x") || !strings.Contains(txt.String(), "SPP/Exact") {
		t.Errorf("text render missing content:\n%s", txt.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// Header + 3 utilizations x 2 methods.
	if len(lines) != 1+3*2 {
		t.Errorf("csv has %d lines, want 7:\n%s", len(lines), csv.String())
	}
	if lines[0] != "panel,utilization,method,admission,sets" {
		t.Errorf("csv header = %q", lines[0])
	}
}

// TestFigureWrappersProducePanels exercises the Figure 3/4 drivers at a
// tiny scale; the full-scale runs live in cmd/rta-jobshop.
func TestFigureWrappersProducePanels(t *testing.T) {
	base := workload.Default
	base.Jobs = 4
	opts := Options{Seed: 3, Sets: 6, Utilizations: []float64{0.4, 0.8}}
	f3, err := Figure3(base, []int{1, 2}, []float64{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 2 {
		t.Fatalf("Figure3 panels = %d, want 2", len(f3))
	}
	for _, p := range f3 {
		if len(p.Points) != 2 {
			t.Fatalf("panel %q has %d points", p.Name, len(p.Points))
		}
		if _, ok := p.Points[0].Admission[SunLiu]; !ok {
			t.Fatalf("panel %q missing the S&L baseline", p.Name)
		}
	}
	f4, err := Figure4(base, []float64{6}, []float64{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4) != 2 {
		t.Fatalf("Figure4 panels = %d, want 2", len(f4))
	}
	for _, p := range f4 {
		if _, ok := p.Points[0].Admission[SunLiu]; ok {
			t.Fatalf("panel %q must not include S&L (aperiodic)", p.Name)
		}
		if _, ok := p.Points[0].Admission[SPPExact]; !ok {
			t.Fatalf("panel %q missing SPP/Exact", p.Name)
		}
	}
}

// TestCSVRoundTrip: RenderCSV -> ParseCSV preserves panels and
// proportions.
func TestCSVRoundTrip(t *testing.T) {
	cfg := workload.Default
	cfg.Stages = 1
	p := mustSweep(t, cfg, smallOpts(SPPExact, FCFSApp))
	p.Name = "rt-panel"
	var buf bytes.Buffer
	RenderCSV(&buf, []Panel{p})
	got, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != `"rt-panel"` && got[0].Name != "rt-panel" {
		t.Fatalf("panels = %+v", got)
	}
	if len(got[0].Points) != len(p.Points) {
		t.Fatalf("points = %d, want %d", len(got[0].Points), len(p.Points))
	}
	for i, pt := range got[0].Points {
		for m, pr := range pt.Admission {
			orig := p.Points[i].Admission[m]
			if pr.Trials != orig.Trials {
				t.Fatalf("point %d method %s: trials %d != %d", i, m, pr.Trials, orig.Trials)
			}
			// The estimate is stored at 4 decimals; successes must match
			// after the rounding round trip.
			if pr.Successes != orig.Successes {
				t.Fatalf("point %d method %s: successes %d != %d", i, m, pr.Successes, orig.Successes)
			}
		}
	}
	// And the plot conversion produces one series per method.
	pl := PanelPlot(got[0])
	if len(pl.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(pl.Series))
	}
}

// TestFigureCSVWorkerIdentity asserts the rendered figure CSVs are
// byte-identical between a serial and an 8-worker sweep. Per-draw RNG is
// keyed on (utilization index, set) and verdict counting is commutative,
// so neither worker scheduling nor task chunking may leak into the
// artifacts. Sets = 10 deliberately straddles a chunk boundary (one full
// chunk of 8 plus a remainder of 2).
func TestFigureCSVWorkerIdentity(t *testing.T) {
	base := workload.Default
	base.Jobs = 4
	render := func(workers int) (string, string) {
		opts := Options{
			Seed:         7,
			Sets:         10,
			Utilizations: []float64{0.4, 0.8},
			Workers:      workers,
		}
		f3, err := Figure3(base, []int{1, 2}, []float64{2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := Figure4(base, []float64{6}, []float64{1, 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b3, b4 bytes.Buffer
		RenderCSV(&b3, f3)
		RenderCSV(&b4, f4)
		return b3.String(), b4.String()
	}
	s3, s4 := render(1)
	p3, p4 := render(8)
	if s3 != p3 {
		t.Errorf("figure 3 CSV differs between 1 and 8 workers:\n-- serial --\n%s\n-- 8 workers --\n%s", s3, p3)
	}
	if s4 != p4 {
		t.Errorf("figure 4 CSV differs between 1 and 8 workers:\n-- serial --\n%s\n-- 8 workers --\n%s", s4, p4)
	}
}

// TestFigureCSVChainAsDAGIdentity reruns the figure pipeline with every
// generated job's chain written out as explicit precedence
// (workload.Config.ExplicitChains) and demands byte-identical CSVs at
// both worker counts: the DAG generalization must not move a single
// admission decision on chain-shaped workloads.
func TestFigureCSVChainAsDAGIdentity(t *testing.T) {
	render := func(explicit bool, workers int) (string, string) {
		base := workload.Default
		base.Jobs = 4
		base.ExplicitChains = explicit
		opts := Options{
			Seed:         7,
			Sets:         10,
			Utilizations: []float64{0.4, 0.8},
			Workers:      workers,
		}
		f3, err := Figure3(base, []int{1, 2}, []float64{2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := Figure4(base, []float64{6}, []float64{1, 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b3, b4 bytes.Buffer
		RenderCSV(&b3, f3)
		RenderCSV(&b4, f4)
		return b3.String(), b4.String()
	}
	c3, c4 := render(false, 1)
	for _, workers := range []int{1, 8} {
		d3, d4 := render(true, workers)
		if c3 != d3 {
			t.Errorf("figure 3 CSV differs with explicit chain precedence (%d workers):\n-- chains --\n%s\n-- DAG --\n%s", workers, c3, d3)
		}
		if c4 != d4 {
			t.Errorf("figure 4 CSV differs with explicit chain precedence (%d workers):\n-- chains --\n%s\n-- DAG --\n%s", workers, c4, d4)
		}
	}
}

// TestFigureCSVGolden regenerates the small fixed-seed Figure 3 and
// Figure 4 sweep of TestFigureCSVWorkerIdentity and byte-compares it with
// the committed CSVs in testdata/. The worker-identity tests compare two
// runs of the current engines against each other; this one pins them to
// a recorded output, so a refactor that moves every run alike still fails.
func TestFigureCSVGolden(t *testing.T) {
	base := workload.Default
	base.Jobs = 4
	opts := Options{
		Seed:         7,
		Sets:         10,
		Utilizations: []float64{0.4, 0.8},
		Workers:      1,
	}
	f3, err := Figure3(base, []int{1, 2}, []float64{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Figure4(base, []float64{6}, []float64{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file   string
		panels []Panel
	}{{"testdata/figure3_golden.csv", f3}, {"testdata/figure4_golden.csv", f4}} {
		var got bytes.Buffer
		RenderCSV(&got, c.panels)
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the regenerated CSV:\n-- want --\n%s\n-- got --\n%s", c.file, want, got.Bytes())
		}
	}
}
