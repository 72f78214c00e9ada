package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkDef is the part of BENCHMARK.json the harness reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadReports reads a report file, one JSON report per line, keeping the
// end-to-end runs by workload.
func loadReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], rep)
		}
	}
	return out, sc.Err()
}

// side summarizes one metric over the runs of one report file, or over
// the per-seed ratios between two.
type side struct {
	vals        []float64
	med, q1, q3 float64
	spread      float64 // (q3-q1)/median
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	if len(vals) < 2 { // quartiles need two
		return s
	}
	s.med = median(append([]float64(nil), vals...))
	s.q1, s.q3 = quartiles(append([]float64(nil), vals...))
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / s.med
	}
	return s
}

// usable reports whether a run counts: correct, and not flagged invalid.
func usable(r report) bool { return r.Correct && r.Invalid == "" }

// summarize takes one metric over the usable runs.
func summarize(reps []report, name string) side {
	var vals []float64
	for _, r := range reps {
		if usable(r) {
			vals = append(vals, r.Metrics[name])
		}
	}
	return newSide(vals)
}

// minPairs is the number of pairs a paired verdict needs.
const minPairs = 5

// pairRatios returns b's value over a's for every pair of usable runs, one
// from each side, that have the same seed and are next to each other in
// start order: runs that ran side by side, so that whatever the machine
// drifted by over the whole collection cancels out of their ratio. Two
// blocks of runs taken one after the other make at most one such pair.
func pairRatios(a, b []report, name string) []float64 {
	type run struct {
		r    report
		side int
	}
	var runs []run
	for s, reps := range [2][]report{a, b} {
		for _, r := range reps {
			if usable(r) && !r.Started.IsZero() {
				runs = append(runs, run{r, s})
			}
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].r.Started.Before(runs[j].r.Started) })
	var out []float64
	for i := 1; i < len(runs); i++ {
		x, y := runs[i-1], runs[i]
		if x.side == y.side || x.r.Seed != y.r.Seed {
			continue
		}
		if x.side == 1 {
			x, y = y, x
		}
		if v := x.r.Metrics[name]; v != 0 {
			out = append(out, y.r.Metrics[name]/v)
		}
		i++ // a run is in one pair at most
	}
	return out
}

// verdict judges b against the baseline a under a bound on the relative
// change of one metric.
//
// With at least minPairs pairs of runs that ran side by side, it judges
// the pairs' ratios b/a. The metric is unresolved when their spread
// exceeds the bound, unless every pair reads better; worse when the median
// ratio is worse by more than the bound; better when it is better by more
// than the bound and b wins at least nine pairs in ten (else unresolved);
// the same otherwise.
//
// Without such pairs a difference may be the machine's drift between the
// sides, so the verdict is the same (both spreads and the change of the
// medians within the bound) or unresolved.
func verdict(a, b, ratio side, bound float64, higherBetter bool) string {
	worsening := func(r float64) float64 { // of a ratio r = b/a
		if higherBetter {
			return 1 - r
		}
		return r - 1
	}
	if len(ratio.vals) < minPairs {
		if len(a.vals) < 2 || len(b.vals) < 2 || a.spread > bound || b.spread > bound || math.Abs(worsening(b.med/a.med)) > bound {
			return "unresolved"
		}
		return "same"
	}
	wins := 0
	for _, r := range ratio.vals {
		if worsening(r) < 0 {
			wins++
		}
	}
	change := worsening(ratio.med)
	switch {
	case ratio.spread > bound && wins == len(ratio.vals):
		return "better"
	case ratio.spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < -bound && 10*wins >= 9*len(ratio.vals):
		return "better"
	case change < -bound:
		return "unresolved"
	}
	return "same"
}

// compareReports judges every later report file against the first, per
// workload and end-to-end metric, by the bounds in the definition file.
// It fails when any pair reads worse.
func compareReports(w io.Writer, defPath string, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-compare needs a baseline report file and at least one more")
	}
	def, err := loadDef(defPath)
	if err != nil {
		return err
	}
	base, err := loadReports(files[0])
	if err != nil {
		return err
	}
	worse := 0
	for _, file := range files[1:] {
		other, err := loadReports(file)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s against baseline %s: median [q1, q3] and spread (q3-q1)/median over each side's runs, then over the pairs' ratios new/baseline\n", file, files[0])
		names := map[string]bool{}
		for n := range base {
			names[n] = true
		}
		for n := range other {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, wl := range sorted {
			a, b := base[wl], other[wl]
			fmt.Fprintf(w, "%s: %d runs against %d\n", wl, len(b), len(a))
			for _, m := range def.EndToEnd {
				sa, sb, sr := summarize(a, m.Name), summarize(b, m.Name), newSide(pairRatios(a, b, m.Name))
				v := verdict(sa, sb, sr, m.Bound, m.Better == "higher")
				if v == "worse" {
					worse++
				}
				fmt.Fprintf(w, "  %-20s %11.5g [%.5g, %.5g] %5.1f%%  %11.5g [%.5g, %.5g] %5.1f%%  %d pairs %6.4f [%.4f, %.4f] %5.1f%%  bound %4.1f%%  %s\n",
					m.Name, sa.med, sa.q1, sa.q3, 100*sa.spread, sb.med, sb.q1, sb.q3, 100*sb.spread,
					len(sr.vals), sr.med, sr.q1, sr.q3, 100*sr.spread, 100*m.Bound, v)
			}
			fa, fb := failedFrac(a), failedFrac(b)
			v := "same"
			if fb > fa {
				v = "worse"
				worse++
			}
			fmt.Fprintf(w, "  %-20s %12.5g %26.5g  no increase  %s\n", "failed_frac", fa, fb, v)
			left := 0
			for _, r := range append(append([]report(nil), a...), b...) {
				if !usable(r) {
					left++
				}
			}
			if left > 0 {
				fmt.Fprintf(w, "  %d incorrect or invalid runs left out\n", left)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs read worse", worse)
	}
	return nil
}

// failedFrac is failed ops over attempted ops across the runs.
func failedFrac(reps []report) float64 {
	var failed, attempted int
	for _, r := range reps {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
