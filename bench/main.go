// Command bench is the repository benchmark. It runs one named workload
// for a seeded input, checks the outputs, prints every metric by name with
// its unit, appends a JSON report, and ends with a one-line JSON result.
//
// Run it from the root of a checkout through the wrapper, which builds it:
//
//	bash bench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload figures --seed 2 --trace 1
//	bash bench/run.sh -compare base.jsonl new.jsonl
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// seeded inputs in-process with a span around every call into a layer and
// reports the per-layer metrics. See bench/README.md.
//
// It exits 0 on a correct run, 1 when an output was wrong (the result line
// then says "correct": false) or the run could not be made, 2 on a usage
// error, and 3, printing no result line, when the run measured the machine
// rather than the program (the load generator ran late) twice in a row.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run flagged invalid is made again, up to maxAttempts runs in all;
// exitInvalid is the exit code when the last one is invalid too.
const (
	maxAttempts = 2
	exitInvalid = 3
)

// metric is one reported metric as BENCHMARK.json lists it.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a run with --trace 0 reports, on every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"capacity_ops_per_s", "ops/s", "higher"},
	{"decision_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
}

// perLayer are the metrics a run with --trace 1 reports, on every
// workload. A layer's share is its part of one workload op's time; a
// workload that bypasses a layer reports a share of 0.
var perLayer = []metric{
	{"workload.share", "frac", "lower"},
	{"spp.share", "frac", "lower"},
	{"analysis.share", "frac", "lower"},
	{"sunliu.share", "frac", "lower"},
	{"experiments.share", "frac", "lower"},
	{"serve.share", "frac", "lower"},
	{"admission.share", "frac", "lower"},
	{"store.share", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"admission.grants", "count", "higher"},
	{"admission.denies", "count", "lower"},
	{"analysis.warm_speedup", "x", "higher"},
	{"curve.breaks_per_op", "count", "lower"},
	{"store.bytes_per_decision", "B", "lower"},
	{"store.snapshots", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// tail is the percentile decision_tail_ms and query_tail_ms report:
	// the highest one the workload's sample count supports with minBeyond
	// samples to spare at the reference run length.
	tail float64
	// windows is the number of windows the run is cut into; a windowed
	// latency is the median over them (see latencies). A serve run has one
	// open-loop segment and one closed-loop batch per window.
	windows int
	// limitMs is the latency limit on decision_tail_ms, printed as pass or
	// fail; 0 means none (a batch workload).
	limitMs    float64
	run, trace func(runConfig) (*result, error)
}

var workloads = []workloadDef{
	{name: "figures", tail: 0.99, windows: 1, run: runFigures, trace: traceFigures},
	{name: "serve-large", tail: 0.9, windows: 3, limitMs: 100, run: serveLarge.run, trace: serveLarge.trace},
	{name: "serve-small", tail: 0.95, windows: 6, limitMs: 10, run: serveSmall.run, trace: serveSmall.trace},
	{name: "serve-durable", tail: 0.95, windows: 6, limitMs: 15, run: serveDurable.run, trace: serveDurable.trace},
}

// runConfig carries one run's settings into a workload.
type runConfig struct {
	seed    int64
	seconds int
	tail    float64
	windows int
	// tmp is a temporary directory inside the checkout, removed at exit.
	tmp string
}

// tally counts attempted and failed operations, keeping a few failures
// as examples.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// result is what one run measured.
type result struct {
	tl      tally
	metrics map[string]float64
	// samples is the sample count behind each distribution metric.
	samples map[string]int
	// info holds the numbers printed and reported beside the metrics:
	// grant and denial counts, load-generator health, per-call layer
	// distributions.
	info map[string]float64
	// invalid, when set, says why the run measured the machine rather
	// than the program.
	invalid string
	spans   []span
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}, info: map[string]float64{}}
}

// latencies records the decision and query latency distributions of the
// run's windows, failing by the sample-count rule. The decision and query
// p50 metrics are the median over the windows of each window's p50, so
// one stall of the machine, which lands in one window, does not move
// them. The tails are reported beside the metrics, with no regression
// bound: the decision tail as the median over the windows of each
// window's tail percentile, the query tail over all query samples (a
// window holds too few on serve-large).
func (r *result) latencies(dec, qry [][]float64, tail float64) error {
	var err error
	if r.metrics["decision_p50_ms"], err = windowed(dec, 0.5); err != nil {
		return fmt.Errorf("decision: %w", err)
	}
	if r.info["decision_tail_ms"], err = windowed(dec, tail); err != nil {
		return fmt.Errorf("decision: %w", err)
	}
	if r.metrics["query_p50_ms"], err = windowed(qry, 0.5); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	var all []float64
	for _, w := range qry {
		all = append(all, w...)
	}
	if r.info["query_tail_ms"], err = percentile(all, tail); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	r.samples["query"] = len(all)
	r.samples["decision"] = 0
	for _, w := range dec {
		r.samples["decision"] += len(w)
	}
	return nil
}

// windowed is the median over the windows of each window's q-quantile.
func windowed(windows [][]float64, q float64) (float64, error) {
	var ps []float64
	for _, w := range windows {
		p, err := percentile(w, q)
		if err != nil {
			return 0, err
		}
		ps = append(ps, p)
	}
	return median(ps), nil
}

// timeSetup runs one timed set-up at least minSetupReps times and until
// setupBudget has been spent (at most maxSetupReps times), and returns the
// times in seconds. Each call of setup reports its own timed part. A run
// times two such batches, one before and one after its measurement, and
// reports the median of both as setup_s: the machine's speed drifts over
// tens of seconds, and one batch would sample a single moment of it.
func timeSetup(setup func() (time.Duration, error)) ([]float64, error) {
	var times []float64
	var spent time.Duration
	for len(times) < minSetupReps || (spent < setupBudget && len(times) < maxSetupReps) {
		d, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		times = append(times, d.Seconds())
	}
	return times, nil
}

// report is one run's record in the report file.
type report struct {
	Workload   string             `json:"workload"`
	Started    time.Time          `json:"started"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	GoVersion  string             `json:"go_version"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Invalid    string             `json:"invalid,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Info       map[string]float64 `json:"info,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 replays the inputs with per-layer spans instead of measuring end to end")
	out := fs.String("out", ".bench_build/reports.jsonl", "append this run's report to this file")
	traceOut := fs.String("trace-out", ".bench_build/trace.json", "write the spans of a traced run to this file")
	compare := fs.Bool("compare", false, "compare report files: the first is the baseline, each later one is judged against it")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareReports(stdout, *spec, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < capacitySeconds+2 {
		fmt.Fprintf(stderr, "bench: usage: --workload W --seed N --seconds S (>= %d) --trace 0|1\n", capacitySeconds+2)
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// GOMAXPROCS never exceeds the CPUs this process may run on; both are
	// recorded in every report.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	fn, want := wl.run, endToEnd
	if *trace == 1 {
		fn, want = wl.trace, perLayer
	}
	var res *result
	for attempt := 1; ; attempt++ {
		var err error
		if res, err = attemptRun(wl, fn, want, *seed, *seconds, *trace == 1, *out, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if res.invalid == "" || res.tl.failed > 0 {
			break
		}
		// The result line has a fixed set of keys and no room for a
		// validity flag, so an invalid run is repeated once and, when it
		// stays invalid, prints none.
		if attempt == maxAttempts {
			fmt.Fprintf(stderr, "bench: %s: invalid run, no result: %s\n", wl.name, res.invalid)
			return exitInvalid
		}
		fmt.Fprintf(stderr, "bench: %s: invalid run, repeating it: %s\n", wl.name, res.invalid)
	}
	if *trace == 1 {
		if err := writeJSON(*traceOut, res.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(res.spans), *traceOut)
	}
	correct := res.tl.failed == 0
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.tl.attempted, res.tl.failed, map[string]value{}}
	for _, m := range want {
		line.Metrics[m.name] = value{res.metrics[m.name], m.unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !correct {
		return 1
	}
	return 0
}

// attemptRun makes one run of a workload in a fresh temporary directory
// inside .bench_build, prints its table and appends its report to out.
func attemptRun(wl *workloadDef, fn func(runConfig) (*result, error), want []metric, seed int64, seconds int, trace bool, out string, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	started := time.Now()
	res, err := fn(runConfig{seed: seed, seconds: seconds, tail: wl.tail, windows: wl.windows, tmp: tmp})
	if err == nil {
		err = checkMetrics(res.metrics, want)
	}
	if err != nil {
		return nil, err
	}
	rep := report{
		Workload: wl.name, Started: started, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Correct: res.tl.failed == 0, Attempted: res.tl.attempted, Failed: res.tl.failed, Failures: res.tl.notes,
		Invalid: res.invalid, Metrics: res.metrics, Samples: res.samples, Info: res.info,
	}
	printTable(stdout, wl, rep, want)
	return res, appendReport(out, rep)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// checkMetrics rejects a result that misses a metric or holds a value
// JSON cannot carry.
func checkMetrics(got map[string]float64, want []metric) error {
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
	}
	return nil
}

func printTable(w io.Writer, wl *workloadDef, rep report, want []metric) {
	mode := "end to end"
	if rep.Trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s; GOMAXPROCS %d, nproc %d, %s\n",
		rep.Workload, rep.Seed, mode, rep.GOMAXPROCS, rep.NumCPU, rep.GoVersion)
	for _, m := range want {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s", m.name, rep.Metrics[m.name], m.unit)
		if n, ok := rep.Samples[strings.TrimSuffix(m.name, "_p50_ms")]; ok {
			fmt.Fprintf(w, "  p50 (median of %d windows) of %d samples", wl.windows, n)
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %14.6g\n", k, rep.Info[k])
	}
	if !rep.Trace {
		fmt.Fprintf(w, "  tails: decision p%s (median of %d windows), query p%s (all samples)\n", pctLabel(wl.tail), wl.windows, pctLabel(wl.tail))
	}
	if !rep.Trace && wl.limitMs > 0 {
		verdict := "pass"
		if rep.Info["decision_tail_ms"] > wl.limitMs {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  limit: decision p%s %.4g ms <= %g ms: %s\n", pctLabel(wl.tail), rep.Info["decision_tail_ms"], wl.limitMs, verdict)
	}
	if rep.Invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", rep.Invalid)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

func appendReport(path string, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
