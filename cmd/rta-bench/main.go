// Command rta-bench runs the tracked large-system benchmarks and writes
// the results as machine-readable JSON, so performance numbers land in
// version control in a diffable form instead of scrollback.
//
// Usage:
//
//	rta-bench [-out BENCH_PR10.json] [-benchtime 1s]
//	rta-bench -check BENCH_PR10.json [-tolerance 0.10] [-churn-speedup 5]
//	rta-bench -cpuprofile cpu.out -memprofile mem.out
//
// With -check, instead of writing a report the command reruns the
// benchmarks named in the given baseline file and exits non-zero if any
// regresses by more than -tolerance in ns/op or allocs/op, or if the
// warm admission-churn benchmark is less than -churn-speedup times
// faster than its cold-recompute twin. CI uses this to gate merges
// against the committed baseline.
//
// -cpuprofile and -memprofile write pprof profiles covering the measured
// benchmark iterations; see DESIGN.md section 9 for how to read them.
//
// Each Large benchmark analyzes the deterministic 50x8 job shop of
// internal/benchsys with one of the engines: the Theorem 4 pipeline per
// scheduler (serial and with a 4- and 8-worker level pool), the exact
// all-SPP analysis, and the iterative engine (on this acyclic system the
// Theorem 4 sweep plus its step accounting). The AdmissionChurn pair runs one
// remove/re-admit/reject cycle against the full admitted job shop per
// op: Warm through the session-backed admission controller, Cold
// through a reference that re-analyzes the whole trial system per
// decision the way the pre-session controller did. ServeDecisionChurn
// runs the same warm churn cycle through the rta-serve HTTP handler
// in-process, so the serving layer's overhead on top of the controller
// is a tracked number; StoreDecisionChurn is its WAL-backed twin (every
// committed decision logged to a durable store before the response), so
// the durability tax per decision is tracked too.
//
// The report also carries a "serve" section: the self-contained
// rta-serve load test (internal/serve.RunLocalLoad) run for both
// overload policies under seeded bursty traffic, recording decision
// p50/p99, throughput, and shed rate. In -check mode the section is
// re-run and gated on shape — non-zero admissions and zero errored
// requests per policy — while the latency columns stay informational:
// wall-clock quantiles under a traffic generator are too machine-bound
// to diff across hosts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/benchsys"
	"rta/internal/cli"
	"rta/internal/model"
	"rta/internal/serve"
	"rta/internal/store"
)

// Measurement is one benchmark result in the output file.
type Measurement struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the schema of the output file.
type Report struct {
	GOOS     string        `json:"goos"`
	GOARCH   string        `json:"goarch"`
	CPUs     int           `json:"cpus"`
	System   string        `json:"system"`
	Results  []Measurement `json:"results"`
	Workload struct {
		Jobs      int `json:"jobs"`
		Hops      int `json:"hops"`
		Instances int `json:"instances"`
	} `json:"workload"`
	// Serve is the rta-serve load-test section: one result per overload
	// policy under identical seeded traffic.
	Serve *ServeSection `json:"serve,omitempty"`
}

// ServeSection mirrors the rta-serve -loadtest report.
type ServeSection struct {
	Config  serve.LoadConfig    `json:"config"`
	Results []*serve.LoadResult `json:"results"`
}

func main() { cli.Main("rta-bench", body) }

func body() error {
	out := flag.String("out", "BENCH_PR10.json", "output file")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
	check := flag.String("check", "", "baseline report to gate against instead of writing a report")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression in -check mode")
	churnSpeedup := flag.Float64("churn-speedup", 5.0, "minimum AdmissionChurn cold/warm ns-per-op ratio in -check mode")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the benchmark runs to this file")
	flag.Parse()

	runSys := func(sys *model.System, f func(*model.System) error) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(sys); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run := func(sched model.Scheduler, f func(*model.System) error) func(*testing.B) {
		return runSys(benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, sched), f)
	}
	// The fork-join twin of the job shop: same subjobs, processors, and
	// traces with the chains folded into diamond DAGs, so the delta
	// against LargeApproximateSPNP prices the DAG bookkeeping itself.
	runForkJoin := func(sched model.Scheduler, f func(*model.System) error) func(*testing.B) {
		return runSys(benchsys.LargeForkJoin(benchsys.Jobs, benchsys.Hops, benchsys.Instances, sched), f)
	}
	approx := func(workers int) func(*model.System) error {
		return func(sys *model.System) error {
			_, err := analysis.ApproximateOpts(sys, analysis.Options{Workers: workers})
			return err
		}
	}
	exact := func(workers int) func(*model.System) error {
		return func(sys *model.System) error {
			_, err := analysis.ExactOpts(sys, analysis.Options{Workers: workers})
			return err
		}
	}
	iterative := func(sys *model.System) error {
		_, err := analysis.Iterative(sys, 0)
		return err
	}

	// churnSetup names the workload's jobs (the admission controller keys
	// on names) and derives the two churned requests: the last admitted
	// job, cycled out and back in, and an unschedulable probe that must
	// be rejected.
	churnSetup := func() (*model.System, model.Job, model.Job) {
		sys := benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
		for k := range sys.Jobs {
			sys.Jobs[k].Name = fmt.Sprintf("J%02d", k)
		}
		last := sys.Jobs[len(sys.Jobs)-1]
		probe := last
		probe.Name = "probe"
		probe.Deadline = 1
		return sys, last, probe
	}
	churnWarm := func(b *testing.B) {
		sys, last, probe := churnSetup()
		ctl, err := admission.NewWithOptions(sys.Procs, admission.KeepPriorities, analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range sys.Jobs {
			if ok, err := ctl.Request(j); err != nil || !ok {
				b.Fatalf("seed admit %s: ok=%v err=%v", j.Name, ok, err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !ctl.Remove(last.Name) {
				b.Fatal("Remove failed")
			}
			if ok, err := ctl.Request(last); err != nil || !ok {
				b.Fatalf("re-admit: ok=%v err=%v", ok, err)
			}
			if ok, err := ctl.Request(probe); err != nil || ok {
				b.Fatalf("probe: ok=%v err=%v (want rejection)", ok, err)
			}
		}
	}
	churnCold := func(b *testing.B) {
		sys, last, probe := churnSetup()
		request := func(jobs []model.Job, j model.Job) (bool, error) {
			trial := &model.System{
				Procs: sys.Procs,
				Jobs:  append(append([]model.Job(nil), jobs...), j),
			}
			res, err := analysis.AnalyzeOpts(trial, analysis.Options{})
			if err != nil {
				return false, err
			}
			return res.Schedulable(trial), nil
		}
		cut := sys.Jobs[:len(sys.Jobs)-1]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Removal is a plain slice cut (no analysis) in the cold
			// reference too; the per-decision cost is the two full
			// re-analyses of the 50-job trial systems.
			if ok, err := request(cut, last); err != nil || !ok {
				b.Fatalf("re-admit: ok=%v err=%v", ok, err)
			}
			if ok, err := request(sys.Jobs, probe); err != nil || ok {
				b.Fatalf("probe: ok=%v err=%v (want rejection)", ok, err)
			}
		}
	}

	// serveChurnWith is churnWarm through the rta-serve HTTP handler,
	// in-process (httptest recorders, no sockets): per op one removal, one
	// re-admission, and one rejected probe, each a full JSON round trip
	// through the mux, the shard map, and the decision histogram. A
	// non-nil store adds the durability tax: every committed decision is
	// appended to the WAL (and periodically snapshotted) before its
	// response, so the delta against the storeless twin prices the log.
	serveChurnWith := func(b *testing.B, st *store.Store) {
		sys, last, probe := churnSetup()
		s := serve.New(serve.Config{Policy: admission.KeepPriorities, Store: st})
		defer s.Close()
		h := s.Handler()
		call := func(method, path string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}
		spec, err := json.Marshal(&model.System{Procs: sys.Procs})
		if err != nil {
			b.Fatal(err)
		}
		if w := call(http.MethodPut, "/v1/tenants/bench", spec); w.Code != http.StatusCreated {
			b.Fatalf("create tenant: status %d: %s", w.Code, w.Body)
		}
		admit := func(j model.Job, want bool) {
			raw, err := json.Marshal(j)
			if err != nil {
				b.Fatal(err)
			}
			w := call(http.MethodPost, "/v1/tenants/bench/admit", raw)
			var resp struct {
				Admitted bool `json:"admitted"`
			}
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
				b.Fatalf("admit %s: status %d: %s", j.Name, w.Code, w.Body)
			}
			if resp.Admitted != want {
				b.Fatalf("admit %s: admitted=%v, want %v", j.Name, resp.Admitted, want)
			}
		}
		for _, j := range sys.Jobs {
			admit(j, true)
		}
		rm := []byte(fmt.Sprintf(`{"name":%q}`, last.Name))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if w := call(http.MethodPost, "/v1/tenants/bench/remove", rm); w.Code != http.StatusOK {
				b.Fatalf("remove: status %d: %s", w.Code, w.Body)
			}
			admit(last, true)
			admit(probe, false)
		}
	}
	serveChurn := func(b *testing.B) { serveChurnWith(b, nil) }
	storeChurn := func(b *testing.B) {
		dir, err := os.MkdirTemp("", "rta-bench-store")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		serveChurnWith(b, st)
	}

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"LargeApproximateSPNP", run(model.SPNP, approx(1))},
		{"LargeApproximateSPNP4Workers", run(model.SPNP, approx(4))},
		{"LargeApproximateSPNP8Workers", run(model.SPNP, approx(8))},
		{"LargeApproximateFCFS", run(model.FCFS, approx(1))},
		{"LargeApproximateFCFS4Workers", run(model.FCFS, approx(4))},
		{"LargeApproximateFCFS8Workers", run(model.FCFS, approx(8))},
		{"LargeApproximateSPP", run(model.SPP, approx(1))},
		{"ForkJoinApproximate", runForkJoin(model.SPNP, approx(1))},
		{"LargeExactSPP", run(model.SPP, exact(1))},
		{"LargeExactSPP4Workers", run(model.SPP, exact(4))},
		{"LargeIterative", run(model.SPNP, iterative)},
		{"AdmissionChurnWarm", churnWarm},
		{"AdmissionChurnCold", churnCold},
		{"ServeDecisionChurn", serveChurn},
		{"StoreDecisionChurn", storeChurn},
	}

	// In -check mode, only the benchmarks named in the baseline are rerun.
	var baseline map[string]Measurement
	baseServe := false
	if *check != "" {
		var err error
		if baseline, baseServe, err = loadBaseline(*check); err != nil {
			return err
		}
	}

	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}

	var rep Report
	rep.GOOS = runtime.GOOS
	rep.GOARCH = runtime.GOARCH
	rep.CPUs = runtime.NumCPU()
	rep.System = "benchsys.Large"
	rep.Workload.Jobs = benchsys.Jobs
	rep.Workload.Hops = benchsys.Hops
	rep.Workload.Instances = benchsys.Instances

	for _, bm := range benches {
		if baseline != nil {
			if _, ok := baseline[bm.name]; !ok {
				continue
			}
		}
		// testing.Benchmark grows N until the run takes -test.benchtime
		// (1s unless overridden); repeat whole runs until the requested
		// minimum measuring time is accumulated and keep the fastest
		// ns/op seen. Scheduling noise is one-sided — a run can only be
		// slower than the code's true cost — so min-of-runs is the
		// stable statistic to commit and to gate on. In -check mode at
		// least three runs are taken so a single noisy run cannot fail
		// the gate.
		res := testing.Benchmark(bm.fn)
		best := float64(res.T.Nanoseconds()) / float64(res.N)
		minRuns := 1
		if baseline != nil {
			minRuns = 3
		}
		total := res.T
		for runs := 1; total < *benchtime || runs < minRuns; runs++ {
			again := testing.Benchmark(bm.fn)
			total += again.T
			if ns := float64(again.T.Nanoseconds()) / float64(again.N); ns < best {
				best = ns
			}
			if again.N > res.N {
				res = again
			}
		}
		m := Measurement{
			Name:        bm.name,
			Iterations:  res.N,
			NsPerOp:     best,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, m)
		fmt.Printf("%-32s %12.0f ns/op %10d B/op %8d allocs/op\n",
			bm.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Println("wrote", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // flush recently freed objects so the profile shows live + cumulative allocs accurately
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		f.Close()
		fmt.Println("wrote", *memprofile)
	}

	// The serve load-test section: run for the committed report, and
	// re-run in -check mode when the baseline carries one.
	if *check == "" || baseServe {
		sec, err := runServeSection()
		if err != nil {
			return err
		}
		rep.Serve = sec
	}

	if baseline != nil {
		err := compare(baseline, rep.Results, *tolerance, *churnSpeedup)
		if serr := gateServe(rep.Serve); serr != nil {
			if err != nil {
				return fmt.Errorf("%v; %v", err, serr)
			}
			return serr
		}
		return err
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// loadBaseline reads a committed report, indexes it by benchmark name,
// and reports whether it carries a serve load-test section.
func loadBaseline(path string) (map[string]Measurement, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, false, fmt.Errorf("%s: no results to gate against", path)
	}
	m := make(map[string]Measurement, len(rep.Results))
	for _, r := range rep.Results {
		m[r.Name] = r
	}
	return m, rep.Serve != nil, nil
}

// runServeSection runs the self-contained rta-serve load test for both
// overload policies under the committed DefaultLoad traffic.
func runServeSection() (*ServeSection, error) {
	lcfg := serve.DefaultLoad
	sec := &ServeSection{Config: lcfg}
	for _, ov := range []serve.Overload{
		serve.AlwaysAdmit{},
		serve.NewTokenBucket(64, 200),
	} {
		res, err := serve.RunLocalLoad(context.Background(), serve.Config{
			Policy:   admission.DeadlineMonotonic,
			Overload: ov,
		}, lcfg)
		if err != nil {
			return nil, err
		}
		sec.Results = append(sec.Results, res)
		fmt.Printf("%-32s p50 %7.3f ms  p99 %7.3f ms  %7.0f req/s  shed %4.1f%%\n",
			"Serve/"+res.Policy, res.DecisionP50Ms, res.DecisionP99Ms, res.Throughput, res.ShedRate*100)
	}
	return sec, nil
}

// gateServe checks the shape of a freshly run serve section: every
// policy must have granted admissions and served without errors. The
// latency and throughput columns are informational — wall-clock numbers
// under a traffic generator do not diff across hosts the way the
// minimum-of-runs micro-benchmarks do.
func gateServe(sec *ServeSection) error {
	if sec == nil {
		return nil
	}
	var bad []string
	for _, r := range sec.Results {
		if r.Admits == 0 {
			bad = append(bad, fmt.Sprintf("serve %s: no admissions granted", r.Policy))
		}
		if r.Errors > 0 {
			bad = append(bad, fmt.Sprintf("serve %s: %d errored requests (samples %v)", r.Policy, r.Errors, r.ErrorSamples))
		}
	}
	if len(bad) != 0 {
		return fmt.Errorf("serve gate failed: %v", bad)
	}
	fmt.Println("serve gate passed")
	return nil
}

// compare fails if any measured benchmark regresses past the tolerance in
// ns/op or allocs/op relative to the baseline, or if the warm admission
// churn loses its required speedup over the cold-recompute reference. A
// baseline entry that was not rerun (renamed or deleted benchmark) is
// also an error: a silent skip would gate nothing.
func compare(baseline map[string]Measurement, got []Measurement, tolerance, churnSpeedup float64) error {
	measured := make(map[string]bool, len(got))
	var bad []string
	var churnWarm, churnCold *Measurement
	for i, m := range got {
		measured[m.Name] = true
		switch m.Name {
		case "AdmissionChurnWarm":
			churnWarm = &got[i]
		case "AdmissionChurnCold":
			churnCold = &got[i]
		}
		base := baseline[m.Name]
		nsRatio := m.NsPerOp / base.NsPerOp
		allocRatio := float64(m.AllocsPerOp) / float64(base.AllocsPerOp)
		status := "ok"
		if nsRatio > 1+tolerance || allocRatio > 1+tolerance {
			status = "REGRESSION"
			bad = append(bad, m.Name)
		}
		fmt.Printf("%-32s ns/op %6.2fx  allocs/op %6.2fx  %s\n",
			m.Name, nsRatio, allocRatio, status)
	}
	for name := range baseline {
		if !measured[name] {
			bad = append(bad, name+" (in baseline but not measured)")
		}
	}
	// The warm-session headline is gated on the freshly measured pair so
	// it cannot decay silently while both twins drift in lockstep.
	if churnWarm != nil && churnCold != nil {
		ratio := churnCold.NsPerOp / churnWarm.NsPerOp
		status := "ok"
		if ratio < churnSpeedup {
			status = "TOO SLOW"
			bad = append(bad, fmt.Sprintf("AdmissionChurnWarm speedup %.1fx < required %.1fx", ratio, churnSpeedup))
		}
		fmt.Printf("%-32s warm speedup %5.1fx (need %.1fx)  %s\n", "AdmissionChurn", ratio, churnSpeedup, status)
	}
	if len(bad) != 0 {
		return fmt.Errorf("benchmark gate failed (tolerance %.0f%%): %v", tolerance*100, bad)
	}
	fmt.Printf("benchmark gate passed (tolerance %.0f%%)\n", tolerance*100)
	return nil
}
