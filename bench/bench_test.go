package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"rta/internal/serve"
)

// mix counts the ops of each kind and tenant.
func mix(ops []schedOp) map[schedOp]int {
	m := map[schedOp]int{}
	for _, op := range ops {
		m[op]++
	}
	return m
}

func TestScheduleIsFixed(t *testing.T) {
	ops1, dues1 := schedule(8, 1500, 4, 2*time.Second)
	ops2, dues2 := schedule(8, 1500, 4, 2*time.Second)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(dues1, dues2) {
		t.Fatal("two calls gave two different schedules")
	}
	if len(ops1) != 3000 {
		t.Fatalf("%d ops, want rate x window = 3000", len(ops1))
	}
	for i := 1; i < len(dues1); i++ {
		if dues1[i] < dues1[i-1] || dues1[i] > 2*time.Second {
			t.Fatalf("due %d = %v out of order or past the window", i, dues1[i])
		}
	}
	// The deck deals each kind round-robin over the tenants.
	m := mix(ops1)
	for tn := 0; tn < 8; tn++ {
		if q, a, p, r := m[schedOp{kind: opQuery, tenant: tn}], m[schedOp{kind: opAdmit, tenant: tn}], m[schedOp{kind: opAdmit, tenant: tn, probe: true}], m[schedOp{kind: opRemove, tenant: tn}]; q != 150 || a+p < 149 || a+p > 151 || r != 75 || p < 37 || p > 38 {
			t.Errorf("tenant %d dealt %d queries, %d admits (%d probes), %d removes; want 150, 149 to 151 (37 or 38), 75", tn, q, a+p, p, r)
		}
	}
	// A CV 4 trace at 750 ops/s over 24 seconds ends on the window's last
	// nanosecond.
	span := 24 * time.Second
	_, dues := schedule(8, 750, 4, span)
	for _, c := range []struct {
		due  time.Duration
		want int
	}{{0, 0}, {span/2 - 1, 1}, {span / 2, 2}, {span - 1, 3}, {span, 3}, {dues[len(dues)-1], 3}} {
		if got := windowOf(c.due, span, 4); got != c.want {
			t.Errorf("due %v falls in window %d of 4, want %d", c.due, got, c.want)
		}
	}
}

// outcome is one decision as the harness saw it.
type outcome struct {
	kind           opKind
	tenant, job    int
	probe, granted bool
}

// replayOutcomes seeds a small serve workload and replays ops one at a
// time through the handler, returning every decision's outcome.
func replayOutcomes(t *testing.T, s serveSpec, seed int64, ops []schedOp) ([]outcome, []*tenant) {
	t.Helper()
	pools, err := s.pools(seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Policy: s.policy})
	defer srv.Close()
	h := srv.Handler()
	tenants := newTenants(seed, pools)
	var tl tally
	s.seed(h, seed, tenants, &tl, nil)
	var out []outcome
	for _, op := range ops {
		if op.kind == opQuery {
			continue
		}
		rq := tenants[op.tenant].resolve(op)
		code, body := call(h, rq.method(), rq.path(), rq.body())
		granted, err := rq.settle(code, body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, outcome{rq.kind, op.tenant, rq.job, rq.probe, granted})
	}
	if tl.failed != 0 {
		t.Fatalf("seeding failed: %v", tl.notes)
	}
	return out, tenants
}

var testSpec = serveSpec{tenants: 3, policy: serveSmall.policy, rate: 600, cv: 4, batch: 100, history: 20}

// planOps is a run's ops in the order it sends them.
func planOps(rounds []round) []schedOp {
	var ops []schedOp
	for _, rd := range rounds {
		ops = append(append(ops, rd.open...), rd.batch...)
	}
	return ops
}

func TestPlanCutsTheSchedule(t *testing.T) {
	const window = 2 * time.Second
	ops, dues := schedule(testSpec.tenants, testSpec.rate, testSpec.cv, window)
	rounds := testSpec.plan(window, 4)
	var open []schedOp
	for k, rd := range rounds {
		if len(rd.batch) != testSpec.batch || len(rd.dues) != len(rd.open) {
			t.Fatalf("round %d: %d batch ops, %d dues for %d ops", k, len(rd.batch), len(rd.dues), len(rd.open))
		}
		if !reflect.DeepEqual(mix(rd.batch), mix(rounds[0].batch)) || k > 0 && reflect.DeepEqual(rd.batch, rounds[0].batch) {
			t.Fatalf("round %d: batch is not another order of the same deck", k)
		}
		for i, d := range rd.dues {
			if d < 0 || d > window/4 {
				t.Fatalf("round %d op %d due %v outside its segment", k, i, d)
			}
			if want := dues[len(open)+i] - window*time.Duration(k)/4; d != want {
				t.Fatalf("round %d op %d due %v, want %v", k, i, d, want)
			}
		}
		open = append(open, rd.open...)
	}
	if !reflect.DeepEqual(open, ops) {
		t.Fatal("the segments do not add up to the schedule")
	}
	if !reflect.DeepEqual(planOps(rounds), planOps(testSpec.plan(window, 4))) {
		t.Fatal("two calls gave two different plans")
	}
}

func TestDecisionSequenceRepeatsPerSeed(t *testing.T) {
	ops, _ := schedule(testSpec.tenants, testSpec.rate, testSpec.cv, 500*time.Millisecond)
	a, _ := replayOutcomes(t, testSpec, 3, ops)
	b, _ := replayOutcomes(t, testSpec, 3, ops)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different decision sequences")
	}
	if c, _ := replayOutcomes(t, testSpec, 4, ops); reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same decision sequence")
	}
	grants := 0
	for _, o := range a {
		if o.granted && o.kind == opAdmit {
			grants++
		}
		if o.probe && o.granted {
			t.Fatal("a probe was granted")
		}
	}
	if grants == 0 || grants == len(a) {
		t.Fatalf("%d of %d decisions granted admits; want a mix", grants, len(a))
	}
}

// TestOpenLoopMatchesReplay drives a run's plan, open-loop segments and
// closed-loop batches, over loopback HTTP with concurrent connections:
// per-tenant ordering must reproduce the sequential replay's decisions
// exactly.
func TestOpenLoopMatchesReplay(t *testing.T) {
	const seed = 5
	rounds := testSpec.plan(500*time.Millisecond, 2)
	want, wantTenants := replayOutcomes(t, testSpec, seed, planOps(rounds))
	pools, err := testSpec.pools(seed)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	live, err := testSpec.start("", seed, pools, nil, &tl)
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	g := &loadgen{addr: live.addr, conns: 2, tenants: live.tenants, tl: &tl}
	for _, rd := range rounds {
		g.run(time.Now(), rd.open, rd.dues)
		g.run(time.Now(), rd.batch, nil)
	}
	if tl.failed != 0 {
		t.Fatalf("open loop failed: %v", tl.notes)
	}
	grants, removes := 0, 0
	for _, o := range want {
		switch {
		case o.kind == opAdmit && o.granted:
			grants++
		case o.kind == opRemove:
			removes++
		}
	}
	if g.grants != grants || g.removes != removes {
		t.Fatalf("open loop granted %d and removed %d, replay %d and %d", g.grants, g.removes, grants, removes)
	}
	for i, tn := range live.tenants {
		if !reflect.DeepEqual(tn.admitted, wantTenants[i].admitted) {
			t.Fatalf("tenant %s holds %v over HTTP, %v in the replay", tn.id, tn.admitted, wantTenants[i].admitted)
		}
	}
	checkState(live.h, live.tenants, testSpec, &tl)
	if tl.failed != 0 {
		t.Fatalf("bounds oracle: %v", tl.notes)
	}
}

func TestPercentileSampleRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 means the percentile must be refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{100, 0.90, 90},
		{100, 0.95, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
	} {
		got, err := percentile(xs(c.n), c.q)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%s of %d samples = %v, want refused", pctLabel(c.q), c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%s of %d samples = %v, %v; want %v", pctLabel(c.q), c.n, got, err, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.5, 0.25, 1.5, 2.5, 9, 4, 3}, 0.5, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestOraclesCatchWrongAnswers(t *testing.T) {
	ops, _ := schedule(testSpec.tenants, testSpec.rate, testSpec.cv, 200*time.Millisecond)
	pools, err := testSpec.pools(9)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Policy: testSpec.policy})
	defer srv.Close()
	h := srv.Handler()
	tenants := newTenants(9, pools)
	var tl tally
	testSpec.seed(h, 9, tenants, &tl, nil)
	for _, op := range ops {
		if op.kind != opQuery {
			rq := tenants[op.tenant].resolve(op)
			code, body := call(h, rq.method(), rq.path(), rq.body())
			if _, err := rq.settle(code, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	tn := tenants[0]
	_, body := call(h, http.MethodGet, "/v1/tenants/"+tn.id+"/bounds", nil)
	if err := checkBounds(tn, testSpec.policy, body); err != nil {
		t.Fatalf("honest bounds rejected: %v", err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(body, &doc); err != nil || len(doc["jobs"]) == 0 {
		t.Fatalf("bounds body %s: %v", body, err)
	}
	doc["jobs"][0]["bound"] = doc["jobs"][0]["bound"].(float64) + 1
	tampered, _ := json.Marshal(doc)
	if err := checkBounds(tn, testSpec.policy, tampered); err == nil {
		t.Fatal("a bound off by one tick passed the oracle")
	}

	probe := request{kind: opAdmit, tenant: tn, probe: true}
	if _, err := probe.settle(http.StatusOK, []byte(`{"admitted":true,"jobs":3}`)); err == nil {
		t.Fatal("a granted probe passed the oracle")
	}
	if _, err := probe.settle(http.StatusOK, []byte(`{"admitted":false,"jobs":3}`)); err != nil {
		t.Fatalf("a denied probe failed the oracle: %v", err)
	}
}

// runs makes one correct report per value, with seeds 1, 2, … and started
// two minutes apart from the given minute on, so the runs of two calls
// offset by one minute alternate.
func runs(from int, vs ...float64) []report {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var out []report
	for i, v := range vs {
		out = append(out, report{Correct: true, Seed: int64(i + 1), Started: t0.Add(time.Duration(from+2*i) * time.Minute), Metrics: map[string]float64{"m": v}})
	}
	return out
}

// scaled is vs times f.
func scaled(f float64, vs ...float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = f * v
	}
	return out
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 100, 101, 99, 100, 100}
	// A machine that speeds up by 2.8x over the collection.
	drifting := []float64{100, 120, 140, 160, 180, 200, 220, 240, 260, 280}
	for _, c := range []struct {
		name        string
		base, other []report
		want        string
	}{
		{"same", runs(0, steady...), runs(1, 100, 102, 99, 101, 100, 100, 102, 99, 101, 100), "same"},
		{"worse", runs(0, steady...), runs(1, scaled(1.2, steady...)...), "worse"},
		{"better", runs(0, steady...), runs(1, scaled(0.8, steady...)...), "better"},
		{"wide", runs(0, steady...), runs(1, 60, 140, 100, 70, 130, 60, 140, 100, 70, 130), "unresolved"},
		{"wide, every pair better", runs(0, steady...), runs(1, 50, 90, 70, 60, 85, 50, 90, 70, 60, 85), "better"},
		{"better by the median, two pairs in ten lost", runs(0, steady...), runs(1, 80, 81, 79, 80, 80, 80, 81, 79, 100.5, 100.5), "unresolved"},
		{"worse, not alternated", runs(0, steady...), runs(20, scaled(1.2, steady...)...), "unresolved"},
		{"same, not alternated", runs(0, steady...), runs(20, 100, 102, 99, 101, 100, 100, 102, 99, 101, 100), "same"},
		{"drift cancels in pairs", runs(0, drifting...), runs(1, scaled(1.01, drifting...)...), "same"},
		{"worse under drift", runs(0, drifting...), runs(1, scaled(1.2, drifting...)...), "worse"},
		{"drift, not alternated", runs(0, drifting...), runs(20, scaled(1.01, drifting...)...), "unresolved"},
	} {
		ratio := newSide(pairRatios(c.base, c.other, "m"))
		if got := verdict(summarize(c.base, "m"), summarize(c.other, "m"), ratio, 0.1, false); got != c.want {
			t.Errorf("%s: verdict %s (%d pairs), want %s", c.name, got, len(ratio.vals), c.want)
		}
	}
}

func TestPairRatios(t *testing.T) {
	a := runs(0, 1, 1, 1, 1)
	b := func(from int, seeds ...int64) []report {
		out := runs(from, 2, 2, 2, 2)[:len(seeds)]
		for i := range out {
			out[i].Seed = seeds[i]
		}
		return out
	}
	for _, c := range []struct {
		name  string
		b     []report
		pairs int
	}{
		{"ABABABAB", b(1, 1, 2, 3, 4), 4},
		{"BABABABA", b(-1, 1, 2, 3, 4), 4},
		{"AAAABBBB", b(8, 1, 2, 3, 4), 0},
		{"AAABABBB", b(5, 1, 2, 3, 4), 0},
		{"side by side, other seeds", b(1, 3, 4, 1, 2), 0},
		{"no start time", append(b(1, 1), report{Correct: true, Seed: 2, Metrics: map[string]float64{"m": 2}}), 1},
		{"incorrect run", append(b(1, 1), report{Seed: 2, Started: a[1].Started.Add(time.Minute), Metrics: map[string]float64{"m": 2}}), 1},
	} {
		got := pairRatios(a, c.b, "m")
		if len(got) != c.pairs {
			t.Errorf("%s: %d pairs, want %d", c.name, len(got), c.pairs)
		}
		for _, r := range got {
			if r != 2 {
				t.Errorf("%s: ratio %v, want 2", c.name, r)
			}
		}
	}
}

// TestBenchmarkDefinition holds BENCHMARK.json to the names, units and
// directions the harness emits, and to the limits of the format.
func TestBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
	def, err := loadDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var runSeconds int
	if err := json.Unmarshal(top["run_seconds"], &runSeconds); err != nil || runSeconds < capacitySeconds+2 || runSeconds > 60 {
		t.Fatalf("run_seconds %s: %v", top["run_seconds"], err)
	}
	namePat := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !namePat.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitPat.MatchString(unit) {
			t.Errorf("unit %q of %s is malformed", unit, name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), harness runs %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness emits %d", len(def.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range def.EndToEnd {
		check(m.Name, m.Unit)
		if got := (metric{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: %v, harness emits %v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness emits %d", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		check(m.Name, m.Unit)
		if got := (metric{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: %v, harness emits %v", i, got, perLayer[i])
		}
	}
}
