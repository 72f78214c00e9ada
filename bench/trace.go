package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/curve"
	"rta/internal/experiments"
	"rta/internal/model"
	"rta/internal/serve"
	"rta/internal/spp"
	"rta/internal/store"
	"rta/internal/sunliu"
	"rta/internal/workload"
)

// span is one timed call the harness made into a layer. Spans of one
// workload op share Op; the op's root span has Parent -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the size the call produced where one applies: curve
	// breakpoints of an analysis result.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory; with on false it records nothing, which
// is the replay the overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	op    int32
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, count int64) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Count = count
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// layerTimes sums each span name's self time (its duration minus its
// direct children's) and collects per-call durations in microseconds.
func layerTimes(spans []span) (self map[string]float64, calls map[string][]float64) {
	self, calls = map[string]float64{}, map[string][]float64{}
	for _, s := range spans {
		self[s.Name] += s.dur()
		calls[s.Name] = append(calls[s.Name], s.dur()/1e3)
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return self, calls
}

// sumPrefix adds the values of every key starting with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	total := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// callInfo reports p50 and, where the sample supports it, p99 of every
// per-call distribution.
func (r *result) callInfo(calls map[string][]float64) {
	for name, xs := range calls {
		if p, err := percentile(xs, 0.5); err == nil {
			r.info[name+"_us.p50"] = p
		}
		if p, err := percentile(xs, 0.99); err == nil {
			r.info[name+"_us.p99"] = p
		}
		r.samples[name] = len(xs)
	}
}

// newTracedResult starts a traced run's result with every per-layer
// metric at 0, which is what a workload reports for a layer it bypasses.
func newTracedResult() *result {
	res := newResult()
	for _, m := range perLayer {
		res.metrics[m.name] = 0
	}
	return res
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// resultBreaks counts the curve breakpoints of an analysis result's
// service bounds.
func resultBreaks(res *analysis.Result) int64 {
	var n int64
	for _, hops := range res.Hops {
		for _, h := range hops {
			n += curveBreaks(h.SvcLo) + curveBreaks(h.SvcHi)
		}
	}
	if res.Exact != nil {
		n += exactBreaks(res.Exact)
	}
	return n
}

func exactBreaks(res *spp.Result) int64 {
	var n int64
	for _, row := range res.Service {
		for _, c := range row {
			n += curveBreaks(c)
		}
	}
	return n
}

func curveBreaks(c *curve.Curve) int64 {
	if c == nil {
		return 0
	}
	return int64(c.Breaks())
}

// traceMethod decides one draw with one method, calling the engine
// directly (as experiments.Admit does) so the engine gets its own span.
func traceMethod(tr *tracer, parent int32, d *workload.Draw, m experiments.Method) (bool, int64, error) {
	switch m {
	case experiments.SPPExact:
		sys := d.WithScheduler(model.SPP)
		s := tr.begin("spp.exact", parent)
		res, err := spp.AnalyzeWith(context.Background(), sys, 1, nil)
		if err != nil {
			tr.end(s, 0)
			return false, 0, err
		}
		n := exactBreaks(res)
		tr.end(s, n)
		return res.Schedulable(d.System), n, nil
	case experiments.SPNPApp, experiments.FCFSApp:
		sched, name := model.SPNP, "analysis.approx_spnp"
		if m == experiments.FCFSApp {
			sched, name = model.FCFS, "analysis.approx_fcfs"
		}
		sys := d.WithScheduler(sched)
		s := tr.begin(name, parent)
		res, err := analysis.ApproximateOpts(sys, analysis.Options{Workers: 1})
		if err != nil {
			tr.end(s, 0)
			return false, 0, err
		}
		n := resultBreaks(res)
		tr.end(s, n)
		return res.Schedulable(sys), n, nil
	case experiments.SunLiu:
		ts := d.SunLiu()
		s := tr.begin("sunliu.analyze", parent)
		res, err := sunliu.Analyze(ts)
		tr.end(s, 0)
		if err != nil {
			return false, 0, err
		}
		return res.Schedulable(ts), 0, nil
	}
	return false, 0, fmt.Errorf("unknown method %q", m)
}

// traceFigures replays the latency sample of the figures workload with a
// span around workload generation and each engine call.
func traceFigures(cfg runConfig) (*result, error) {
	res := newTracedResult()
	tl := &res.tl
	configs, err := sweep(cfg.seed, 0) // panel configurations only
	if err != nil {
		return nil, err
	}
	sample := drawSample(cfg.seed, append(configs[0], configs[1]...), latencyDrawsPerSecond*cfg.seconds)
	var walls [2]time.Duration
	var tr tracer
	var grants, denies int
	var breaks int64
	var alloc uint64
	for pass := range walls {
		runtime.GC() // both passes start from a collected heap
		tr = tracer{on: pass == 1, t0: time.Now()}
		grants, denies, breaks = 0, 0, 0
		a0 := totalAlloc()
		start := time.Now()
		for i, d := range sample {
			tl.attempted++
			tr.op = int32(i)
			root := tr.begin("draw", -1)
			g := tr.begin("workload.generate", root)
			draw, err := d.generate(cfg.seed)
			tr.end(g, 0)
			if err != nil {
				tl.fail("%s: %v", d, err)
				tr.end(root, 0)
				continue
			}
			ok := map[experiments.Method]bool{}
			for _, m := range d.methods {
				v, n, err := traceMethod(&tr, root, draw, m)
				if err != nil {
					tl.fail("%s %s: %v", d, m, err)
					continue
				}
				ok[m] = v
				breaks += n
				if v {
					grants++
				} else {
					denies++
				}
			}
			if ok[experiments.SunLiu] && !ok[experiments.SPPExact] {
				tl.fail("%s: SPP/S&L admits a draw SPP/Exact rejects", d)
			}
			tr.end(root, 0)
		}
		walls[pass] = time.Since(start)
		alloc = totalAlloc() - a0
	}
	self, calls := layerTimes(tr.spans)
	w := float64(walls[1])
	m := res.metrics
	for _, layer := range []string{"workload", "spp", "analysis", "sunliu"} {
		m[layer+".share"] = sumPrefix(self, layer+".") / w
	}
	m["experiments.share"] = 1 - (m["workload.share"] + m["spp.share"] + m["analysis.share"] + m["sunliu.share"])
	m["trace.unattributed_frac"] = m["experiments.share"]
	m["trace.overhead_frac"] = float64(walls[1])/float64(walls[0]) - 1
	m["admission.grants"] = float64(grants)
	m["admission.denies"] = float64(denies)
	m["curve.breaks_per_op"] = float64(breaks) / float64(len(sample))
	m["alloc_bytes_per_op"] = float64(alloc) / float64(len(sample))
	res.callInfo(calls)
	res.info["replay.wall_s"] = walls[1].Seconds()
	res.spans = tr.spans
	return res, nil
}

// replay is the traced serve run: the served handler in-process, plus a
// mirror controller per tenant (and, for the durable workload, a mirror
// store) fed the same decisions, so the admission and store layers get
// their own spans.
type replay struct {
	s       serveSpec
	srv     *serve.Server
	h       http.Handler
	st      *store.Store
	tenants []*tenant
	ctls    []*admission.Controller
	mst     *store.Store
	mfs     *countingFS
	tl      *tally

	decisions, committed, grants, denies, colds int
	breaks                                      int64
	recover                                     time.Duration
}

// decided feeds a seeded-history decision to the tenant's mirror.
func (r *replay) decided(rq request, committed bool) {
	ctl := r.ctls[rq.tenant.idx]
	var ok bool
	var err error
	switch rq.kind {
	case opAdmit:
		ok, err = ctl.Request(rq.candidate())
	case opRemove:
		ok, err = ctl.RemoveErr(rq.tenant.pool.jobs[rq.job].Name)
	}
	if err != nil || ok != committed {
		r.tl.fail("mirror %s %s: committed=%v err=%v, server committed=%v", rq.kind, rq.tenant.id, ok, err, committed)
	}
}

// candidate is the model job an admit offers.
func (rq request) candidate() model.Job {
	j := rq.tenant.pool.jobs[rq.job]
	if rq.probe {
		j.Name, j.Deadline = "probe", 1
	}
	return j
}

// trial is the system a decision analyzes: the admitted jobs with the
// candidate added, or with the removed job taken out.
func (rq request) trial(policy admission.PriorityPolicy) *model.System {
	tn := rq.tenant
	var jobs []model.Job
	for i, k := range tn.admitted {
		if rq.kind != opRemove || i != rq.tried {
			jobs = append(jobs, tn.pool.jobs[k])
		}
	}
	if rq.kind == opAdmit {
		jobs = append(jobs, rq.candidate())
	}
	return buildSystem(tn.pool.procs, jobs, policy)
}

// newReplay builds the traced run's starting state, identical to the
// untraced run's after set-up.
func (s serveSpec) newReplay(cfg runConfig, pools []*pool, pass int, tl *tally) (*replay, error) {
	r := &replay{s: s, tl: tl, tenants: newTenants(cfg.seed, pools)}
	for _, tn := range r.tenants {
		ctl, err := admission.NewWithOptions(tn.pool.procs, s.policy, analysis.Options{})
		if err != nil {
			return nil, err
		}
		r.ctls = append(r.ctls, ctl)
	}
	if !s.durable {
		r.srv = serve.New(serve.Config{Policy: s.policy})
		r.h = r.srv.Handler()
		s.seed(r.h, cfg.seed, r.tenants, tl, r.decided)
		return r, nil
	}
	// The durable replay recovers the same pre-built log the untraced run
	// does; the mirror store starts from a second, identical build.
	dir := filepath.Join(cfg.tmp, fmt.Sprintf("state-%d", pass))
	mdir := filepath.Join(cfg.tmp, fmt.Sprintf("mirror-%d", pass))
	if err := s.prebuild(dir, cfg.seed, r.tenants, tl, r.decided); err != nil {
		return nil, err
	}
	if err := s.prebuild(mdir, cfg.seed, newTenants(cfg.seed, pools), &tally{}, nil); err != nil {
		return nil, err
	}
	var err error
	t0 := time.Now()
	if r.srv, r.st, _, err = s.openServer(dir, cfg.seed, pools, r.tenants, tl); err != nil {
		return nil, err
	}
	r.recover = time.Since(t0)
	r.h = r.srv.Handler()
	r.mfs = &countingFS{}
	r.mst, err = store.Open(store.Config{Dir: mdir, Fsync: true, FS: r.mfs})
	return r, err
}

func (r *replay) close() error {
	r.srv.Close()
	var err error
	for _, st := range []*store.Store{r.st, r.mst} {
		if st != nil {
			err = errors.Join(err, st.Close())
		}
	}
	return err
}

// step replays one op: the served handler, then the mirror controller,
// the mirror store when the decision committed, and every coldEvery-th
// decision a cold analysis of its trial system.
func (r *replay) step(tr *tracer, op schedOp) {
	tn := r.tenants[op.tenant]
	ctl := r.ctls[op.tenant]
	rq := request{kind: opQuery, tenant: tn}
	if op.kind != opQuery {
		rq = tn.resolve(op)
		r.decisions++
	}
	var trial *model.System
	if rq.kind != opQuery && r.decisions%coldEvery == 0 {
		if trial = rq.trial(r.s.policy); len(trial.Jobs) == 0 {
			trial = nil // removing the last job leaves nothing to analyze
		}
	}
	root := tr.begin("op", -1)
	req := handlerRequest(rq.method(), rq.path(), rq.body())
	w := httptest.NewRecorder()
	sv := tr.begin("serve."+rq.kind.String(), root)
	r.h.ServeHTTP(w, req)
	tr.end(sv, 0)
	r.tl.attempted++
	var committed, mirrored bool
	var err error
	if rq.kind != opQuery { // a query's reply is checked against the mirror below
		if committed, err = rq.settle(w.Code, w.Body.Bytes()); err != nil {
			r.tl.fail("%v", err)
		}
	}
	switch rq.kind {
	case opAdmit:
		a := tr.begin("admission.request", root)
		mirrored, err = ctl.RequestOpts(rq.candidate(), analysis.Options{})
		tr.end(a, 0)
		if committed {
			r.grants++
		} else {
			r.denies++
		}
	case opRemove:
		a := tr.begin("admission.remove", root)
		mirrored, err = ctl.RemoveOpts(tn.pool.jobs[rq.job].Name, analysis.Options{})
		tr.end(a, 0)
	case opQuery:
		a := tr.begin("admission.bounds", root)
		names, bounds, berr := ctl.NamedBounds()
		tr.end(a, 0)
		switch {
		case berr != nil:
			err = berr
		case w.Code != http.StatusOK:
			err = fmt.Errorf("status %d: %.200s", w.Code, w.Body.Bytes())
		default:
			err = sameBounds(w.Body.Bytes(), names, bounds)
		}
	}
	if err != nil || mirrored != committed {
		r.tl.fail("mirror %s %s: committed=%v err=%v, server committed=%v", rq.kind, tn.id, mirrored, err, committed)
	}
	if r.mst != nil && committed {
		r.committed++
		r.logMirror(tr, root, rq, ctl)
	}
	if trial != nil {
		c := tr.begin("analysis.cold", root)
		res, err := analysis.AnalyzeOpts(trial, analysis.Options{})
		if err != nil {
			tr.end(c, 0)
			r.tl.fail("cold analysis %s: %v", tn.id, err)
		} else {
			n := resultBreaks(res)
			tr.end(c, n)
			r.breaks += n
			r.colds++
		}
	}
	tr.end(root, 0)
}

// logMirror appends a committed decision to the mirror store as the
// server logs it, snapshotting when the store says one is due.
func (r *replay) logMirror(tr *tracer, root int32, rq request, ctl *admission.Controller) {
	op := store.Op{Kind: store.OpRemove, Name: rq.tenant.pool.jobs[rq.job].Name}
	if rq.kind == opAdmit {
		op = store.Op{Kind: store.OpAdmit, Job: rq.tenant.pool.bodies[rq.job]}
	}
	if r.s.policy != admission.KeepPriorities {
		op.Pri = ctl.Priorities()
	}
	a := tr.begin("store.append", root)
	due, err := r.mst.Append(rq.tenant.id, op)
	tr.end(a, 0)
	if err != nil {
		r.tl.fail("mirror store append %s: %v", rq.tenant.id, err)
		return
	}
	if !due {
		return
	}
	jobs := []json.RawMessage{}
	sys := ctl.System()
	if sys == nil {
		sys = &model.System{}
	}
	for _, j := range sys.Jobs {
		b, err := json.Marshal(j)
		if err != nil {
			r.tl.fail("mirror snapshot %s: %v", rq.tenant.id, err)
			return
		}
		jobs = append(jobs, b)
	}
	sn := tr.begin("store.snapshot", root)
	err = r.mst.WriteSnapshot(rq.tenant.id, rq.tenant.pool.spec, jobs)
	tr.end(sn, 0)
	if err != nil {
		r.tl.fail("mirror snapshot %s: %v", rq.tenant.id, err)
	}
}

// sameBounds checks a served /bounds body against the mirror's.
func sameBounds(body []byte, names []string, bounds []model.Ticks) error {
	var doc boundsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if len(doc.Jobs) != len(names) {
		return fmt.Errorf("served %d bounds, mirror holds %d", len(doc.Jobs), len(names))
	}
	for k, jb := range doc.Jobs {
		if jb.Name != names[k] || jb.Bound != bounds[k] {
			return fmt.Errorf("served %s=%d, mirror %s=%d", jb.Name, jb.Bound, names[k], bounds[k])
		}
	}
	return nil
}

func (s serveSpec) trace(cfg runConfig) (*result, error) {
	res := newTracedResult()
	tl := &res.tl
	pools, err := s.pools(cfg.seed)
	if err != nil {
		return nil, err
	}
	// The untraced run's ops in the order it sends them: each round's
	// open-loop segment, then its closed-loop batch.
	var ops []schedOp
	for _, rd := range s.plan(time.Duration(cfg.seconds-capacitySeconds)*time.Second, cfg.windows) {
		ops = append(append(ops, rd.open...), rd.batch...)
	}
	var walls [2]time.Duration
	var tr tracer
	var r *replay
	var alloc uint64
	for pass := range walls {
		if r, err = s.newReplay(cfg, pools, pass, tl); err != nil {
			return nil, err
		}
		runtime.GC() // both passes start from a collected heap
		tr = tracer{on: pass == 1, t0: time.Now()}
		a0 := totalAlloc()
		start := time.Now()
		for i, op := range ops {
			tr.op = int32(i)
			r.step(&tr, op)
		}
		walls[pass] = time.Since(start)
		alloc = totalAlloc() - a0
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	self, calls := layerTimes(tr.spans)
	sv, adm, st, cold := sumPrefix(self, "serve."), sumPrefix(self, "admission."), sumPrefix(self, "store."), self["analysis.cold"]
	// The served op runs admission and, when durable, the store inside
	// the handler; the mirrors time those same calls on their own.
	m := res.metrics
	m["serve.share"] = (sv - adm - st) / sv
	m["admission.share"] = adm / sv
	m["store.share"] = st / sv
	m["trace.unattributed_frac"] = 1 - (sv+adm+st+cold)/float64(walls[1])
	m["trace.overhead_frac"] = float64(walls[1])/float64(walls[0]) - 1
	m["admission.grants"] = float64(r.grants)
	m["admission.denies"] = float64(r.denies)
	m["analysis.warm_speedup"] = median(calls["analysis.cold"]) / median(calls["admission.request"])
	m["curve.breaks_per_op"] = float64(r.breaks) / float64(max(r.colds, 1))
	if r.mfs != nil {
		m["store.bytes_per_decision"] = float64(r.mfs.written) / float64(max(r.committed, 1))
	}
	m["store.snapshots"] = float64(len(calls["store.snapshot"]))
	m["alloc_bytes_per_op"] = float64(alloc) / float64(len(ops))
	res.callInfo(calls)
	res.callInfo(map[string][]float64{"serve.self": serveSelf(tr.spans)})
	res.info["replay.wall_s"] = walls[1].Seconds()
	if s.durable {
		res.info["store.recover_s"] = r.recover.Seconds()
	}
	res.spans = tr.spans
	return res, nil
}

// serveSelf is, per served op, the handler's time minus the mirror
// admission and store time of the same op: decode, validate, encode,
// shard lookup and histogram, in microseconds.
func serveSelf(spans []span) []float64 {
	byOp := map[int32]float64{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "serve."):
			byOp[s.Op] += s.dur()
		case strings.HasPrefix(s.Name, "admission."), strings.HasPrefix(s.Name, "store."):
			byOp[s.Op] -= s.dur()
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v/1e3)
	}
	sort.Float64s(out)
	return out
}

// countingFS is the operating system's filesystem with a count of the
// bytes written through it, for the mirror store's bytes per decision.
type countingFS struct{ written int64 }

type countingFile struct {
	*os.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}

func (c *countingFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (c *countingFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (c *countingFS) Remove(path string) error             { return os.Remove(path) }
func (c *countingFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (c *countingFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

func (c *countingFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (c *countingFS) IsDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
