package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/stats"
	"rta/internal/store"
	"rta/internal/workload"
)

// serveSpec is one rta-serve traffic mix.
type serveSpec struct {
	// tenants is the number of shards; tenant t owns pool(seed, t).
	tenants int
	// large selects the 50x8 benchsys job shop as the single tenant's pool
	// instead of per-tenant workload.Generate draws.
	large  bool
	policy admission.PriorityPolicy
	// durable puts a store (Fsync on) under the server; set-up is then the
	// restart that recovers the pre-built log.
	durable bool
	// rate is the open-loop arrival rate, in ops/s over all tenants, and
	// cv the coefficient of variation of the Gamma interarrival gaps.
	rate, cv float64
	// batch is the number of ops in each closed-loop batch, sized so the
	// batches of a run take about capacitySeconds on the reference machine.
	batch int
	// history is the number of seeded churn decisions per tenant applied
	// during set-up, after every pool job was offered once in order.
	history int
}

const (
	// capacitySeconds is the part of --seconds left to the closed-loop
	// batches; the open loop gets the rest.
	capacitySeconds = 6
	// A batch of set-ups runs at least minSetupReps times and until
	// setupBudget has been spent on it (at most maxSetupReps).
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
	// coldEvery: the traced run analyzes every coldEvery-th decision's
	// trial system cold, to price the warm session against it.
	coldEvery = 10
	// lookahead bounds how far the closed loop may run ahead of the oldest
	// unsent op, so cheap queries cannot overtake blocked decisions and
	// skew the measured mix.
	lookahead = 4
)

var (
	serveLarge   = serveSpec{tenants: 1, large: true, policy: admission.KeepPriorities, rate: 25, cv: 1, batch: 180}
	serveSmall   = serveSpec{tenants: 8, policy: admission.DeadlineMonotonic, rate: 250, cv: 2, batch: 5000, history: 200}
	serveDurable = serveSpec{tenants: 8, policy: admission.DeadlineMonotonic, rate: 250, cv: 2, batch: 4000, history: 200, durable: true}
)

// Random streams. The run's plan (arrival trace, op decks) derives from
// (traceSeed, stream); every other input from (seed, stream).
const (
	traceSeed      = 1
	streamGaps     = 1
	streamOps      = 2
	streamCapacity = 10  // + window
	streamPool     = 100 // + tenant
	streamChoice   = 200 // + tenant
	streamHistory  = 300 // + tenant
)

type opKind uint8

const (
	opAdmit opKind = iota
	opRemove
	opQuery
)

func (k opKind) String() string { return [...]string{"admit", "remove", "bounds"}[k] }

// schedOp is one scheduled operation: what, against which tenant. Which
// job an admit or remove names is decided when the op is sent, from the
// tenant's state and its own random stream, in the tenant's due order.
type schedOp struct {
	kind   opKind
	tenant int
	probe  bool
}

// The op mix: 40% admit (a quarter of them tight-deadline probes that must
// be denied), 20% remove, 40% query. opStream draws it at random, for the
// seeded churn history; deck deals it in exact proportions, for the run.
type opStream struct {
	rng     *rand.Rand
	tenants int
}

func (s *opStream) next() schedOp {
	op := schedOp{tenant: s.rng.Intn(s.tenants)}
	switch p := s.rng.Float64(); {
	case p < 0.4:
		op.kind = opAdmit
		op.probe = s.rng.Float64() < 0.25
	case p < 0.6:
		op.kind = opRemove
	default:
		op.kind = opQuery
	}
	return op
}

// deck returns n ops of the mix in exact proportions, each kind dealt
// round-robin over the tenants, in an order shuffled by rng.
func deck(n, tenants int, rng *rand.Rand) []schedOp {
	admits := int(math.Round(0.4 * float64(n)))
	probes := int(math.Round(0.25 * float64(admits)))
	removes := int(math.Round(0.2 * float64(n)))
	ops := make([]schedOp, n)
	for i := range ops {
		switch {
		case i < probes:
			ops[i] = schedOp{kind: opAdmit, probe: true, tenant: i % tenants}
		case i < admits:
			ops[i] = schedOp{kind: opAdmit, tenant: (i - probes) % tenants}
		case i < admits+removes:
			ops[i] = schedOp{kind: opRemove, tenant: (i - admits) % tenants}
		default:
			ops[i] = schedOp{kind: opQuery, tenant: (i - admits - removes) % tenants}
		}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// schedule returns the open-loop ops of one run and their due times, both
// fixed per workload: drawn from streams no seed touches. The due times
// are a Gamma(cv) renewal process, rescaled so that exactly rate x window
// ops fall in the window; the ops are a shuffled deck. Every seed thus
// meets the same bursts, with the same kind and tenant at each arrival;
// seeds differ in the tenants' job shops and in which job each decision
// names. Drawing the mix at random moved the number of decisions by
// several percent between seeds. A deck shuffled per seed moved
// serve-large's median decision latency from 17-18 ms (seed 6) to 23 ms
// (seed 5) in both of two sets of runs, while in-process the decisions of
// both seeds took 16.4 ms at the median: on one tenant, which decisions
// arrive close together sets how long they queue for its lock.
func schedule(tenants int, rate, cv float64, window time.Duration) ([]schedOp, []time.Duration) {
	n := int(rate * window.Seconds())
	gr := stats.NewRand(traceSeed, streamGaps)
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = workload.GammaInterarrival(gr, 1/rate, cv)
		total += gaps[i]
	}
	dues := make([]time.Duration, n)
	at := 0.0
	for i := range dues {
		at += gaps[i]
		dues[i] = time.Duration(at / total * float64(window))
	}
	return deck(n, tenants, stats.NewRand(traceSeed, streamOps)), dues
}

// windowOf is the index of the window, of n equal ones over span, that a
// due time falls in. A due time can round up to the end of span: the
// Gamma gaps of a bursty schedule can be too small to move a float64 sum.
func windowOf(due, span time.Duration, n int) int {
	return min(int(int64(due)*int64(n)/int64(span)), n-1)
}

// round is one stretch of a serve run: a segment of the open-loop
// schedule, with due times counted from the segment's start, then a
// closed-loop batch.
type round struct {
	open  []schedOp
	dues  []time.Duration
	batch []schedOp
}

// plan cuts the open-loop schedule of one run into n segments of equal
// due time and puts a closed-loop batch after each: a deck of s.batch ops,
// fixed per workload like the schedule. Spreading the capacity measurement
// over the run, instead of one phase at its end, makes it sample the
// machine at the same moments as the latencies. The batches hold a fixed
// number of ops, not a fixed time, so each tenant's decision sequence,
// batches included, is the same for a seed however fast the machine runs.
func (s serveSpec) plan(window time.Duration, n int) []round {
	ops, dues := schedule(s.tenants, s.rate, s.cv, window)
	rounds := make([]round, n)
	lo := 0
	for k := range rounds {
		hi := lo
		for hi < len(ops) && windowOf(dues[hi], window, n) == k {
			hi++
		}
		r := &rounds[k]
		r.open = ops[lo:hi]
		for _, d := range dues[lo:hi] {
			r.dues = append(r.dues, d-window*time.Duration(k)/time.Duration(n))
		}
		r.batch = deck(s.batch, s.tenants, stats.NewRand(traceSeed, streamCapacity+int64(k)))
		lo = hi
	}
	return rounds
}

// pool is one tenant's processors and the jobs its traffic admits and
// removes, pre-encoded so the harness spends little time per request.
type pool struct {
	spec   []byte
	procs  []model.Processor
	jobs   []model.Job
	bodies [][]byte
	probes [][]byte
}

func newPool(sys *model.System, prefix string) (*pool, error) {
	p := &pool{procs: sys.Procs, jobs: sys.Jobs}
	var err error
	if p.spec, err = json.Marshal(&model.System{Procs: sys.Procs}); err != nil {
		return nil, err
	}
	for k := range p.jobs {
		p.jobs[k].Name = fmt.Sprintf("%s%02d", prefix, k)
		body, err := json.Marshal(p.jobs[k])
		if err != nil {
			return nil, err
		}
		// A probe copies a pool job with a one-tick deadline: no analysis
		// can certify it, so a granted probe is a wrong answer.
		probe := p.jobs[k]
		probe.Name = "probe"
		probe.Deadline = 1
		pb, err := json.Marshal(probe)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.probes = append(p.probes, pb)
	}
	return p, nil
}

func (s serveSpec) pools(seed int64) ([]*pool, error) {
	out := make([]*pool, s.tenants)
	for t := range out {
		var sys *model.System
		if s.large {
			sys = benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
		} else {
			// The serve load test's pool: ten bursty jobs at utilization 0.7,
			// over-subscribed so decisions split between grants and denials.
			cfg := workload.Default
			cfg.Jobs = 10
			cfg.Arrival = workload.Bursty
			cfg.BurstSize = 4
			cfg.Utilization = 0.7
			d, err := workload.Generate(stats.NewRand(seed, streamPool+int64(t)), cfg)
			if err != nil {
				return nil, fmt.Errorf("tenant %d pool: %w", t, err)
			}
			sys = d.System
		}
		p, err := newPool(sys, "J")
		if err != nil {
			return nil, err
		}
		out[t] = p
	}
	return out, nil
}

// tenant is the harness's view of one shard: which pool jobs are admitted,
// in the served (commit) order, plus the random stream that picks the job
// each decision names.
type tenant struct {
	idx      int
	id       string
	pool     *pool
	rng      *rand.Rand
	admitted []int
	free     []int
	// lastDecision is when the tenant's latest decision completed; its
	// next one could not be sent before.
	lastDecision time.Time
}

func newTenants(seed int64, pools []*pool) []*tenant {
	out := make([]*tenant, len(pools))
	for t, p := range pools {
		tn := &tenant{idx: t, id: "t" + strconv.Itoa(t), pool: p, rng: stats.NewRand(seed, streamChoice+int64(t))}
		for k := range p.jobs {
			tn.free = append(tn.free, k)
		}
		out[t] = tn
	}
	return out
}

// request is one resolved HTTP operation.
type request struct {
	kind   opKind
	tenant *tenant
	// job is the pool index an admit offers or a remove names; probes
	// use the pool index they copy.
	job   int
	probe bool
	// tried is the position in the free list (admit) or admitted list
	// (remove) the job was taken from.
	tried int
}

// resolve picks the job a decision names. A remove with nothing admitted,
// or an admit with nothing left to admit, becomes the other decision or a
// probe, so every scheduled decision is sent.
func (tn *tenant) resolve(op schedOp) request {
	rq := request{kind: op.kind, tenant: tn, probe: op.probe}
	if rq.kind == opRemove && len(tn.admitted) == 0 {
		rq.kind = opAdmit
	}
	switch {
	case rq.kind == opAdmit && (rq.probe || len(tn.free) == 0):
		rq.probe = true
		rq.job = tn.rng.Intn(len(tn.pool.jobs))
	case rq.kind == opAdmit:
		rq.tried = tn.rng.Intn(len(tn.free))
		rq.job = tn.free[rq.tried]
	case rq.kind == opRemove:
		rq.tried = tn.rng.Intn(len(tn.admitted))
		rq.job = tn.admitted[rq.tried]
	}
	return rq
}

func (rq request) method() string {
	if rq.kind == opQuery {
		return http.MethodGet
	}
	return http.MethodPost
}

func (rq request) path() string { return "/v1/tenants/" + rq.tenant.id + "/" + rq.kind.String() }

func (rq request) body() []byte {
	switch {
	case rq.kind == opQuery:
		return nil
	case rq.probe:
		return rq.tenant.pool.probes[rq.job]
	case rq.kind == opAdmit:
		return rq.tenant.pool.bodies[rq.job]
	}
	return []byte(`{"name":"` + rq.tenant.pool.jobs[rq.job].Name + `"}`)
}

// boundsDoc is the /bounds response.
type boundsDoc struct {
	Jobs []struct {
		Name  string      `json:"name"`
		Bound model.Ticks `json:"bound"`
	} `json:"jobs"`
}

// settle checks a reply and applies a decision's outcome to the tenant.
// It reports whether the decision committed (admit granted, remove done).
// Every error is a failed op: a non-200 reply, an undecodable body, a
// granted probe, or an admitted job the server says it does not hold.
func (rq request) settle(status int, body []byte) (bool, error) {
	if status != http.StatusOK {
		return false, fmt.Errorf("%s %s: status %d: %.200s", rq.kind, rq.tenant.id, status, body)
	}
	tn := rq.tenant
	switch rq.kind {
	case opAdmit:
		var r struct {
			Admitted bool `json:"admitted"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return false, fmt.Errorf("admit %s: %w", tn.id, err)
		}
		if rq.probe {
			if r.Admitted {
				return false, fmt.Errorf("admit %s: probe with a one-tick deadline was granted", tn.id)
			}
			return false, nil
		}
		if r.Admitted {
			tn.free = append(tn.free[:rq.tried], tn.free[rq.tried+1:]...)
			tn.admitted = append(tn.admitted, rq.job)
		}
		return r.Admitted, nil
	case opRemove:
		var r struct {
			Removed bool `json:"removed"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return false, fmt.Errorf("remove %s: %w", tn.id, err)
		}
		if !r.Removed {
			return false, fmt.Errorf("remove %s: admitted job %s reported absent", tn.id, tn.pool.jobs[rq.job].Name)
		}
		tn.admitted = append(tn.admitted[:rq.tried], tn.admitted[rq.tried+1:]...)
		tn.free = append(tn.free, rq.job)
		return true, nil
	}
	var doc boundsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return false, fmt.Errorf("bounds %s: %w", tn.id, err)
	}
	return false, nil
}

// system is the tenant's admitted system as the harness tracked it, with
// the policy's priorities applied: the oracle the served bounds must equal.
func (tn *tenant) system(policy admission.PriorityPolicy) *model.System {
	var jobs []model.Job
	for _, k := range tn.admitted {
		jobs = append(jobs, tn.pool.jobs[k])
	}
	return buildSystem(tn.pool.procs, jobs, policy)
}

func buildSystem(procs []model.Processor, jobs []model.Job, policy admission.PriorityPolicy) *model.System {
	sys := (&model.System{Procs: procs, Jobs: jobs}).Clone()
	if policy == admission.DeadlineMonotonic {
		priority.RelativeDeadlineMonotonic(sys)
	}
	return sys
}

// checkBounds is the end-of-run oracle: the served /bounds must name the
// tracked admitted jobs in served order, each with exactly the bound a cold
// analysis of that system computes.
func checkBounds(tn *tenant, policy admission.PriorityPolicy, body []byte) error {
	var doc boundsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("bounds %s: %w", tn.id, err)
	}
	if len(doc.Jobs) != len(tn.admitted) {
		return fmt.Errorf("bounds %s: %d jobs served, %d admitted", tn.id, len(doc.Jobs), len(tn.admitted))
	}
	if len(tn.admitted) == 0 {
		return nil
	}
	sys := tn.system(policy)
	res, err := analysis.AnalyzeOpts(sys, analysis.Options{})
	if err != nil {
		return fmt.Errorf("bounds %s: cold oracle: %w", tn.id, err)
	}
	for k, jb := range doc.Jobs {
		if jb.Name != sys.Jobs[k].Name || jb.Bound != res.WCRTSum[k] {
			return fmt.Errorf("bounds %s: job %d served as %s=%d, cold analysis gives %s=%d",
				tn.id, k, jb.Name, jb.Bound, sys.Jobs[k].Name, res.WCRTSum[k])
		}
	}
	return nil
}

// handlerRequest builds a request for calling a handler in-process.
func handlerRequest(method, path string, body []byte) *http.Request {
	req, err := http.NewRequest(method, "http://rta-serve"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the harness builds every method and path itself
	}
	return req
}

// call runs one request through a handler in-process.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, handlerRequest(method, path, body))
	return w.Code, w.Body.Bytes()
}

// seed brings a fresh server to the workload's starting state: create
// every tenant, offer each pool job once in order, then run the seeded
// churn history. Failures are tallied. When decided is not nil it sees
// every decision and whether it committed, so the traced run can feed a
// mirror controller in lockstep.
//
// The history runs on past its length until the tenant's log (the create
// plus every committed decision) ends half a snapshot interval past a
// snapshot, so a restart replays the same number of logged operations
// for every seed.
func (s serveSpec) seed(h http.Handler, seed int64, tenants []*tenant, tl *tally, decided func(request, bool)) {
	const every = store.DefaultSnapshotEvery
	for t, tn := range tenants {
		tl.attempted++
		if code, body := call(h, http.MethodPut, "/v1/tenants/"+tn.id, tn.pool.spec); code != http.StatusCreated {
			tl.fail("create %s: status %d: %.200s", tn.id, code, body)
			continue
		}
		logged := 1
		apply := func(rq request) {
			tl.attempted++
			code, body := call(h, rq.method(), rq.path(), rq.body())
			ok, err := rq.settle(code, body)
			if err != nil {
				tl.fail("%v", err)
			}
			if ok {
				logged++
			}
			if decided != nil {
				decided(rq, ok)
			}
		}
		for k := range tn.pool.jobs {
			// Denied jobs stay free, so job k sits after the denied ones.
			apply(request{kind: opAdmit, tenant: tn, job: k, tried: k - len(tn.admitted)})
		}
		hs := &opStream{rng: stats.NewRand(seed, streamHistory+int64(t)), tenants: 1}
		for i := 0; i < s.history || (logged%every != every/2 && i < 4*s.history); {
			op := hs.next()
			if op.kind == opQuery {
				continue
			}
			op.tenant = t
			apply(tn.resolve(op))
			i++
		}
	}
}
