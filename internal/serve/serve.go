// Package serve is the online admission-control service over
// admission.Controller: the paper frames its whole analysis as an
// admission test for dynamic job sets, and this layer is what answers
// that test over HTTP, long-lived, under bursty query traffic.
//
// Architecture:
//
//   - Per-tenant sharding. Each tenant id owns an independent
//     admission.Controller (its own processors, job set, and warm
//     analysis session). The controller's internal lock serializes the
//     decisions of one shard; different shards decide in parallel — the
//     shard map itself is only read-locked on the request path.
//   - Shed before session. A pluggable Overload policy (always-admit or
//     token bucket) is consulted before a decision request touches its
//     shard; a shed costs a 429 and one atomic counter, never a session
//     lock. Queries (/bounds) are served from the resident converged
//     state and are not shed.
//   - Per-request execution options. Each decision runs under the HTTP
//     request's context plus the server's configured budget and worker
//     count (analysis.Options), so a disconnected client cancels its own
//     analysis and a poisoned request cannot run away.
//   - Graceful drain. Shutdown goes through http.Server.Shutdown, which
//     stops accepting and waits for in-flight decisions; sessions need no
//     special teardown because every commit point is transactional
//     (see the admission controller's rollback-on-error paths).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/store"
)

// Config parameterizes a Server.
type Config struct {
	// Limits caps tenant-spec and job request bodies (model.LoadLimited /
	// model.LoadJobLimited). Zero-value fields fall back to
	// model.DefaultLimits.
	Limits model.Limits
	// Policy is the priority-maintenance policy of every tenant
	// controller.
	Policy admission.PriorityPolicy
	// Opts are the per-decision execution options (workers, budget); the
	// request context is layered on per call.
	Opts analysis.Options
	// Overload is the shed policy; nil means AlwaysAdmit.
	Overload Overload
	// MaxTenants caps the number of concurrent tenants; 0 means 64.
	MaxTenants int
	// Store, when non-nil, makes every committed mutation durable: tenant
	// creations, drops, admissions, removals, and updates are enqueued in
	// the tenant's log as they commit and flushed before the HTTP
	// acknowledgment, and New replays the store's recovered tenants
	// before serving. Store errors degrade durability, never availability
	// (see persist.go).
	Store *store.Store
	// TenantTTL evicts tenants idle (no create/admit/remove/update/bounds
	// traffic) longer than this; zero disables eviction. Evictions are
	// logged to the store as drops, so a restart does not resurrect them.
	TenantTTL time.Duration
	// Now overrides the clock for TTL bookkeeping; nil means time.Now.
	Now func() time.Time
}

// Server is the admission-control service. Create with New, mount
// Handler on an http.Server.
type Server struct {
	cfg      Config
	overload Overload

	mu      sync.RWMutex
	tenants map[string]*tenant

	started  time.Time
	counters counters
	decHist  hist

	// recoveryNotes records per-tenant semantic replay failures from New.
	recoveryNotes []string
	// stop ends the background loop, which closes done on exit;
	// closeOnce guards double Close.
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

type tenant struct {
	ctl *admission.Controller
	// spec is the canonical processors-only spec JSON the tenant was
	// created from, kept for snapshots.
	spec json.RawMessage
	// logMu is the tenant's one lock: held across "commit the decision"
	// + "enqueue its log entry", making the log's operation order the
	// commit order.
	logMu sync.Mutex
	// gone, guarded by logMu, marks a tenant dropped or evicted: a
	// handler that looked it up before then answers 404 and logs nothing,
	// so a stale shard can never log into the id's next incarnation.
	gone bool
	// lastUsed is the UnixNano of the last request that touched the
	// tenant, for TTL eviction.
	lastUsed int64
}

func (t *tenant) touch(now int64) { atomic.StoreInt64(&t.lastUsed, now) }

// New creates a server. Without a Store it starts empty; with one it
// replays every recovered tenant (quarantining any whose log does not
// apply — see Recovery) before it is ready to serve.
func New(cfg Config) *Server {
	if cfg.Overload == nil {
		cfg.Overload = AlwaysAdmit{}
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.Limits == (model.Limits{}) {
		cfg.Limits = model.DefaultLimits
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		overload: cfg.Overload,
		tenants:  map[string]*tenant{},
		started:  time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.Store != nil {
		s.replayAll()
	}
	go s.background()
	return s
}

func (s *Server) now() time.Time { return s.cfg.Now() }

// Close stops the background loop (TTL eviction, store retries) and
// waits for it to exit. It does not close the store itself — the store's
// owner does.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
	})
}

// Recovery reports the semantic replay failures New quarantined (framing
// -level recovery accounting lives in the store's own Report).
func (s *Server) Recovery() []string { return s.recoveryNotes }

// background is the server's one maintenance loop: it evicts idle
// tenants every TenantTTL/4 (clamped to [50ms, 30s]) and retries failed
// store flushes, backing off from retryMin to retryMax while a retry
// keeps failing.
func (s *Server) background() {
	defer close(s.done)
	var evict, retry <-chan time.Time
	if s.cfg.TenantTTL > 0 {
		tick := time.NewTicker(min(max(s.cfg.TenantTTL/4, 50*time.Millisecond), 30*time.Second))
		defer tick.Stop()
		evict = tick.C
	}
	backoff := retryMin
	var timer *time.Timer
	if s.cfg.Store != nil {
		timer = time.NewTimer(backoff)
		defer timer.Stop()
		retry = timer.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-evict:
			s.evictIdle()
		case <-retry:
			if s.cfg.Store.Retry() != nil {
				backoff = min(2*backoff, retryMax)
			} else {
				backoff = retryMin
			}
			timer.Reset(backoff)
		}
	}
}

// evictIdle drops every tenant idle longer than TenantTTL, logging each
// eviction to the store as a drop so restarts do not resurrect them.
func (s *Server) evictIdle() {
	deadline := s.now().Add(-s.cfg.TenantTTL).UnixNano()
	var idle []string
	s.mu.RLock()
	for id, t := range s.tenants {
		if atomic.LoadInt64(&t.lastUsed) <= deadline {
			idle = append(idle, id)
		}
	}
	s.mu.RUnlock()
	for _, id := range idle {
		if s.unmap(id, store.Op{Kind: store.OpDrop, Evicted: true}, deadline) {
			s.counters.evictions.Add(1)
		}
	}
}

// unmap drops tenant id: under its logMu it marks the tenant gone, and in
// one map critical section deletes the id and enqueues op, so a re-create
// of the id can only enqueue after it. It skips a tenant used after
// idleSince (math.MaxInt64: never) and reports whether it dropped one.
func (s *Server) unmap(id string, op store.Op, idleSince int64) bool {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return false
	}
	t.logMu.Lock()
	if t.gone || atomic.LoadInt64(&t.lastUsed) > idleSince {
		t.logMu.Unlock()
		return false
	}
	t.gone = true
	s.mu.Lock()
	delete(s.tenants, id)
	seq, _ := s.enqueue(id, op)
	s.mu.Unlock()
	t.logMu.Unlock()
	s.flush(id, seq)
	return true
}

// Handler returns the HTTP API:
//
//	PUT    /v1/tenants/{tenant}         create a tenant from a processor spec
//	DELETE /v1/tenants/{tenant}         drop a tenant and its job set
//	POST   /v1/tenants/{tenant}/admit   admission decision for one job
//	POST   /v1/tenants/{tenant}/remove  remove an admitted job by name
//	GET    /v1/tenants/{tenant}/bounds  per-job response bounds
//	GET    /healthz                     liveness
//	GET    /stats                       counters + decision-latency histogram
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleCreate)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDrop)
	mux.HandleFunc("POST /v1/tenants/{tenant}/admit", s.handleAdmit)
	mux.HandleFunc("POST /v1/tenants/{tenant}/remove", s.handleRemove)
	mux.HandleFunc("POST /v1/tenants/{tenant}/update", s.handleUpdate)
	mux.HandleFunc("GET /v1/tenants/{tenant}/bounds", s.handleBounds)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.cfg.Store != nil {
			if backlog, _, _ := s.cfg.Store.Stats(); backlog > 0 {
				// Still 200: the server is live and serving from memory;
				// the body tells the orchestrator durability is behind.
				fmt.Fprintln(w, "degraded")
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) reply(w http.ResponseWriter, status int, doc any) {
	if status >= 500 {
		s.counters.serverErrors.Add(1)
	} else if status >= 400 && status != http.StatusTooManyRequests {
		s.counters.clientErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(doc)
}

func (s *Server) replyErr(w http.ResponseWriter, status int, format string, args ...any) {
	s.reply(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// shard returns the tenant's shard, or nil after writing a 404. A hit
// refreshes the tenant's TTL clock.
func (s *Server) shard(w http.ResponseWriter, r *http.Request) *tenant {
	id := r.PathValue("tenant")
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		s.replyErr(w, http.StatusNotFound, "unknown tenant %q", id)
		return nil
	}
	t.touch(s.now().UnixNano())
	return t
}

// shed consults the overload policy; on a shed it writes the 429 and
// reports true. Decisions only — this runs before any shard state is
// touched.
func (s *Server) shed(w http.ResponseWriter) bool {
	if s.overload.Admit() {
		return false
	}
	s.counters.sheds.Add(1)
	w.Header().Set("Retry-After", "1")
	s.replyErr(w, http.StatusTooManyRequests, "shed by overload policy %s", s.overload.Name())
	return true
}

// decisionOpts binds the request context to the configured execution
// options for one decision.
func (s *Server) decisionOpts(r *http.Request) analysis.Options {
	opts := s.cfg.Opts
	opts.Context = r.Context()
	return opts
}

// handleCreate builds a tenant shard from a processor spec: a system
// document whose jobs array must be empty (jobs are admitted one by one
// through /admit, so every admitted job has passed the admission test).
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant")
	if id == "" {
		s.replyErr(w, http.StatusBadRequest, "tenant id must be non-empty")
		return
	}
	// LoadProcSpec is the same validation replay runs, so a spec accepted
	// here is a spec the store can replay after a crash (and vice versa).
	spec, err := model.LoadProcSpec(r.Body, s.cfg.Limits)
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "tenant spec: %v", err)
		return
	}
	ctl, err := admission.NewWithOptions(spec.Procs, s.cfg.Policy, s.cfg.Opts)
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "tenant spec: %v", err)
		return
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		s.replyErr(w, http.StatusInternalServerError, "tenant spec: %v", err)
		return
	}
	t := &tenant{ctl: ctl, spec: specJSON, lastUsed: s.now().UnixNano()}
	s.mu.Lock()
	if _, dup := s.tenants[id]; dup {
		s.mu.Unlock()
		s.replyErr(w, http.StatusConflict, "tenant %q already exists", id)
		return
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		s.replyErr(w, http.StatusTooManyRequests, "tenant limit %d reached", s.cfg.MaxTenants)
		return
	}
	s.tenants[id] = t
	// Enqueued before any request can find t: its decisions queue after.
	seq, _ := s.enqueue(id, store.Op{Kind: store.OpCreate, Spec: specJSON})
	s.mu.Unlock()
	s.flush(id, seq)
	s.reply(w, http.StatusCreated, map[string]any{"tenant": id, "processors": len(spec.Procs)})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant")
	if !s.unmap(id, store.Op{Kind: store.OpDrop}, math.MaxInt64) {
		s.replyErr(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	s.reply(w, http.StatusOK, map[string]any{"dropped": id})
}

// decide runs op, one decision, on tenant t under its logMu (see apply;
// job is ignored for a removal). A committed op is enqueued before the
// lock is released and flushed before decide returns, so before the
// caller's acknowledgment; jobs is the admitted-set size this decision
// left, read in the same critical section. decide reports done false,
// having answered, when t was dropped or evicted after the handler looked
// it up (404) or the decision failed.
func (s *Server) decide(w http.ResponseWriter, r *http.Request, t *tenant, op store.Op, job model.Job) (present, ok bool, jobs int, done bool) {
	id := r.PathValue("tenant")
	start := time.Now()
	t.logMu.Lock()
	if t.gone {
		t.logMu.Unlock()
		s.replyErr(w, http.StatusNotFound, "unknown tenant %q", id)
		return false, false, 0, false
	}
	present, ok, err := apply(t.ctl, op, job, s.decisionOpts(r), false)
	var seq uint64
	if err == nil && ok {
		seq = s.logDecision(id, t, op, job)
	}
	jobs = t.ctl.Len()
	t.logMu.Unlock()
	s.flush(id, seq)
	s.decHist.observe(time.Since(start))
	if err != nil {
		s.decisionError(w, r, err)
		return false, false, 0, false
	}
	return present, ok, jobs, true
}

// apply is the one mapping from an operation kind to its controller call,
// shared by the decision handlers and log replay. Live, the decision runs
// under opts and the controller's policy and verdict decide; ok reports
// whether it committed. Replayed, op.Pri is pinned and the operation
// commits (it was decided before it was logged), or errors.
func apply(ctl *admission.Controller, op store.Op, job model.Job, opts analysis.Options, replay bool) (present, ok bool, err error) {
	switch op.Kind {
	case store.OpAdmit:
		if replay {
			return true, true, ctl.Reinstate(job, op.Pri)
		}
		ok, err = ctl.RequestOpts(job, opts)
		return true, ok, err
	case store.OpRemove:
		if replay {
			return true, true, ctl.ReinstateRemove(op.Name, op.Pri)
		}
		present, err = ctl.RemoveOpts(op.Name, opts)
		return present, present, err
	case store.OpMutate:
		if replay {
			return true, true, ctl.ReinstateUpdate(job, op.Pri)
		}
		return ctl.UpdateOpts(job, opts)
	}
	return false, false, fmt.Errorf("unknown operation kind %q", op.Kind)
}

// admitResponse is the admission-decision body.
type admitResponse struct {
	Admitted bool `json:"admitted"`
	// Jobs is the admitted-set size after the decision.
	Jobs int `json:"jobs"`
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	t := s.shard(w, r)
	if t == nil {
		return
	}
	job, err := model.LoadJobLimited(r.Body, s.cfg.Limits)
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, ok, jobs, done := s.decide(w, r, t, store.Op{Kind: store.OpAdmit}, job)
	if !done {
		return
	}
	if ok {
		s.counters.admitsGranted.Add(1)
	} else {
		s.counters.admitsDenied.Add(1)
	}
	s.reply(w, http.StatusOK, admitResponse{Admitted: ok, Jobs: jobs})
}

// removeRequest / removeResponse are the removal bodies.
type removeRequest struct {
	Name string `json:"name"`
}
type removeResponse struct {
	Removed bool `json:"removed"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	t := s.shard(w, r)
	if t == nil {
		return
	}
	var req removeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Name == "" {
		s.replyErr(w, http.StatusBadRequest, "removal body must be {\"name\": \"...\"}")
		return
	}
	// On error the controller rolled back; the job is still admitted.
	present, _, _, done := s.decide(w, r, t, store.Op{Kind: store.OpRemove, Name: req.Name}, model.Job{})
	if !done {
		return
	}
	if present {
		s.counters.removes.Add(1)
	}
	s.reply(w, http.StatusOK, removeResponse{Removed: present})
}

// updateResponse is the in-place job update body.
type updateResponse struct {
	Updated bool `json:"updated"`
}

// handleUpdate re-decides an admitted job in place: the body is a full
// job record whose name must already be admitted; the replacement keeps
// the hop count and is committed only if every deadline still holds.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	t := s.shard(w, r)
	if t == nil {
		return
	}
	job, err := model.LoadJobLimited(r.Body, s.cfg.Limits)
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	present, ok, _, done := s.decide(w, r, t, store.Op{Kind: store.OpMutate, Name: job.Name}, job)
	if !done {
		return
	}
	if !present {
		s.replyErr(w, http.StatusNotFound, "job %q not admitted", job.Name)
		return
	}
	if ok {
		s.counters.admitsGranted.Add(1)
	} else {
		s.counters.admitsDenied.Add(1)
	}
	s.reply(w, http.StatusOK, updateResponse{Updated: ok})
}

// boundsResponse lists the admitted jobs with their certified worst-case
// end-to-end response bounds.
type boundsResponse struct {
	Jobs []jobBound `json:"jobs"`
}
type jobBound struct {
	Name  string      `json:"name"`
	Bound model.Ticks `json:"bound"`
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	t := s.shard(w, r)
	if t == nil {
		return
	}
	names, bounds, err := t.ctl.NamedBounds()
	if err != nil {
		s.decisionError(w, r, err)
		return
	}
	s.counters.queries.Add(1)
	doc := boundsResponse{Jobs: []jobBound{}}
	for i := range names {
		doc.Jobs = append(doc.Jobs, jobBound{Name: names[i], Bound: bounds[i]})
	}
	s.reply(w, http.StatusOK, doc)
}

// decisionError maps controller errors to statuses: duplicates are 409,
// canceled/overbudget decisions 503 (the client may retry), malformed
// systems 400 (the analysis rejected the input), anything else 500.
func (s *Server) decisionError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, admission.ErrDuplicate):
		s.replyErr(w, http.StatusConflict, "%v", err)
	case r.Context().Err() != nil, errors.Is(err, fault.ErrBudgetExceeded):
		s.replyErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, analysis.ErrCyclic), isValidation(err):
		s.replyErr(w, http.StatusBadRequest, "%v", err)
	default:
		s.replyErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// isValidation reports whether the error came from model validation of a
// trial system — a malformed job the analysis refused, i.e. the client's
// fault, not the server's.
func isValidation(err error) bool {
	var verr *model.ValidationError
	return errors.As(err, &verr)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ntenants := len(s.tenants)
	jobs := 0
	for _, t := range s.tenants {
		jobs += t.ctl.Len()
	}
	s.mu.RUnlock()

	buckets, count, mean := s.decHist.snapshot()
	snap := StatsSnapshot{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Overload:       s.overload.Name(),
		Tenants:        ntenants,
		AdmittedJobs:   jobs,
		AdmitsGranted:  s.counters.admitsGranted.Load(),
		AdmitsDenied:   s.counters.admitsDenied.Load(),
		Removes:        s.counters.removes.Load(),
		Queries:        s.counters.queries.Load(),
		Sheds:          s.counters.sheds.Load(),
		ClientErrors:   s.counters.clientErrors.Load(),
		ServerErrors:   s.counters.serverErrors.Load(),
		Evictions:      s.counters.evictions.Load(),
		DecisionCount:  count,
		DecisionMeanNs: mean,
		DecisionP50Ns:  s.decHist.quantileNs(0.50),
		DecisionP99Ns:  s.decHist.quantileNs(0.99),
		DecisionHist:   buckets,
	}
	if s.cfg.Store != nil {
		backlog, failures, snapshots := s.cfg.Store.Stats()
		unlogged := s.counters.unlogged.Load()
		snap.Store = &StoreStats{
			Degraded:          backlog > 0,
			Errors:            failures + unlogged,
			Pending:           backlog,
			Snapshots:         snapshots,
			DroppedOps:        unlogged,
			ReplayQuarantines: s.counters.replayQuarantines.Load(),
		}
	}
	s.reply(w, http.StatusOK, snap)
}
