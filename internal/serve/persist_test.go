package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rta/internal/admission"
	"rta/internal/model"
	"rta/internal/store"
)

// openStore opens a store for a serve test. No Cleanup close is
// registered on purpose: the crash-recovery tests abandon the handle to
// simulate a kill -9, and leaked descriptors die with the test process.
func openStore(t *testing.T, dir string, mut ...func(*store.Config)) *store.Store {
	t.Helper()
	cfg := store.Config{Dir: dir, SnapshotEvery: 4}
	for _, m := range mut {
		m(&cfg)
	}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

func getBounds(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	return doReq(t, http.MethodGet, base+"/v1/tenants/"+id+"/bounds", nil)
}

func getStats(t *testing.T, base string) StatsSnapshot {
	t.Helper()
	status, raw := doReq(t, http.MethodGet, base+"/stats", nil)
	var snap StatsSnapshot
	if status != http.StatusOK || json.Unmarshal(raw, &snap) != nil {
		t.Fatalf("stats: status %d: %s", status, raw)
	}
	return snap
}

// TestStoreRestartRoundTrip drives every mutating endpoint against a
// store-backed server, restarts from the same directory, and requires
// the recovered tenants to answer /bounds byte-identically — for each
// priority policy, since replay re-applies logged priority vectors
// rather than re-running the policy.
func TestStoreRestartRoundTrip(t *testing.T) {
	policies := map[string]admission.PriorityPolicy{
		"keep":  admission.KeepPriorities,
		"dm":    admission.DeadlineMonotonic,
		"synth": admission.Synthesized,
	}
	for pname, policy := range policies {
		t.Run(pname, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			s, ts := newTestServer(t, Config{Policy: policy, Store: st})

			createTenant(t, ts.URL, "alpha")
			createTenant(t, ts.URL, "beta")
			// Six admissions cross the SnapshotEvery=4 cadence, so the
			// restart exercises snapshot + tail replay, not tail-only.
			for i := 0; i < 6; i++ {
				status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/admit",
					jobJSON(t, fmt.Sprintf("j%d", i), 100, 10_000))
				var adm admitResponse
				if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil || !adm.Admitted {
					t.Fatalf("admit j%d: status %d: %s", i, status, raw)
				}
			}
			// In-place update (logged as a mutate) and a removal.
			status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/update",
				jobJSON(t, "j0", 150, 10_000))
			var upd updateResponse
			if status != http.StatusOK || json.Unmarshal(raw, &upd) != nil || !upd.Updated {
				t.Fatalf("update j0: status %d: %s", status, raw)
			}
			rm, _ := json.Marshal(removeRequest{Name: "j1"})
			if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/remove", rm); status != http.StatusOK {
				t.Fatalf("remove j1: status %d: %s", status, raw)
			}
			if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/beta/admit",
				jobJSON(t, "only", 200, 8_000)); status != http.StatusOK {
				t.Fatalf("admit beta/only: status %d: %s", status, raw)
			}
			// A dropped tenant must stay dropped across the restart.
			createTenant(t, ts.URL, "gone")
			if status, raw := doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/gone", nil); status != http.StatusOK {
				t.Fatalf("drop gone: status %d: %s", status, raw)
			}

			pre := map[string][]byte{}
			for _, id := range []string{"alpha", "beta"} {
				status, raw := getBounds(t, ts.URL, id)
				if status != http.StatusOK {
					t.Fatalf("pre-restart bounds %s: status %d: %s", id, status, raw)
				}
				pre[id] = raw
			}

			ts.Close()
			s.Close()
			if err := st.Close(); err != nil {
				t.Fatalf("store close: %v", err)
			}

			st2 := openStore(t, dir)
			s2, ts2 := newTestServer(t, Config{Policy: policy, Store: st2})
			defer s2.Close()
			if notes := s2.Recovery(); len(notes) != 0 {
				t.Fatalf("recovery notes after clean restart: %v", notes)
			}
			for id, want := range pre {
				status, got := getBounds(t, ts2.URL, id)
				if status != http.StatusOK {
					t.Fatalf("post-restart bounds %s: status %d: %s", id, status, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("tenant %s bounds changed across restart:\n pre  %s\n post %s", id, want, got)
				}
			}
			if status, _ := getBounds(t, ts2.URL, "gone"); status != http.StatusNotFound {
				t.Fatalf("dropped tenant resurrected: bounds status %d", status)
			}
			snap := getStats(t, ts2.URL)
			if snap.Store == nil || snap.Store.ReplayQuarantines != 0 {
				t.Fatalf("stats store section after restart = %+v, want zero quarantines", snap.Store)
			}
		})
	}
}

// flakyFS implements store.FS over the real filesystem but fails every
// file write and fsync while tripped — a disk that went read-only under
// a live server — or, with failUnder set, only those of files under that
// directory (one tenant's bad volume). slowUs additionally makes every
// successful write sleep that many microseconds, widening the
// concurrency windows the race regression tests below aim at; a stored
// gate stalls the next write until the test releases it.
type flakyFS struct {
	fail      atomic.Bool
	failUnder atomic.Pointer[string]
	slowUs    atomic.Int64
	gate      atomic.Pointer[writeGate]
}

// writeGate stalls one write: the write closes entered, then waits for
// release to close.
type writeGate struct{ entered, release chan struct{} }

func (f *flakyFS) failing(path string) bool {
	dir := f.failUnder.Load()
	return f.fail.Load() || dir != nil && strings.HasPrefix(path, *dir+string(os.PathSeparator))
}

var errFlaky = errors.New("injected disk fault")

func (f *flakyFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (f *flakyFS) OpenAppend(path string) (store.File, error) {
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: file, fs: f, path: path}, nil
}

func (f *flakyFS) Create(path string) (store.File, error) {
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: file, fs: f, path: path}, nil
}

func (f *flakyFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (f *flakyFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (f *flakyFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (f *flakyFS) Remove(path string) error             { return os.Remove(path) }
func (f *flakyFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (f *flakyFS) Truncate(path string, n int64) error  { return os.Truncate(path, n) }

func (f *flakyFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (f *flakyFS) IsDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

type flakyFile struct {
	f    *os.File
	fs   *flakyFS
	path string
}

func (w *flakyFile) Write(p []byte) (int, error) {
	if g := w.fs.gate.Swap(nil); g != nil {
		close(g.entered)
		<-g.release
	}
	if w.fs.failing(w.path) {
		return 0, errFlaky
	}
	if d := w.fs.slowUs.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
	return w.f.Write(p)
}

func (w *flakyFile) Sync() error {
	if w.fs.failing(w.path) {
		return errFlaky
	}
	return w.f.Sync()
}

func (w *flakyFile) Close() error { return w.f.Close() }

// TestStoreFaultDegradesNotFails trips the disk under a live server: the
// admission must still be acknowledged, /healthz must report degraded,
// and after the disk heals the retry loop must drain the tenant's
// backlog so a restart recovers
// every acknowledged operation — including the one that failed its
// first append.
func TestStoreFaultDegradesNotFails(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	st := openStore(t, dir, func(c *store.Config) { c.FS = fs; c.Fsync = true })
	s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})

	createTenant(t, ts.URL, "acme")
	if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit",
		jobJSON(t, "before", 100, 10_000)); status != http.StatusOK {
		t.Fatalf("healthy admit: status %d: %s", status, raw)
	}

	fs.fail.Store(true)
	status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit",
		jobJSON(t, "during", 100, 10_000))
	var adm admitResponse
	if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil || !adm.Admitted {
		t.Fatalf("admit during disk fault: status %d: %s, want acknowledged admission", status, raw)
	}
	if status, raw := doReq(t, http.MethodGet, ts.URL+"/healthz", nil); string(raw) != "degraded\n" {
		t.Fatalf("healthz during fault: status %d body %q, want degraded", status, raw)
	}
	snap := getStats(t, ts.URL)
	if snap.Store == nil || !snap.Store.Degraded || snap.Store.Errors == 0 || snap.Store.Pending == 0 {
		t.Fatalf("stats during fault = %+v, want degraded with pending ops and errors counted", snap.Store)
	}

	fs.fail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap = getStats(t, ts.URL)
		if snap.Store != nil && !snap.Store.Degraded && snap.Store.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained after heal: %+v", snap.Store)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, raw := doReq(t, http.MethodGet, ts.URL+"/healthz", nil); string(raw) != "ok\n" {
		t.Fatalf("healthz after drain: body %q, want ok", raw)
	}
	_, pre := getBounds(t, ts.URL, "acme")

	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	status, post := getBounds(t, ts2.URL, "acme")
	if status != http.StatusOK || !bytes.Equal(pre, post) {
		t.Fatalf("recovered bounds after degraded episode:\n pre  %s\n post %s", pre, post)
	}
	var doc boundsResponse
	if json.Unmarshal(post, &doc) != nil || len(doc.Jobs) != 2 {
		t.Fatalf("recovered job set = %s, want both before and during", post)
	}
}

// TestAdmitJobsCountIsOwnDecision: an admit's "jobs" is the admitted-set
// size its own decision left. The first admit's log write stalls after
// it committed and released the tenant lock; a second admit to the same
// tenant commits in that window, and the first response must still
// report one job, not the two its handler would see after the flush.
func TestAdmitJobsCountIsOwnDecision(t *testing.T) {
	fs := &flakyFS{}
	st := openStore(t, t.TempDir(), func(c *store.Config) { c.FS = fs; c.SnapshotEvery = -1 })
	s, ts := newTestServer(t, Config{Store: st})
	defer s.Close()
	createTenant(t, ts.URL, "acme")
	h := s.Handler()
	admit := func(name string, out chan<- admitResponse) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/acme/admit",
			bytes.NewReader(jobJSON(t, name, 10, 10_000))))
		var adm admitResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &adm) != nil || !adm.Admitted {
			t.Errorf("admit %s: status %d: %s", name, w.Code, w.Body.Bytes())
		}
		out <- adm
	}

	gate := &writeGate{entered: make(chan struct{}), release: make(chan struct{})}
	fs.gate.Store(gate)
	first, second := make(chan admitResponse, 1), make(chan admitResponse, 1)
	go admit("first", first)
	select {
	case <-gate.entered: // first committed; its flush is stalled in the write
	case <-time.After(10 * time.Second):
		t.Fatal("first admit never reached the log")
	}
	go admit("second", second)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var doc boundsResponse
		if _, raw := getBounds(t, ts.URL, "acme"); json.Unmarshal(raw, &doc) == nil && len(doc.Jobs) == 2 {
			break // second committed
		}
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatal("second admit never committed")
		}
	}
	close(gate.release)
	if got := (<-first).Jobs; got != 1 {
		t.Fatalf("first admit reported jobs=%d, want 1: the size its own decision left", got)
	}
	if got := (<-second).Jobs; got != 2 {
		t.Fatalf("second admit reported jobs=%d, want 2", got)
	}
}

// TestDrainSerialized: the retry loop and live decisions flush the same
// tenant queue concurrently over a slowed disk. Every queued op must
// reach the log exactly once and in order — a double write is a semantic
// duplicate that quarantines the tenant on replay — and the backlog must
// drain fully.
func TestDrainSerialized(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	st := openStore(t, dir, func(c *store.Config) { c.FS = fs; c.SnapshotEvery = -1 })
	s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})
	createTenant(t, ts.URL, "acme")
	h := s.Handler()
	admit := func(body []byte) bool {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/acme/admit", bytes.NewReader(body)))
		var adm admitResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &adm) != nil {
			t.Errorf("admit: status %d: %s", w.Code, w.Body.Bytes())
		}
		return adm.Admitted
	}

	fs.fail.Store(true)
	const queued, live = 16, 16
	var granted atomic.Int64
	for i := 0; i < queued; i++ {
		if admit(jobJSON(t, fmt.Sprintf("q%d", i), 100, 10_000)) {
			granted.Add(1)
		}
	}
	if got, _, _ := st.Stats(); int64(got) != granted.Load() || got == 0 {
		t.Fatalf("backlog = %d, want the %d granted admissions", got, granted.Load())
	}
	fs.fail.Store(false)
	fs.slowUs.Store(2_000) // every write now takes ~2ms inside the flush
	// Retries from many goroutines race live decisions (and the server's
	// own retry loop) for the tenant's writer: every flush must take the
	// queue from where the previous one left it.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = st.Retry()
		}()
	}
	bodies := make([][]byte, live)
	for i := range bodies {
		bodies[i] = jobJSON(t, fmt.Sprintf("l%d", i), 100, 10_000)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, body := range bodies {
			if admit(body) {
				granted.Add(1)
			}
		}
	}()
	wg.Wait()
	if got, _, _ := st.Stats(); got != 0 {
		t.Fatalf("backlog = %d after concurrent retries on a healthy disk, want 0", got)
	}
	if snap := getStats(t, ts.URL); snap.Store.DroppedOps != 0 {
		t.Fatalf("%d ops dropped as unretryable", snap.Store.DroppedOps)
	}
	_, pre := getBounds(t, ts.URL, "acme")
	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	rep := st2.Report()
	if rep.Recovered != 1 || rep.TornTails != 0 || rep.QuarantinedSegments != 0 {
		t.Fatalf("recovery after concurrent retries: %+v", rep)
	}
	if tail := st2.Tenants()[0].Tail; int64(len(tail)) != granted.Load()+1 {
		t.Fatalf("recovered %d ops, want %d — a concurrent flush double-wrote or lost one", len(tail), granted.Load()+1)
	}
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	if _, post := getBounds(t, ts2.URL, "acme"); !bytes.Equal(pre, post) {
		t.Fatalf("bounds diverged across restart:\n pre  %s\n post %s", pre, post)
	}
}

// TestDropRecreateRaceKeepsWALOrdered: concurrent DELETE and PUT on the
// same tenant id must keep the WAL agreeing with the live server — an
// OpCreate must never reach the store before the OpDrop that made room
// for it (it would be rejected ErrTenantExists and dropped, leaving
// durable state saying dropped while the server serves the tenant), so
// after churn on a healthy disk nothing may have been dropped as
// unretryable and a restart serves exactly the pre-restart state.
func TestDropRecreateRaceKeepsWALOrdered(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	fs.slowUs.Store(100) // WAL contention widens the map-vs-append window
	st := openStore(t, dir, func(c *store.Config) { c.FS = fs })
	s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})

	createTenant(t, ts.URL, "flip")
	// Churn straight into the handler (no HTTP round trip) so the two
	// goroutines stay packed into the racy window. 201/409 and 200/404
	// are all legitimate outcomes mid-churn.
	h := s.Handler()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			req := httptest.NewRequest(http.MethodPut, "/v1/tenants/flip", bytes.NewReader([]byte(twoProcSpec)))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			req := httptest.NewRequest(http.MethodDelete, "/v1/tenants/flip", nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()
	wg.Wait()
	fs.slowUs.Store(0)

	// Settle to a known final state: dropped, then created, then one
	// admitted job the restart must reproduce.
	if status, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/flip", nil); status != http.StatusOK && status != http.StatusNotFound {
		t.Fatalf("settling drop: status %d", status)
	}
	createTenant(t, ts.URL, "flip")
	if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/flip/admit",
		jobJSON(t, "j", 100, 10_000)); status != http.StatusOK {
		t.Fatalf("admit: status %d: %s", status, raw)
	}
	// The disk never faulted, so any dropped-unretryable op means the
	// create/drop ops reached the store out of order.
	if snap := getStats(t, ts.URL); snap.Store.Pending != 0 || snap.Store.DroppedOps != 0 {
		t.Fatalf("pending=%d droppedOps=%d after healthy churn, want 0/0", snap.Store.Pending, snap.Store.DroppedOps)
	}
	_, pre := getBounds(t, ts.URL, "flip")

	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	if notes := s2.Recovery(); len(notes) != 0 {
		t.Fatalf("recovery notes after churn: %v", notes)
	}
	status, post := getBounds(t, ts2.URL, "flip")
	if status != http.StatusOK || !bytes.Equal(pre, post) {
		t.Fatalf("tenant lost or diverged across restart: status %d\n pre  %s\n post %s", status, pre, post)
	}
}

// pipeBody is a request body held open on an io.Pipe. Its first Read
// closes reading: handlers look their tenant up before they read the
// body, so from then on the handler holds a possibly stale shard.
type pipeBody struct {
	*io.PipeReader
	once    sync.Once
	reading chan struct{}
}

func (b *pipeBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.reading) })
	return b.PipeReader.Read(p)
}

// TestStaleShardDecisionNotLogged: a decision that looked its tenant up,
// then waited on its body while the tenant was dropped and re-created,
// holds a stale shard. It must answer 404 and log nothing: logging it
// would put the old incarnation's decision into the new one's log, and
// replay would no longer match the live server.
func TestStaleShardDecisionNotLogged(t *testing.T) {
	rm, _ := json.Marshal(removeRequest{Name: "ghost"})
	cases := []struct {
		op     string
		seeded bool // "ghost" is admitted in the first incarnation
		body   []byte
	}{
		{"admit", false, jobJSON(t, "ghost", 100, 10_000)},
		{"remove", true, rm},
		{"update", true, jobJSON(t, "ghost", 150, 10_000)},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})
			createTenant(t, ts.URL, "acme")
			if tc.seeded {
				if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit",
					jobJSON(t, "ghost", 100, 10_000)); status != http.StatusOK {
					t.Fatalf("seeding ghost: status %d: %s", status, raw)
				}
			}

			pr, pw := io.Pipe()
			body := &pipeBody{PipeReader: pr, reading: make(chan struct{})}
			w := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants/acme/"+tc.op, body))
			}()
			select {
			case <-body.reading:
			case <-done:
				t.Fatalf("%s returned before reading its body: status %d: %s", tc.op, w.Code, w.Body.Bytes())
			}
			if status, raw := doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/acme", nil); status != http.StatusOK {
				t.Fatalf("drop: status %d: %s", status, raw)
			}
			createTenant(t, ts.URL, "acme")
			go func() {
				_, _ = pw.Write(tc.body)
				pw.Close()
			}()
			<-done
			pr.Close() // unblocks the writer if the handler stopped reading early
			if w.Code != http.StatusNotFound {
				t.Fatalf("stale %s: status %d: %s, want 404", tc.op, w.Code, w.Body.Bytes())
			}

			status, live := getBounds(t, ts.URL, "acme")
			var doc boundsResponse
			if status != http.StatusOK || json.Unmarshal(live, &doc) != nil || len(doc.Jobs) != 0 {
				t.Fatalf("re-created tenant bounds: status %d: %s, want no jobs", status, live)
			}
			ts.Close()
			s.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir)
			s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
			defer s2.Close()
			if notes := s2.Recovery(); len(notes) != 0 {
				t.Fatalf("recovery notes: %v", notes)
			}
			if _, post := getBounds(t, ts2.URL, "acme"); !bytes.Equal(live, post) {
				t.Fatalf("replay != live after a stale %s:\n live   %s\n replay %s", tc.op, live, post)
			}
		})
	}
}

// TestStoreFaultIsolatedPerTenant: a disk fault under one tenant's
// directory degrades that tenant only. Tenant b's writes fail; tenant a's
// operations still reach disk directly — none of them waits in a backlog
// — and a's snapshots are still written. /healthz reports degraded and
// pending_ops counts b's backlog alone. Once b's directory heals the
// retry loop drains it, and a restart recovers both tenants.
func TestStoreFaultIsolatedPerTenant(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{}
	st := openStore(t, dir, func(c *store.Config) { c.FS = fs; c.Fsync = true })
	s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})
	createTenant(t, ts.URL, "a")
	createTenant(t, ts.URL, "b")

	bad := filepath.Join(dir, "t_b")
	fs.failUnder.Store(&bad)
	admit := func(id string, i int) {
		t.Helper()
		status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/"+id+"/admit", jobJSON(t, fmt.Sprintf("%s%d", id, i), 100, 10_000))
		var adm admitResponse
		if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil || !adm.Admitted {
			t.Fatalf("admit %s/%d: status %d: %s, want acknowledged admission", id, i, status, raw)
		}
	}
	const bOps, aOps = 3, 6 // a's 6 admissions cross the SnapshotEvery=4 cadence
	for i := 0; i < bOps; i++ {
		admit("b", i)
	}
	for i := 0; i < aOps; i++ {
		admit("a", i)
	}
	snap := getStats(t, ts.URL)
	if snap.Store == nil || !snap.Store.Degraded || snap.Store.Pending != bOps {
		t.Fatalf("stats with b's directory failing = %+v, want degraded with exactly b's %d ops pending", snap.Store, bOps)
	}
	if _, raw := doReq(t, http.MethodGet, ts.URL+"/healthz", nil); string(raw) != "degraded\n" {
		t.Fatalf("healthz with b's directory failing: %q, want degraded", raw)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "t_a", "snap-*.snap"))
	if len(snaps) == 0 || snap.Store.Snapshots == 0 {
		t.Fatalf("tenant a wrote no snapshot while b was failing (files %v, counter %d)", snaps, snap.Store.Snapshots)
	}

	fs.failUnder.Store(nil)
	deadline := time.Now().Add(10 * time.Second)
	for snap = getStats(t, ts.URL); snap.Store.Degraded || snap.Store.Pending != 0; snap = getStats(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("b's backlog never drained after heal: %+v", snap.Store)
		}
		time.Sleep(20 * time.Millisecond)
	}
	pre := map[string][]byte{}
	for _, id := range []string{"a", "b"} {
		_, pre[id] = getBounds(t, ts.URL, id)
	}
	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	for id, want := range pre {
		if status, got := getBounds(t, ts2.URL, id); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("tenant %s across restart: status %d\n pre  %s\n post %s", id, status, want, got)
		}
	}
}

// TestSpecValidationSharedWithReplay is the regression test for the
// single-validation-path refactor: a spec the HTTP layer refuses must
// also fail replay. A jobs-carrying spec is rejected by PUT; the same
// bytes smuggled into the log directly (as if written by a buggy or
// older server) must quarantine that tenant at startup, not crash and
// not serve it.
func TestSpecValidationSharedWithReplay(t *testing.T) {
	smuggled, err := json.Marshal(model.Job{
		Name: "smuggled", Deadline: 1_000,
		Subjobs:  []model.Subjob{{Proc: 0, Exec: 10, Priority: 1}},
		Releases: []model.Ticks{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	badSpec := []byte(`{"processors":[{"name":"P0","scheduler":"SPP"},{"name":"P1","scheduler":"SPP"}],"jobs":[` + string(smuggled) + `]}`)

	dir := t.TempDir()
	st := openStore(t, dir)
	s, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st})
	status, raw := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/bad", badSpec)
	if status != http.StatusBadRequest {
		t.Fatalf("PUT jobs-carrying spec: status %d: %s, want 400", status, raw)
	}
	// The store itself does not validate specs — append the refused spec
	// directly, simulating a writer that skipped the shared check.
	if _, err := st.Append("sneak", store.Op{Kind: store.OpCreate, Spec: badSpec}); err != nil {
		t.Fatalf("direct append: %v", err)
	}
	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	notes := s2.Recovery()
	if len(notes) != 1 || !bytes.Contains([]byte(notes[0]), []byte("spec")) {
		t.Fatalf("recovery notes = %v, want one spec-rejection quarantine", notes)
	}
	if status, _ := getBounds(t, ts2.URL, "sneak"); status != http.StatusNotFound {
		t.Fatalf("quarantined tenant served: bounds status %d", status)
	}
	if snap := getStats(t, ts2.URL); snap.Store == nil || snap.Store.ReplayQuarantines != 1 {
		t.Fatalf("stats store = %+v, want 1 replay quarantine", snap.Store)
	}
}

// TestTenantTTLEviction drives the idle janitor with an injected clock:
// an idle tenant is evicted and its eviction is logged as a drop (so a
// restart does not resurrect it); a recently touched tenant survives.
func TestTenantTTLEviction(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	dir := t.TempDir()
	st := openStore(t, dir)
	s, ts := newTestServer(t, Config{
		Policy:    admission.DeadlineMonotonic,
		Store:     st,
		TenantTTL: time.Hour,
		Now:       func() time.Time { return time.Unix(0, clock.Load()) },
	})

	createTenant(t, ts.URL, "idle")
	createTenant(t, ts.URL, "busy")
	if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/idle/admit",
		jobJSON(t, "j", 100, 10_000)); status != http.StatusOK {
		t.Fatalf("admit: status %d: %s", status, raw)
	}

	clock.Add(int64(2 * time.Hour))
	// Touch busy at the advanced time; idle keeps its creation timestamp.
	if status, _ := getBounds(t, ts.URL, "busy"); status != http.StatusOK {
		t.Fatalf("touching busy: status %d", status)
	}
	s.evictIdle()

	if status, _ := getBounds(t, ts.URL, "idle"); status != http.StatusNotFound {
		t.Fatalf("idle tenant survived eviction: bounds status %d", status)
	}
	if status, _ := getBounds(t, ts.URL, "busy"); status != http.StatusOK {
		t.Fatalf("busy tenant evicted: bounds status %d", status)
	}
	if snap := getStats(t, ts.URL); snap.Evictions != 1 {
		t.Fatalf("stats evictions = %d, want 1", snap.Evictions)
	}

	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Policy: admission.DeadlineMonotonic, Store: st2})
	defer s2.Close()
	if status, _ := getBounds(t, ts2.URL, "idle"); status != http.StatusNotFound {
		t.Fatalf("evicted tenant resurrected after restart: status %d", status)
	}
	if status, _ := getBounds(t, ts2.URL, "busy"); status != http.StatusOK {
		t.Fatalf("busy tenant lost across restart: status %d", status)
	}
}

// TestCrashRecoveryChurn is the randomized crash-recovery property:
// seeded churn of creates, admissions, removals, updates, and drops over
// several tenants; then a hard stop (the store is abandoned mid-flight,
// never Closed — exactly what a kill -9 leaves behind); then a reopen
// from the same directory. The live in-memory server IS the mirror fed
// exactly the acknowledged operations, so the property is: every
// surviving tenant's /bounds after recovery is byte-identical to its
// /bounds the moment before the crash, and dropped tenants stay dropped.
func TestCrashRecoveryChurn(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			st := openStore(t, dir, func(c *store.Config) { c.SnapshotEvery = 5 })
			_, ts := newTestServer(t, Config{Policy: admission.Synthesized, Store: st})

			ids := []string{"t0", "t1", "t2"}
			live := map[string]bool{}
			admitted := map[string][]string{}
			seq := 0
			for i := 0; i < 100; i++ {
				id := ids[rng.Intn(len(ids))]
				switch {
				case !live[id]:
					createTenant(t, ts.URL, id)
					live[id] = true
					admitted[id] = nil
				case rng.Float64() < 0.04:
					if status, raw := doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/"+id, nil); status != http.StatusOK {
						t.Fatalf("drop %s: status %d: %s", id, status, raw)
					}
					live[id] = false
				case len(admitted[id]) > 0 && (rng.Float64() < 0.25 || len(admitted[id]) >= 12):
					k := rng.Intn(len(admitted[id]))
					name := admitted[id][k]
					rm, _ := json.Marshal(removeRequest{Name: name})
					if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/"+id+"/remove", rm); status != http.StatusOK {
						t.Fatalf("remove %s/%s: status %d: %s", id, name, status, raw)
					}
					admitted[id] = append(admitted[id][:k], admitted[id][k+1:]...)
				case len(admitted[id]) > 0 && rng.Float64() < 0.15:
					name := admitted[id][rng.Intn(len(admitted[id]))]
					body := jobJSON(t, name, model.Ticks(50+rng.Intn(500)), model.Ticks(5_000+rng.Intn(15_000)))
					if status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/"+id+"/update", body); status != http.StatusOK {
						t.Fatalf("update %s/%s: status %d: %s", id, name, status, raw)
					}
				default:
					seq++
					name := fmt.Sprintf("job%d", seq)
					body := jobJSON(t, name, model.Ticks(50+rng.Intn(1_000)), model.Ticks(2_000+rng.Intn(18_000)))
					status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/"+id+"/admit", body)
					var adm admitResponse
					if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil {
						t.Fatalf("admit %s/%s: status %d: %s", id, name, status, raw)
					}
					if adm.Admitted {
						admitted[id] = append(admitted[id], name)
					}
				}
			}

			pre := map[string][]byte{}
			for id, ok := range live {
				if !ok {
					continue
				}
				status, raw := getBounds(t, ts.URL, id)
				if status != http.StatusOK {
					t.Fatalf("pre-crash bounds %s: status %d: %s", id, status, raw)
				}
				pre[id] = raw
			}

			// Hard stop: close only the listener. The Server and Store are
			// abandoned with their file handles open — nothing is flushed,
			// nothing is finalized.
			ts.Close()

			st2 := openStore(t, dir)
			s2, ts2 := newTestServer(t, Config{Policy: admission.Synthesized, Store: st2})
			defer s2.Close()
			if notes := s2.Recovery(); len(notes) != 0 {
				t.Fatalf("recovery notes after crash: %v", notes)
			}
			for id, want := range pre {
				status, got := getBounds(t, ts2.URL, id)
				if status != http.StatusOK {
					t.Fatalf("post-crash bounds %s: status %d: %s", id, status, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("tenant %s diverged across crash (seed %d):\n pre  %s\n post %s", id, seed, want, got)
				}
			}
			for id, ok := range live {
				if ok {
					continue
				}
				if status, _ := getBounds(t, ts2.URL, id); status != http.StatusNotFound {
					t.Fatalf("dropped tenant %s resurrected after crash", id)
				}
			}
		})
	}
}
