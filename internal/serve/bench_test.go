package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rta/internal/admission"
	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/store"
)

// decisionChurnOp is the admission package's warm churn cycle through the
// HTTP handler, in-process (httptest recorders, no sockets): it admits the
// named benchsys job shop into one tenant and returns one op of one
// removal, one re-admission and one rejected probe, each a full JSON round
// trip through the mux, the shard map and the decision histogram. A
// non-nil store adds the durability tax: every committed decision is
// appended to the WAL (and periodically snapshotted) before its response.
func decisionChurnOp(tb testing.TB, st *store.Store) func() {
	sys := benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
	for k := range sys.Jobs {
		sys.Jobs[k].Name = fmt.Sprintf("J%02d", k)
	}
	last := sys.Jobs[len(sys.Jobs)-1]
	probe := last
	probe.Name = "probe"
	probe.Deadline = 1

	s := New(Config{Policy: admission.KeepPriorities, Store: st})
	tb.Cleanup(s.Close)
	h := s.Handler()
	call := func(method, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	spec, err := json.Marshal(&model.System{Procs: sys.Procs})
	if err != nil {
		tb.Fatal(err)
	}
	if w := call(http.MethodPut, "/v1/tenants/bench", spec); w.Code != http.StatusCreated {
		tb.Fatalf("create tenant: status %d: %s", w.Code, w.Body)
	}
	admit := func(j model.Job, want bool) {
		raw, err := json.Marshal(j)
		if err != nil {
			tb.Fatal(err)
		}
		w := call(http.MethodPost, "/v1/tenants/bench/admit", raw)
		var resp struct {
			Admitted bool `json:"admitted"`
		}
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
			tb.Fatalf("admit %s: status %d: %s", j.Name, w.Code, w.Body)
		}
		if resp.Admitted != want {
			tb.Fatalf("admit %s: admitted=%v, want %v", j.Name, resp.Admitted, want)
		}
	}
	for _, j := range sys.Jobs {
		admit(j, true)
	}
	rm := []byte(fmt.Sprintf(`{"name":%q}`, last.Name))
	return func() {
		if w := call(http.MethodPost, "/v1/tenants/bench/remove", rm); w.Code != http.StatusOK {
			tb.Fatalf("remove: status %d: %s", w.Code, w.Body)
		}
		admit(last, true)
		admit(probe, false)
	}
}

// storeChurnOp is decisionChurnOp on a WAL-backed server.
func storeChurnOp(tb testing.TB) func() {
	st, err := store.Open(store.Config{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return decisionChurnOp(tb, st)
}

func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkServeDecisionChurn tracks the serving layer's overhead on top
// of the warm controller.
func BenchmarkServeDecisionChurn(b *testing.B) { runOp(b, decisionChurnOp(b, nil)) }

// BenchmarkStoreDecisionChurn is its WAL-backed twin: the delta against
// BenchmarkServeDecisionChurn prices the log.
func BenchmarkStoreDecisionChurn(b *testing.B) { runOp(b, storeChurnOp(b)) }

// TestDecisionChurnAllocsPinned pins the allocations per op of both churn
// benchmarks at their recorded counts plus 5% (go1.24, GOMAXPROCS 1 as
// testing.AllocsPerRun sets it); the counts repeat to within 0.1%.
func TestDecisionChurnAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds heap allocations")
	}
	for _, r := range []struct {
		name   string
		op     func()
		allocs float64
	}{
		{"ServeDecisionChurn", decisionChurnOp(t, nil), 13528},
		{"StoreDecisionChurn", storeChurnOp(t), 13567},
	} {
		got := testing.AllocsPerRun(3, r.op)
		t.Logf("%-20s %6.0f allocs/op (pinned %.0f)", r.name, got, r.allocs)
		if got > r.allocs*1.05 {
			t.Errorf("%s: %.0f allocs/op, more than 5%% over the pinned %.0f", r.name, got, r.allocs)
		}
	}
}
