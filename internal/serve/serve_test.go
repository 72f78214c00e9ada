package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rta/internal/admission"
	"rta/internal/model"
)

const twoProcSpec = `{"processors":[{"name":"P0","scheduler":"SPP"},{"name":"P1","scheduler":"SPP"}]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s response: %v", method, url, err)
	}
	return resp.StatusCode, raw
}

func jobJSON(t *testing.T, name string, exec, deadline model.Ticks) []byte {
	t.Helper()
	j := model.Job{
		Name:     name,
		Deadline: deadline,
		Subjobs:  []model.Subjob{{Proc: 0, Exec: exec, Priority: 1}},
		Releases: []model.Ticks{0},
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshaling job: %v", err)
	}
	return raw
}

func createTenant(t *testing.T, base, id string) {
	t.Helper()
	status, body := doReq(t, http.MethodPut, base+"/v1/tenants/"+id, []byte(twoProcSpec))
	if status != http.StatusCreated {
		t.Fatalf("creating tenant %s: status %d: %s", id, status, body)
	}
}

func TestServerLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic})
	createTenant(t, ts.URL, "acme")

	// A light job is admitted.
	status, raw := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit", jobJSON(t, "light", 100, 10_000))
	var adm admitResponse
	if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil {
		t.Fatalf("admit: status %d: %s", status, raw)
	}
	if !adm.Admitted || adm.Jobs != 1 {
		t.Fatalf("admit = %+v, want admitted with 1 job", adm)
	}

	// Re-admitting the same name is a conflict, not a decision.
	status, raw = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit", jobJSON(t, "light", 100, 10_000))
	if status != http.StatusConflict {
		t.Fatalf("duplicate admit: status %d: %s, want 409", status, raw)
	}

	// A job that cannot meet its deadline is refused — 200 with
	// admitted=false, since the test ran and answered.
	status, raw = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit", jobJSON(t, "heavy", 5_000, 200))
	if status != http.StatusOK || json.Unmarshal(raw, &adm) != nil {
		t.Fatalf("denied admit: status %d: %s", status, raw)
	}
	if adm.Admitted || adm.Jobs != 1 {
		t.Fatalf("denied admit = %+v, want refusal with 1 job resident", adm)
	}

	// Bounds list the admitted job with a certified positive bound.
	status, raw = doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/bounds", nil)
	var bounds boundsResponse
	if status != http.StatusOK || json.Unmarshal(raw, &bounds) != nil {
		t.Fatalf("bounds: status %d: %s", status, raw)
	}
	if len(bounds.Jobs) != 1 || bounds.Jobs[0].Name != "light" || bounds.Jobs[0].Bound < 100 {
		t.Fatalf("bounds = %+v, want light with bound >= 100", bounds.Jobs)
	}

	// Removal frees the job; removing again reports absent.
	rm, _ := json.Marshal(removeRequest{Name: "light"})
	status, raw = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/remove", rm)
	var rmResp removeResponse
	if status != http.StatusOK || json.Unmarshal(raw, &rmResp) != nil || !rmResp.Removed {
		t.Fatalf("remove: status %d: %s", status, raw)
	}
	status, raw = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/remove", rm)
	if status != http.StatusOK || json.Unmarshal(raw, &rmResp) != nil || rmResp.Removed {
		t.Fatalf("second remove: status %d: %s, want removed=false", status, raw)
	}

	// Stats reflect the traffic.
	status, raw = doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	var stats StatsSnapshot
	if status != http.StatusOK || json.Unmarshal(raw, &stats) != nil {
		t.Fatalf("stats: status %d: %s", status, raw)
	}
	if stats.AdmitsGranted != 1 || stats.AdmitsDenied != 1 || stats.Removes != 1 || stats.Queries != 1 {
		t.Fatalf("stats = %+v, want 1 grant, 1 denial, 1 remove, 1 query", stats)
	}
	if stats.Tenants != 1 || stats.AdmittedJobs != 0 {
		t.Fatalf("stats = %+v, want 1 tenant with 0 resident jobs", stats)
	}
	// Every serviced decision attempt is observed: grant, duplicate
	// conflict, denial, and both removals.
	if stats.DecisionCount != 5 || stats.DecisionP99Ns == 0 {
		t.Fatalf("stats decisions = %d (p99 %d), want 5 observed decisions", stats.DecisionCount, stats.DecisionP99Ns)
	}

	// Dropping the tenant invalidates its routes.
	status, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/acme", nil)
	if status != http.StatusOK {
		t.Fatalf("drop: status %d", status)
	}
	status, _ = doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/bounds", nil)
	if status != http.StatusNotFound {
		t.Fatalf("bounds after drop: status %d, want 404", status)
	}
}

func TestServerCreateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 1})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"processors": [`, http.StatusBadRequest},
		{"carries jobs", `{"processors":[{"scheduler":"SPP"}],"jobs":[{"deadline":1,"subjobs":[{"proc":0,"exec":1}],"releases":[0]}]}`, http.StatusBadRequest},
		{"no processors", `{"processors":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/bad", []byte(tc.body))
		if status != tc.want {
			t.Errorf("%s: status %d: %s, want %d", tc.name, status, body, tc.want)
		}
	}

	createTenant(t, ts.URL, "only")
	status, body := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/only", []byte(twoProcSpec))
	if status != http.StatusConflict {
		t.Errorf("duplicate tenant: status %d: %s, want 409", status, body)
	}
	status, body = doReq(t, http.MethodPut, ts.URL+"/v1/tenants/second", []byte(twoProcSpec))
	if status != http.StatusTooManyRequests {
		t.Errorf("over tenant limit: status %d: %s, want 429", status, body)
	}
}

func TestServerDecisionErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTenant(t, ts.URL, "acme")

	status, body := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/ghost/admit", jobJSON(t, "j", 1, 10))
	if status != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d: %s, want 404", status, body)
	}
	status, body = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit", []byte(`{"subjobs": 3}`))
	if status != http.StatusBadRequest {
		t.Errorf("malformed job: status %d: %s, want 400", status, body)
	}
	status, body = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/remove", []byte(`{}`))
	if status != http.StatusBadRequest {
		t.Errorf("nameless removal: status %d: %s, want 400", status, body)
	}
	// A structurally valid job the analysis itself must reject (processor
	// out of range) maps to 400, not 500: the client's fault.
	status, body = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit",
		[]byte(`{"name":"oob","deadline":10,"subjobs":[{"proc":99,"exec":1}],"releases":[0]}`))
	if status != http.StatusBadRequest {
		t.Errorf("out-of-range proc: status %d: %s, want 400", status, body)
	}
}

// frozenBucket returns a TokenBucket pinned to a fixed clock: no refill
// ever happens, so exactly capacity decisions pass.
func frozenBucket(capacity float64) *TokenBucket {
	b := NewTokenBucket(capacity, 1)
	t0 := time.Unix(0, 0)
	b.now = func() time.Time { return t0 }
	b.last = t0
	return b
}

func TestTokenBucketSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{Overload: frozenBucket(2)})
	createTenant(t, ts.URL, "acme")

	for i := 0; i < 2; i++ {
		status, body := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/admit",
			jobJSON(t, fmt.Sprintf("j%d", i), 10, 10_000))
		if status != http.StatusOK {
			t.Fatalf("decision %d within budget: status %d: %s", i, status, body)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/acme/admit", bytes.NewReader(jobJSON(t, "j2", 10, 10_000)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket: status %d: %s, want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response lacks Retry-After")
	}
	if !strings.Contains(string(raw), "token-bucket") {
		t.Errorf("shed body %q does not name the policy", raw)
	}

	// Queries are never shed: they serve resident state.
	status, body := doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/bounds", nil)
	if status != http.StatusOK {
		t.Fatalf("query under exhausted bucket: status %d: %s, want 200", status, body)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	b := NewTokenBucket(3, 2) // burst 3, then 2/s sustained
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	b.last = now

	for i := 0; i < 3; i++ {
		if !b.Admit() {
			t.Fatalf("burst decision %d shed with a full bucket", i)
		}
	}
	if b.Admit() {
		t.Fatal("empty bucket admitted without refill")
	}
	now = now.Add(500 * time.Millisecond) // +1 token
	if !b.Admit() {
		t.Fatal("refilled token not granted")
	}
	if b.Admit() {
		t.Fatal("second decision granted after a one-token refill")
	}
	now = now.Add(time.Hour) // refill far beyond capacity
	for i := 0; i < 3; i++ {
		if !b.Admit() {
			t.Fatalf("decision %d shed after refill to capacity", i)
		}
	}
	if b.Admit() {
		t.Fatal("refill exceeded capacity")
	}
}

// TestServerConcurrentTenants hammers several tenants through the mux at
// once — decisions, removals, queries, and stats — so the race detector
// sees cross-shard parallelism against the shared shard map and counters.
func TestServerConcurrentTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{Policy: admission.DeadlineMonotonic})

	const tenants = 4
	const opsPerTenant = 30
	for i := 0; i < tenants; i++ {
		createTenant(t, ts.URL, fmt.Sprintf("t%d", i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants+1)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for op := 0; op < opsPerTenant; op++ {
				name := fmt.Sprintf("j%d", op%5)
				body := jobJSON(t, name, 50, 100_000)
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/"+id+"/admit", bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("%s admit %s: status %d", id, name, resp.StatusCode)
					return
				}
				if op%3 == 0 {
					rm, _ := json.Marshal(removeRequest{Name: name})
					req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/"+id+"/remove", bytes.NewReader(rm))
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/v1/tenants/" + id + "/bounds")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(fmt.Sprintf("t%d", i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < opsPerTenant; i++ {
			resp, err := http.Get(ts.URL + "/stats")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunLoadRoundTrip drives a server under each overload policy with
// bursty traffic and requires the load test's shape: admissions granted
// and no errored request. The token-bucket case goes through
// RunLocalLoad, the self-contained path of rta-serve -loadtest.
func TestRunLoadRoundTrip(t *testing.T) {
	cfg := LoadConfig{
		Seed:          7,
		Tenants:       2,
		Duration:      300 * time.Millisecond,
		RatePerTenant: 300,
		CV:            4,
		PoolJobs:      6,
		BurstSize:     3,
	}
	for _, tc := range []struct {
		name     string
		overload Overload
		local    bool
	}{
		{"always-admit", AlwaysAdmit{}, false},
		{"token-bucket", NewTokenBucket(64, 200), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := Config{Policy: admission.DeadlineMonotonic, Overload: tc.overload}
			var res *LoadResult
			var err error
			if tc.local {
				res, err = RunLocalLoad(context.Background(), scfg, cfg)
			} else {
				_, ts := newTestServer(t, scfg)
				res, err = RunLoad(context.Background(), cfg, ts.URL, tc.overload.Name(), nil)
			}
			if err != nil {
				t.Fatalf("load test: %v", err)
			}
			if res.Offered == 0 || res.Admits == 0 {
				t.Fatalf("result = %+v, want offered and admitted traffic", res)
			}
			if res.Errors != 0 {
				t.Fatalf("result has %d errors, samples %v", res.Errors, res.ErrorSamples)
			}
			if _, always := tc.overload.(AlwaysAdmit); always && (res.Sheds != 0 || res.ShedRate != 0) {
				t.Fatalf("always-admit run shed %d requests", res.Sheds)
			}
			if res.DecisionP99Ms < res.DecisionP50Ms || res.Throughput <= 0 {
				t.Fatalf("result quantiles inconsistent: %+v", res)
			}
			if res.Policy != tc.overload.Name() {
				t.Fatalf("policy label = %q, want %q", res.Policy, tc.overload.Name())
			}
		})
	}
}

func TestRunLoadShedsUnderTokenBucket(t *testing.T) {
	// A bucket refilling far below the offered rate must shed: this is
	// the degenerate always-reject regime the load test exists to expose.
	_, ts := newTestServer(t, Config{
		Policy:   admission.DeadlineMonotonic,
		Overload: NewTokenBucket(5, 10),
	})
	cfg := LoadConfig{
		Seed:          7,
		Tenants:       2,
		Duration:      300 * time.Millisecond,
		RatePerTenant: 400,
		CV:            4,
		PoolJobs:      6,
		BurstSize:     3,
	}
	res, err := RunLoad(context.Background(), cfg, ts.URL, "token-bucket", nil)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("result has %d errors, samples %v", res.Errors, res.ErrorSamples)
	}
	if res.Sheds == 0 || res.ShedRate <= 0 {
		t.Fatalf("starved bucket shed nothing: %+v", res)
	}
}
