package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"rta/internal/metrics"
	"rta/internal/model"
	"rta/internal/workload"
)

// LoadConfig parameterizes one load-test run against one server.
//
// The driver models the paper's admission scenario under serving-system
// traffic: each tenant owns a job-shop draw (internal/workload, Bursty
// releases) and a client that fires admit/remove/query requests with
// Gamma-distributed interarrivals — CV 1 is Poisson, the default CV 4 is
// the high-variance bursty regime of the H5 token-bucket study, where
// requests cluster into bursts that overrun any per-decision budget
// sized for the mean rate.
type LoadConfig struct {
	// Seed keys every random draw (job shops, interarrivals, op mix).
	Seed int64 `json:"seed"`
	// Tenants is the number of independent shards driven concurrently.
	Tenants int `json:"tenants"`
	// Duration bounds the wall-clock driving time.
	Duration time.Duration `json:"duration_ns"`
	// RatePerTenant is the mean decision-request rate per tenant (1/s).
	RatePerTenant float64 `json:"rate_per_tenant"`
	// CV is the interarrival coefficient of variation (Gamma renewal).
	CV float64 `json:"cv"`
	// PoolJobs is the per-tenant pool of admissible jobs cycled through
	// admit/remove churn.
	PoolJobs int `json:"pool_jobs"`
	// BurstSize feeds the workload generator's Bursty release pattern.
	BurstSize int `json:"burst_size"`
}

// DefaultLoad is the default traffic of rta-serve -loadtest.
var DefaultLoad = LoadConfig{
	Seed:          1,
	Tenants:       4,
	Duration:      2 * time.Second,
	RatePerTenant: 150,
	CV:            4,
	PoolJobs:      10,
	BurstSize:     4,
}

// LoadResult summarizes one run. Latency quantiles are exact
// nearest-rank over the recorded samples (metrics.Quantile) — the same
// convention as every other quantile in this toolkit.
type LoadResult struct {
	Policy   string  `json:"policy"`
	Seconds  float64 `json:"seconds"`
	Offered  int     `json:"offered_requests"`
	Admits   int     `json:"admits_granted"`
	Denied   int     `json:"admits_denied"`
	Removes  int     `json:"removes"`
	Queries  int     `json:"queries"`
	Sheds    int     `json:"sheds_429"`
	Errors   int     `json:"errors"`
	ShedRate float64 `json:"shed_rate"`
	// Decision latencies (admit/remove) in milliseconds.
	DecisionP50Ms float64 `json:"decision_p50_ms"`
	DecisionP99Ms float64 `json:"decision_p99_ms"`
	// Query latencies (/bounds) in milliseconds.
	QueryP50Ms float64 `json:"query_p50_ms"`
	QueryP99Ms float64 `json:"query_p99_ms"`
	// Throughput is completed (non-shed, non-error) requests per second.
	Throughput float64 `json:"throughput_rps"`
	// ErrorSamples holds up to a few exemplar error bodies (diagnostics;
	// Errors carries the full count).
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// tenantDriver drives one tenant's churn loop.
type tenantDriver struct {
	id     string
	client *http.Client
	base   string
	rng    *rand.Rand
	cfg    LoadConfig
	procs  *model.System
	pool   []model.Job

	admitted []int // pool indices currently admitted
	free     []int // pool indices not admitted

	decisions []model.Ticks // ns
	queries   []model.Ticks // ns
	offered   int
	admits    int
	denied    int
	removes   int
	queriesN  int
	sheds     int
	errors    []string
}

// RunLoad drives baseURL with cfg and labels the result with policy (the
// overload policy of the target server — the driver cannot see it from
// outside, so the caller names it).
func RunLoad(ctx context.Context, cfg LoadConfig, baseURL, policy string, client *http.Client) (*LoadResult, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Tenants <= 0 || cfg.PoolJobs <= 0 || cfg.RatePerTenant <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: load config needs positive tenants, pool, rate and duration")
	}

	drivers := make([]*tenantDriver, cfg.Tenants)
	for i := range drivers {
		d, err := newDriver(cfg, baseURL, client, i)
		if err != nil {
			return nil, err
		}
		drivers[i] = d
	}
	// Create tenants up front so the measured window is pure churn.
	for _, d := range drivers {
		if err := d.createTenant(ctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	errc := make(chan error, len(drivers))
	for _, d := range drivers {
		go func(d *tenantDriver) { errc <- d.run(ctx, deadline) }(d)
	}
	for range drivers {
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start).Seconds()

	res := &LoadResult{Policy: policy, Seconds: elapsed}
	var decisions, queries []model.Ticks
	completed := 0
	for _, d := range drivers {
		res.Offered += d.offered
		res.Admits += d.admits
		res.Denied += d.denied
		res.Removes += d.removes
		res.Queries += d.queriesN
		res.Sheds += d.sheds
		res.Errors += len(d.errors)
		for _, e := range d.errors {
			if e != "" && len(res.ErrorSamples) < 8 {
				res.ErrorSamples = append(res.ErrorSamples, e)
			}
		}
		completed += d.admits + d.denied + d.removes + d.queriesN
		decisions = append(decisions, d.decisions...)
		queries = append(queries, d.queries...)
	}
	if res.Offered > 0 {
		res.ShedRate = float64(res.Sheds) / float64(res.Offered)
	}
	res.Throughput = float64(completed) / elapsed
	sort.Slice(decisions, func(a, b int) bool { return decisions[a] < decisions[b] })
	sort.Slice(queries, func(a, b int) bool { return queries[a] < queries[b] })
	const ms = 1e6
	res.DecisionP50Ms = float64(metrics.Quantile(decisions, 0.50)) / ms
	res.DecisionP99Ms = float64(metrics.Quantile(decisions, 0.99)) / ms
	res.QueryP50Ms = float64(metrics.Quantile(queries, 0.50)) / ms
	res.QueryP99Ms = float64(metrics.Quantile(queries, 0.99)) / ms
	return res, nil
}

func newDriver(cfg LoadConfig, baseURL string, client *http.Client, i int) (*tenantDriver, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
	wcfg := workload.Default
	wcfg.Jobs = cfg.PoolJobs
	wcfg.Arrival = workload.Bursty
	wcfg.BurstSize = cfg.BurstSize
	if wcfg.BurstSize < 1 {
		wcfg.BurstSize = 1
	}
	// Deliberately over-subscribed so admission decisions split between
	// grants and denials: the interesting regime is a churning frontier,
	// not a pool that always fits.
	wcfg.Utilization = 0.7
	draw, err := workload.Generate(rng, wcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: load workload: %w", err)
	}
	d := &tenantDriver{
		id:     fmt.Sprintf("lt%d", i),
		client: client,
		base:   baseURL,
		rng:    rng,
		cfg:    cfg,
		procs:  &model.System{Procs: draw.System.Procs},
		pool:   draw.System.Jobs,
	}
	for k := range d.pool {
		d.pool[k].Name = fmt.Sprintf("job%02d", k)
		d.free = append(d.free, k)
	}
	return d, nil
}

func (d *tenantDriver) createTenant(ctx context.Context) error {
	spec, err := json.Marshal(d.procs)
	if err != nil {
		return err
	}
	status, body, err := d.do(ctx, http.MethodPut, "/v1/tenants/"+d.id, spec, nil)
	if err != nil {
		return fmt.Errorf("serve: creating tenant %s: %w", d.id, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("serve: creating tenant %s: status %d: %s", d.id, status, body)
	}
	return nil
}

// run fires requests until the deadline, pacing with Gamma interarrivals.
func (d *tenantDriver) run(ctx context.Context, deadline time.Time) error {
	meanGap := 1 / d.cfg.RatePerTenant
	for time.Now().Before(deadline) && ctx.Err() == nil {
		gap := workload.GammaInterarrival(d.rng, meanGap, d.cfg.CV)
		if gap > 0 {
			t := time.NewTimer(time.Duration(gap * float64(time.Second)))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
		if err := d.step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// step performs one operation: admit when nothing is admitted, otherwise
// a 40/20/40 admit/remove/query mix.
func (d *tenantDriver) step(ctx context.Context) error {
	d.offered++
	switch p := d.rng.Float64(); {
	case len(d.admitted) == 0 || (p < 0.4 && len(d.free) > 0):
		return d.stepAdmit(ctx)
	case p < 0.6 && len(d.admitted) > 0:
		return d.stepRemove(ctx)
	default:
		return d.stepQuery(ctx)
	}
}

func (d *tenantDriver) stepAdmit(ctx context.Context) error {
	if len(d.free) == 0 {
		return d.stepQuery(ctx)
	}
	i := d.rng.Intn(len(d.free))
	k := d.free[i]
	body, err := json.Marshal(&d.pool[k])
	if err != nil {
		return err
	}
	var resp admitResponse
	status, raw, lat, err := d.timedDo(ctx, http.MethodPost, "/v1/tenants/"+d.id+"/admit", body, &resp)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		// Only served decisions enter the latency sample: counting the
		// fast 429s would deflate the shedding policy's quantiles — the
		// uncalibrated-bucket artifact the H5 study warns about. Shed cost
		// is reported as ShedRate, next to the latencies, never inside
		// them.
		d.decisions = append(d.decisions, lat)
		if resp.Admitted {
			d.admits++
			d.free = append(d.free[:i], d.free[i+1:]...)
			d.admitted = append(d.admitted, k)
		} else {
			d.denied++
		}
	case http.StatusTooManyRequests:
		d.sheds++
	default:
		d.noteError("admit", status, raw)
	}
	return nil
}

func (d *tenantDriver) stepRemove(ctx context.Context) error {
	i := d.rng.Intn(len(d.admitted))
	k := d.admitted[i]
	body, _ := json.Marshal(removeRequest{Name: d.pool[k].Name})
	var resp removeResponse
	status, raw, lat, err := d.timedDo(ctx, http.MethodPost, "/v1/tenants/"+d.id+"/remove", body, &resp)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		d.decisions = append(d.decisions, lat)
		if resp.Removed {
			d.removes++
			d.admitted = append(d.admitted[:i], d.admitted[i+1:]...)
			d.free = append(d.free, k)
		}
	case http.StatusTooManyRequests:
		d.sheds++
	default:
		d.noteError("remove", status, raw)
	}
	return nil
}

func (d *tenantDriver) stepQuery(ctx context.Context) error {
	var resp boundsResponse
	status, raw, lat, err := d.timedDo(ctx, http.MethodGet, "/v1/tenants/"+d.id+"/bounds", nil, &resp)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		d.queries = append(d.queries, lat)
		d.queriesN++
	case http.StatusTooManyRequests:
		d.sheds++
	default:
		d.noteError("bounds", status, raw)
	}
	return nil
}

func (d *tenantDriver) noteError(op string, status int, body []byte) {
	if len(d.errors) < 8 { // keep a few exemplars, count the rest
		d.errors = append(d.errors, fmt.Sprintf("%s: status %d: %s", op, status, body))
	} else {
		d.errors = append(d.errors, "")
	}
}

// timedDo is do plus the round-trip latency in nanoseconds.
func (d *tenantDriver) timedDo(ctx context.Context, method, path string, body []byte, out any) (int, []byte, model.Ticks, error) {
	start := time.Now()
	status, raw, err := d.do(ctx, method, path, body, out)
	return status, raw, time.Since(start).Nanoseconds(), err
}

func (d *tenantDriver) do(ctx context.Context, method, path string, body []byte, out any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("serve: decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, raw, nil
}

// RunLocalLoad starts an in-process server configured by cfg on a
// loopback port, drives it with lcfg, and tears the server down. This is
// the self-contained load-test path of `rta-serve -loadtest`.
func RunLocalLoad(ctx context.Context, cfg Config, lcfg LoadConfig) (*LoadResult, error) {
	s := New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	res, err := RunLoad(ctx, lcfg, "http://"+ln.Addr().String(), s.overload.Name(), nil)
	if err != nil {
		return nil, err
	}
	select {
	case serr := <-errc:
		if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return nil, serr
		}
	default:
	}
	return res, nil
}
