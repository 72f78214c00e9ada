package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"rta/internal/serve"
	"rta/internal/store"
)

// maxLateMs is the validity guard on the load generator: when the tail
// percentile of its dispatch lateness exceeds this, the run measured the
// machine.
const maxLateMs = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveServer is an in-process rta-serve listening on loopback.
type liveServer struct {
	srv     *serve.Server
	h       http.Handler
	st      *store.Store
	hs      *http.Server
	served  chan error
	addr    string // host:port it listens on
	tenants []*tenant
}

// close drains the listener and releases the server and its store.
func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	l.srv.Close()
	if l.st != nil {
		err = errors.Join(err, l.st.Close())
	}
	return err
}

// prebuild writes the durable workload's starting state into dir: the
// seeded history, logged by a store with Fsync off (the bytes are the
// same; only the wait differs), leaving the tenants as the history left
// them.
func (s serveSpec) prebuild(dir string, seed int64, tenants []*tenant, tl *tally, decided func(request, bool)) error {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Policy: s.policy, Store: st})
	s.seed(srv.Handler(), seed, tenants, tl, decided)
	srv.Close()
	return st.Close()
}

// openServer builds a ready server: with a store, by recovering dir; else
// by seeding fresh tenants through the handler.
func (s serveSpec) openServer(dir string, seed int64, pools []*pool, prebuilt []*tenant, tl *tally) (*serve.Server, *store.Store, []*tenant, error) {
	cfg := serve.Config{Policy: s.policy}
	if !s.durable {
		srv := serve.New(cfg)
		tenants := newTenants(seed, pools)
		s.seed(srv.Handler(), seed, tenants, tl, nil)
		return srv, nil, tenants, nil
	}
	st, err := store.Open(store.Config{Dir: dir, Fsync: true})
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Store = st
	srv := serve.New(cfg)
	for _, note := range srv.Recovery() {
		tl.fail("recovery: %s", note)
	}
	if rep := st.Report(); rep.QuarantinedTenants > 0 {
		tl.fail("recovery quarantined %d tenants: %v", rep.QuarantinedTenants, rep.Details)
	}
	return srv, st, prebuilt, nil
}

// start is one timed set-up: a ready, seeded server listening on loopback.
func (s serveSpec) start(dir string, seed int64, pools []*pool, prebuilt []*tenant, tl *tally) (*liveServer, error) {
	srv, st, tenants, err := s.openServer(dir, seed, pools, prebuilt, tl)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	l := &liveServer{srv: srv, h: srv.Handler(), st: st, served: make(chan error, 1), addr: ln.Addr().String(), tenants: tenants}
	l.hs = &http.Server{Handler: l.h}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// checkState verifies that the server holds exactly the tenants' tracked
// admitted jobs; after a restart this is the recovery oracle.
func checkState(h http.Handler, tenants []*tenant, s serveSpec, tl *tally) {
	for _, tn := range tenants {
		tl.attempted++
		code, body := call(h, http.MethodGet, "/v1/tenants/"+tn.id+"/bounds", nil)
		if code != http.StatusOK {
			tl.fail("bounds %s: status %d: %.200s", tn.id, code, body)
			continue
		}
		if err := checkBounds(tn, s.policy, body); err != nil {
			tl.fail("%v", err)
		}
	}
}

func (s serveSpec) run(cfg runConfig) (*result, error) {
	res := newResult()
	tl := &res.tl
	pools, err := s.pools(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.tmp, "state")
	var prebuilt []*tenant
	if s.durable {
		prebuilt = newTenants(cfg.seed, pools)
		if err := s.prebuild(dir, cfg.seed, prebuilt, tl, nil); err != nil {
			return nil, err
		}
	}
	var live *liveServer
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	setups, err := timeSetup(func() (time.Duration, error) {
		if live != nil {
			if err := live.close(); err != nil {
				return 0, err
			}
			live = nil
		}
		t0 := time.Now()
		var err error
		live, err = s.start(dir, cfg.seed, pools, prebuilt, tl)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	checkState(live.h, live.tenants, s, tl)

	conns := runtime.NumCPU()
	g := &loadgen{addr: live.addr, conns: conns, tenants: live.tenants, tl: tl}

	// The run alternates open-loop segments and closed-loop batches. Each
	// segment is one latency window; capacity is the median over the
	// batches of ops completed per second.
	window := time.Duration(cfg.seconds-capacitySeconds) * time.Second
	dec, qry := make([][]float64, cfg.windows), make([][]float64, cfg.windows)
	var late, wait, rtt, capacity []float64
	for k, rd := range s.plan(window, cfg.windows) {
		for _, sm := range g.run(time.Now(), rd.open, rd.dues) {
			if !sm.ok {
				continue
			}
			// An op's latency runs from its due time, so the wait behind a
			// busy connection or the tenant's previous decision counts, less
			// the load generator's own lateness in sending it once it could
			// go: that is the harness's timer and scheduler, not the server
			// (an idle Go runtime sleeps in whole milliseconds, so a gap of
			// 0.1 ms between due times can become 1 ms).
			lat := ms(sm.done.Sub(sm.due) - sm.sent.Sub(sm.enabled))
			if sm.kind == opQuery {
				qry[k] = append(qry[k], lat)
			} else {
				dec[k] = append(dec[k], lat)
			}
			late = append(late, ms(sm.sent.Sub(sm.enabled)))
			wait = append(wait, ms(sm.sent.Sub(sm.due)))
			rtt = append(rtt, ms(sm.done.Sub(sm.sent)))
		}
		t0 := time.Now()
		g.run(t0, rd.batch, nil)
		capacity = append(capacity, float64(len(rd.batch))/time.Since(t0).Seconds())
	}
	res.info["run.grants"] = float64(g.grants)
	res.info["run.denies"] = float64(g.denies)
	res.info["run.removes"] = float64(g.removes)
	res.metrics["capacity_ops_per_s"] = median(capacity)
	res.samples["capacity"] = len(capacity) * s.batch
	if err := res.latencies(dec, qry, cfg.tail); err != nil {
		return nil, err
	}
	lateTail, err := percentile(late, cfg.tail)
	if err != nil {
		return nil, fmt.Errorf("lateness: %w", err)
	}
	res.info["loadgen.late_tail_ms"] = lateTail
	res.info["loadgen.client_wait_p50_ms"] = median(wait)
	res.info["http.rtt_p50_ms"] = median(rtt)
	res.info["loadgen.connections"] = float64(conns)
	if lateTail > maxLateMs {
		res.invalid = fmt.Sprintf("load generator p%s lateness %.3g ms exceeds %d ms", pctLabel(cfg.tail), lateTail, maxLateMs)
	}

	checkState(live.h, live.tenants, s, tl)
	if s.durable {
		// Restart oracle: a reopened store replayed by a fresh server must
		// serve byte-identical bounds.
		before := make([][]byte, len(live.tenants))
		for t, tn := range live.tenants {
			_, before[t] = call(live.h, http.MethodGet, "/v1/tenants/"+tn.id+"/bounds", nil)
		}
		if err := live.close(); err != nil {
			return nil, err
		}
		tenants := live.tenants
		live = nil
		srv, st, _, err := s.openServer(dir, cfg.seed, pools, tenants, tl)
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		for t, tn := range tenants {
			tl.attempted++
			if _, after := call(h, http.MethodGet, "/v1/tenants/"+tn.id+"/bounds", nil); !bytes.Equal(after, before[t]) {
				tl.fail("restart %s: bounds %.200s after restart, %.200s before", tn.id, after, before[t])
			}
		}
		srv.Close()
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	if live != nil {
		if err := live.close(); err != nil {
			return nil, err
		}
		live = nil
	}

	// A second batch of set-ups, on a second copy of the starting state,
	// samples the machine half a minute after the first.
	dir2 := filepath.Join(cfg.tmp, "state-2")
	var prebuilt2 []*tenant
	if s.durable {
		prebuilt2 = newTenants(cfg.seed, pools)
		if err := s.prebuild(dir2, cfg.seed, prebuilt2, tl, nil); err != nil {
			return nil, err
		}
	}
	more, err := timeSetup(func() (time.Duration, error) {
		t0 := time.Now()
		l, err := s.start(dir2, cfg.seed, pools, prebuilt2, tl)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, l.close()
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(append(setups, more...))
	return res, nil
}
