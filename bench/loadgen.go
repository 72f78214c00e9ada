package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// sample is the timing of one sent op.
type sample struct {
	kind opKind
	// due is when the schedule wanted the op sent; enabled is when it
	// could first have been sent (due, its tenant's previous decision
	// done, and a connection free); sent and done bracket the round trip.
	due, enabled, sent, done time.Time
	ok                       bool
}

// loadgen drives a server over at most conns HTTP connections. Each
// tenant's decisions are sent strictly one after another in schedule
// order, so the decision sequence, and with it every grant and denial,
// repeats exactly for a seed; queries go out on any free connection.
type loadgen struct {
	addr    string // host:port of the server
	conns   int
	tenants []*tenant
	tl      *tally
	// Decision outcomes of every op this loadgen sent.
	grants, denies, removes int
}

type sendJob struct {
	idx int
	rq  request
}

type reply struct {
	idx        int
	sent, done time.Time
	status     int
	body       []byte
	err        error
}

// client is one keep-alive HTTP/1.1 connection, used by one goroutine.
// It writes each request and reads its reply on the calling goroutine:
// net/http's client hands every request to per-connection reader and
// writer goroutines, and those hand-offs cost the load generator CPU and
// wake-ups that it would take from the server it measures.
type client struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (c *client) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

func (c *client) send(j sendJob) reply {
	r := reply{idx: j.idx}
	r.status, r.body, r.err = c.roundTrip(j.rq, &r.sent)
	r.done = time.Now()
	if r.err != nil {
		c.close() // the next request dials afresh
	}
	return r
}

// roundTrip sends one request and reads its reply, setting sent just
// before the request's first byte is written.
func (c *client) roundTrip(rq request, sent *time.Time) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.br, c.bw = nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	}
	if err := c.nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return 0, nil, err
	}
	body := rq.body()
	c.bw.WriteString(rq.method() + " " + rq.path() + " HTTP/1.1\r\nHost: rta-serve\r\n")
	if rq.kind != opQuery {
		c.bw.WriteString("Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	*sent = time.Now()
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// run sends every op and returns their samples, indexed like the ops.
//
// Open loop (dues non-nil): op i is sent no earlier than start+dues[i].
// Closed loop (dues nil): an op is sent as soon as a connection and its
// tenant are free, but only while it lies within lookahead of the oldest
// unsent op, so cheap queries cannot overtake blocked decisions and skew
// the measured mix.
func (g *loadgen) run(start time.Time, ops []schedOp, dues []time.Duration) []sample {
	work := make(chan sendJob)
	replies := make(chan reply, g.conns)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{addr: g.addr}
			defer c.close()
			for j := range work {
				replies <- c.send(j)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()

	var queries []int
	decisions := make([][]int, len(g.tenants))
	busy := make([]bool, len(g.tenants))
	reqs := make([]request, len(ops))
	samples := make([]sample, len(ops))
	for i, op := range ops {
		if op.kind == opQuery {
			queries = append(queries, i)
		} else {
			decisions[op.tenant] = append(decisions[op.tenant], i)
		}
	}
	// idle holds, earliest first, when each idle connection became free.
	idle := make([]time.Time, g.conns)
	for i := range idle {
		idle[i] = start
	}
	inflight := 0
	for {
		now := time.Now()
		best, oldest := -1, len(ops)
		if len(queries) > 0 {
			best, oldest = queries[0], queries[0]
		}
		for t, q := range decisions {
			if len(q) > 0 {
				oldest = min(oldest, q[0])
				if !busy[t] && (best < 0 || q[0] < best) {
					best = q[0]
				}
			}
		}
		if len(idle) == 0 || (dues == nil && best >= oldest+lookahead) {
			best = -1
		}
		var timer *time.Timer
		var wake <-chan time.Time
		if best >= 0 {
			dueAt := now
			if dues != nil {
				dueAt = start.Add(dues[best])
			}
			if !now.Before(dueAt) {
				op := ops[best]
				tn := g.tenants[op.tenant]
				enabled := dueAt
				if idle[0].After(enabled) {
					enabled = idle[0]
				}
				idle = idle[1:]
				rq := request{kind: opQuery, tenant: tn}
				if op.kind == opQuery {
					queries = queries[1:]
				} else {
					decisions[op.tenant] = decisions[op.tenant][1:]
					busy[op.tenant] = true
					rq = tn.resolve(op)
					if tn.lastDecision.After(enabled) {
						enabled = tn.lastDecision
					}
				}
				reqs[best] = rq
				samples[best] = sample{kind: rq.kind, due: dueAt, enabled: enabled}
				inflight++
				work <- sendJob{best, rq}
				continue
			}
			timer = time.NewTimer(dueAt.Sub(now))
			wake = timer.C
		}
		if wake == nil && inflight == 0 {
			return samples
		}
		select {
		case r := <-replies:
			if timer != nil {
				timer.Stop()
			}
			inflight--
			at := sort.Search(len(idle), func(i int) bool { return idle[i].After(r.done) })
			idle = append(idle, time.Time{})
			copy(idle[at+1:], idle[at:])
			idle[at] = r.done
			rq := reqs[r.idx]
			s := &samples[r.idx]
			s.sent, s.done = r.sent, r.done
			if rq.kind != opQuery {
				busy[ops[r.idx].tenant] = false
				rq.tenant.lastDecision = r.done
			}
			g.tl.attempted++
			if r.err != nil {
				g.tl.fail("%s %s: %v", rq.kind, rq.tenant.id, r.err)
				continue
			}
			committed, err := rq.settle(r.status, r.body)
			if err != nil {
				g.tl.fail("%v", err)
				continue
			}
			s.ok = true
			switch {
			case rq.kind == opRemove:
				g.removes++
			case rq.kind == opAdmit && committed:
				g.grants++
			case rq.kind == opAdmit:
				g.denies++
			}
		case <-wake:
		}
	}
}
