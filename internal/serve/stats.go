package serve

import (
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets; bucket i covers
// [2^i, 2^(i+1)) nanoseconds, which spans 1ns..~9s — decision latencies
// sit in the µs..ms range, comfortably inside.
const histBuckets = 34

// hist is a lock-free log2 latency histogram. It trades exactness for a
// contention-free hot path: each decision does one atomic increment. The
// load-test harness computes exact quantiles client-side from raw samples
// (metrics.Quantile); the server-side histogram is the always-on
// operational view.
type hist struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func (h *hist) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	i := 0
	for v := ns >> 1; v != 0 && i < histBuckets-1; v >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// quantileNs returns the upper bound of the bucket holding the
// nearest-rank q-quantile — an upper estimate with log2 resolution.
func (h *hist) quantileNs(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return uint64(1) << (i + 1)
		}
	}
	return uint64(1) << histBuckets
}

// snapshot returns the non-empty buckets as (upper bound ns, count)
// pairs, plus count and mean.
func (h *hist) snapshot() ([]HistBucket, uint64, float64) {
	var out []HistBucket
	n := h.count.Load()
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			out = append(out, HistBucket{UpToNs: uint64(1) << (i + 1), Count: c})
		}
	}
	mean := 0.0
	if n > 0 {
		mean = float64(h.sumNs.Load()) / float64(n)
	}
	return out, n, mean
}

// counters aggregates the server's request accounting. All fields are
// atomic: the hot path never takes a server-wide lock.
type counters struct {
	admitsGranted atomic.Uint64
	admitsDenied  atomic.Uint64
	removes       atomic.Uint64
	queries       atomic.Uint64
	sheds         atomic.Uint64
	clientErrors  atomic.Uint64 // 4xx other than 429
	serverErrors  atomic.Uint64 // 5xx
	evictions     atomic.Uint64 // TTL-evicted tenants
	// replayQuarantines counts tenants whose recovered log would not
	// replay into a consistent controller at startup.
	replayQuarantines atomic.Uint64
	// unlogged counts operations and snapshots the store refused to
	// queue (a sequencing or encoding error no retry can fix).
	unlogged atomic.Uint64
}

// HistBucket is one non-empty histogram bucket in /stats.
type HistBucket struct {
	// UpToNs is the exclusive upper bound of the bucket in nanoseconds.
	UpToNs uint64 `json:"up_to_ns"`
	// Count is the number of decisions that landed in it.
	Count uint64 `json:"count"`
}

// StatsSnapshot is the /stats response document.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Overload      string  `json:"overload_policy"`
	Tenants       int     `json:"tenants"`
	AdmittedJobs  int     `json:"admitted_jobs"`

	AdmitsGranted uint64 `json:"admits_granted"`
	AdmitsDenied  uint64 `json:"admits_denied"`
	Removes       uint64 `json:"removes"`
	Queries       uint64 `json:"queries"`
	Sheds         uint64 `json:"sheds"`
	ClientErrors  uint64 `json:"client_errors"`
	ServerErrors  uint64 `json:"server_errors"`

	// Evictions counts tenants dropped by the idle-TTL janitor.
	Evictions uint64 `json:"evictions"`

	// Decision latency (admit/remove round trips inside the handler),
	// from the log2 histogram: quantiles are bucket upper bounds.
	DecisionCount  uint64       `json:"decision_count"`
	DecisionMeanNs float64      `json:"decision_mean_ns"`
	DecisionP50Ns  uint64       `json:"decision_p50_ns"`
	DecisionP99Ns  uint64       `json:"decision_p99_ns"`
	DecisionHist   []HistBucket `json:"decision_histogram,omitempty"`

	// Store is present when the server runs with a durable store.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the durability section of /stats.
type StoreStats struct {
	// Degraded is true while some tenant's log queue holds operations
	// whose flush failed; the server keeps deciding from memory, but a
	// crash now would lose those queued suffixes.
	Degraded bool `json:"degraded"`
	// Errors counts failed store operations (writes, and DroppedOps).
	Errors uint64 `json:"store_errors"`
	// Pending is the sum of the tenants' failed backlogs.
	Pending int `json:"pending_ops"`
	// Snapshots counts snapshots written.
	Snapshots uint64 `json:"snapshots"`
	// DroppedOps counts operations and snapshots the store refused to
	// queue as unretryable.
	DroppedOps uint64 `json:"dropped_ops"`
	// ReplayQuarantines counts tenants quarantined at startup because
	// their recovered log did not replay into a consistent controller.
	ReplayQuarantines uint64 `json:"replay_quarantines"`
}
