package par

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The TestLevel* cases run Run over one edge-free dependency level (nil
// deps/dependents), the barrier-to-barrier shape the pool started from;
// TestRunSubset* cover the edges.

// seq returns [0, n).
func seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestLevelRunsEveryID: every id runs exactly once at every worker count.
func TestLevelRunsEveryID(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		var ran [64]atomic.Int32
		err := Run(nil, seq(64), nil, nil, workers, func(id int) { ran[id].Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for id := range ran {
			if n := ran[id].Load(); n != 1 {
				t.Fatalf("workers=%d: id %d ran %d times", workers, id, n)
			}
		}
	}
}

// TestLevelPanicPropagates: the first worker panic re-raises on the
// calling goroutine after the pool has drained, at every worker count.
func TestLevelPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r != "boom 13" {
					t.Fatalf("workers=%d: recovered %v, want boom 13", workers, r)
				}
			}()
			Run(nil, seq(32), nil, nil, workers, func(id int) {
				if id == 13 {
					panic("boom 13")
				}
			})
			t.Fatalf("workers=%d: Run returned instead of panicking", workers)
		}()
	}
}

// TestLevelPanicStopsNewItems: after a panic, the pool stops pulling new
// items (in-flight ones drain; nothing new starts).
func TestLevelPanicStopsNewItems(t *testing.T) {
	var started atomic.Int32
	func() {
		defer func() { recover() }()
		Run(nil, seq(1000), nil, nil, 2, func(id int) {
			started.Add(1)
			if id == 0 {
				panic("stop")
			}
			time.Sleep(100 * time.Microsecond)
		})
	}()
	// The panicking item plus at most a handful in flight on the other
	// worker; far fewer than the full level.
	if n := started.Load(); n > 100 {
		t.Fatalf("%d items started after the panic, want a handful", n)
	}
}

// canceledAfter is a fake context that reports itself canceled once
// Err has been called n times — a deterministic probe for the polling
// contract (Run promises plain Err polling, no channel selects).
type canceledAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *canceledAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestLevelSerialCancellation: the serial path polls Err before each item
// and stops exactly where the fake context trips.
func TestLevelSerialCancellation(t *testing.T) {
	ctx := &canceledAfter{Context: context.Background(), limit: 3}
	var ran int
	err := Run(ctx, seq(10), nil, nil, 1, func(id int) { ran++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d items before cancellation, want 3", ran)
	}
}

// TestLevelParallelCancellation: a pre-canceled context runs nothing and
// returns its error from the parallel path too.
func TestLevelParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, seq(100), nil, nil, 8, func(id int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d items ran under a pre-canceled context", n)
	}
}

// TestLevelMidflightCancellation: cancelling mid-level stops new pulls and
// Run still returns the context error after the drain.
func TestLevelMidflightCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := Run(ctx, seq(10000), nil, nil, 4, func(id int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == int32(10000) {
		t.Fatal("cancellation did not stop the level")
	}
}

// TestLevelEmpty: an empty level is a no-op with a nil error.
func TestLevelEmpty(t *testing.T) {
	if err := Run(nil, nil, nil, nil, 8, func(id int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunSubsetOrder: over an induced subgraph Run respects the edges with
// both ends inside ids, drops the ones leaving it, and keeps the serial
// sweep's lowest-id-first order — for a prefix 0..n-1 (the cold sweep's
// rank-free fast path) and for a sparse subset alike.
func TestRunSubsetOrder(t *testing.T) {
	// A chain 0 <- 1 <- ... <- 9 (deps(i) = {i-1}) plus 9 <- 3: node 3
	// waits for 9 as well as 2.
	deps := func(id int) []int {
		var d []int
		if id > 0 {
			d = append(d, id-1)
		}
		if id == 3 {
			d = append(d, 9)
		}
		return d
	}
	dependents := func(id int) []int {
		var d []int
		if id < 9 {
			d = append(d, id+1)
		}
		if id == 9 {
			d = append(d, 3)
		}
		return d
	}
	for _, tc := range []struct {
		ids, want []int
	}{
		{[]int{0, 1, 2}, []int{0, 1, 2}},       // prefix: 2->3 leaves the subset
		{[]int{2, 3, 5, 9}, []int{2, 5, 9, 3}}, // 3 waits for 9 inside; 4 is outside, so 5 is free
		{[]int{4, 6, 7}, []int{4, 6, 7}},       // 6 <- 7 inside, 5 outside
		{[]int{0, 1, 2, 3}, []int{0, 1, 2, 3}}, // prefix: 9 is outside, 3 runs after 2
	} {
		for _, workers := range []int{1, 4} {
			var mu sync.Mutex
			var got []int
			err := Run(nil, tc.ids, deps, dependents, workers, func(id int) {
				mu.Lock()
				got = append(got, id)
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("ids %v workers=%d: %v", tc.ids, workers, err)
			}
			if workers == 1 && !slices.Equal(got, tc.want) {
				t.Fatalf("ids %v: serial order %v, want %v", tc.ids, got, tc.want)
			}
			pos := make(map[int]int, len(got))
			for i, id := range got {
				pos[id] = i
			}
			if len(pos) != len(tc.ids) {
				t.Fatalf("ids %v workers=%d: ran %v", tc.ids, workers, got)
			}
			for _, id := range tc.ids {
				for _, d := range deps(id) {
					if p, in := pos[d]; in && p > pos[id] {
						t.Fatalf("ids %v workers=%d: %d ran before its dependency %d", tc.ids, workers, id, d)
					}
				}
			}
		}
	}
}

// TestRunSubsetCycle: a cycle inside the subset starves the queue and is
// reported; the same cycle closed only through an outside node is not.
func TestRunSubsetCycle(t *testing.T) {
	// 1 <-> 2, and 4 -> 5 -> 6 -> 4 with 6 left out below.
	edges := map[int][]int{1: {2}, 2: {1}, 4: {6}, 5: {4}, 6: {5}}
	deps := func(id int) []int { return edges[id] }
	dependents := func(id int) []int {
		var d []int
		for n, ds := range edges {
			if slices.Contains(ds, id) {
				d = append(d, n)
			}
		}
		slices.Sort(d)
		return d
	}
	for _, workers := range []int{1, 4} {
		if err := Run(nil, []int{0, 1, 2, 3}, deps, dependents, workers, func(int) {}); err == nil {
			t.Fatalf("workers=%d: cycle 1<->2 not reported", workers)
		}
		if err := Run(nil, []int{4, 5}, deps, dependents, workers, func(int) {}); err != nil {
			t.Fatalf("workers=%d: cycle through an outside node reported: %v", workers, err)
		}
	}
}
