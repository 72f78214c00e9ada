// Package par provides the dependency-driven worker pool shared by the
// parallel analysis engines.
package par

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// Run executes f(id) once for every id of ids on up to workers
// goroutines, in the dependency order of the subgraph ids induce: id
// becomes ready the moment every node of deps(id) inside ids has
// completed, so independent nodes never wait for unrelated stragglers the
// way a level barrier makes them (the subjobs of a lightly-loaded
// processor flow through while a heavily-loaded one still grinds). ids
// must be sorted ascending and duplicate-free. deps and dependents
// describe the same edge set from both ends (dependents(id) lists the
// nodes that consume id's outputs); nil means no edges. Edges leaving ids
// are dropped: the caller asserts those inputs are already final (a cold
// sweep passes every node, a warm one the dirty dependents-closure, whose
// external dependencies are resident converged state). Run returns after
// every started call has finished.
//
// Ready nodes are dispatched lowest-id first, making the serial
// (workers <= 1) sweep a deterministic topological order that visits any
// subset in the same relative order as the full graph; parallel schedules
// vary, but callers obeying the correctness contract below get identical
// results for every worker count.
//
// Fault containment at the single end barrier:
//
//   - Cancellation: ctx (nil means context.Background) is polled before
//     each node starts. Once ctx is done no new node starts, in-flight
//     nodes drain, and Run returns ctx.Err(). Nodes that already ran are
//     left fully published; the caller decides how to surface the partial
//     state.
//   - Panics: a panic in f stops the pool the same way, and after the
//     drain the first recovered panic value is re-raised on the calling
//     goroutine, so engine-level recover/Boundary handling sees it exactly
//     as in the serial path.
//
// Both stop paths use plain polling (no channel selects), so a
// deterministic fake context can observe exactly how many nodes ran.
//
// A dependency cycle leaves nodes that can never become ready; Run
// detects the starvation (nothing ready, nothing in flight, nodes
// remaining) and returns an error naming the unreachable count. The
// engines reject cyclic systems before calling Run, so hitting this is a
// caller bug, not an input condition.
//
// Correctness contract for callers: each f(id) must write only state owned
// by id (plus state read exclusively by its dependents) and read only data
// finalized by its dependencies — then the schedule is unobservable and
// the results are identical for every worker count.
func Run(ctx context.Context, ids []int, deps, dependents func(id int) []int, workers int, f func(id int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(ids)
	if n == 0 {
		return ctx.Err()
	}
	// The pool works on ranks (positions in ids). A prefix 0..n-1 — every
	// node of a cold sweep — is its own rank table; any other subset is
	// looked up by binary search. -1 marks an edge leaving the subset.
	prefix := ids[n-1] == n-1
	rank := func(id int) int {
		if prefix {
			if id < n {
				return id
			}
			return -1
		}
		if i, ok := slices.BinarySearch(ids, id); ok {
			return i
		}
		return -1
	}
	indeg := make([]int, n)
	var ready minHeap
	for i, id := range ids {
		if deps != nil {
			for _, d := range deps(id) {
				if rank(d) >= 0 {
					indeg[i]++
				}
			}
		}
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	ready.init()
	// release marks rank i done and readies the dependents it unblocks.
	release := func(i int) {
		if dependents == nil {
			return
		}
		for _, d := range dependents(ids[i]) {
			if j := rank(d); j >= 0 {
				if indeg[j]--; indeg[j] == 0 {
					ready.push(j)
				}
			}
		}
	}

	if workers <= 1 || n == 1 {
		done := 0
		for len(ready) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := ready.pop()
			f(ids[i])
			done++
			release(i)
		}
		if done < n {
			return fmt.Errorf("par: %d of %d tasks unreachable (dependency cycle)", n-done, n)
		}
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = n
		inflight  = 0
		stop      bool
		cycleErr  error
		panicked  any
		havePanic bool
		wg        sync.WaitGroup
	)
	runOne := func(id int) (rec any) {
		defer func() { rec = recover() }()
		f(id)
		return nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for !stop && len(ready) == 0 && remaining > 0 {
					if inflight == 0 {
						// Nothing ready, nothing running, nodes left: a
						// dependency cycle starved the queue.
						stop = true
						cycleErr = fmt.Errorf("par: %d of %d tasks unreachable (dependency cycle)", remaining, n)
						cond.Broadcast()
						return
					}
					cond.Wait()
				}
				if stop || remaining == 0 {
					return
				}
				if ctx.Err() != nil {
					stop = true
					cond.Broadcast()
					return
				}
				i := ready.pop()
				inflight++
				mu.Unlock()
				rec := runOne(ids[i])
				mu.Lock()
				inflight--
				remaining--
				if rec != nil {
					if !havePanic {
						havePanic, panicked = true, rec
					}
					stop = true
				} else if !stop {
					release(i)
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if havePanic {
		panic(panicked)
	}
	if cycleErr != nil {
		return cycleErr
	}
	return ctx.Err()
}

// minHeap is a binary min-heap of node ranks: the pool dispatches the
// lowest ready rank (hence id) first, which makes the serial sweep deterministic and
// keeps parallel schedules close to the (job, hop) numbering.
type minHeap []int

func (h minHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *minHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *minHeap) pop() int {
	old := *h
	v := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return v
}

func (h minHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
