package curve

import "sync"

// Scratch is a per-evaluation bump arena for the breakpoint buffers of the
// curve kernels. The hot transforms (sumIn, runningMinSeeded, clampMax,
// minLower, composeMonotone, Staircase, ComposeFCFSIn, ...) build several
// intermediate point lists per call; without an arena every one of them is
// a short-lived heap allocation, and the large-system analyses spend a
// double-digit share of their time in the allocator and the garbage
// collector. A Scratch hands out slices carved from reusable slabs
// instead, so one subjob evaluation allocates at most a handful of slabs
// the first time and none at steady state.
//
// Ownership contract (enforced by convention and checked by the package
// fuzz target):
//
//   - Buffers returned by take may be used only while the Scratch is
//     checked out; Reset (or PutScratch) recycles every slab at once.
//   - An exported *Curve must never alias scratch memory: every kernel
//     canonicalizes its *final* result with a nil Scratch (canonIn(nil,
//     ...) makes an exact-size heap copy), so results stay valid after the
//     arena is recycled. Only intermediates live in the arena.
//   - A Scratch is not safe for concurrent use; check one out per
//     goroutine (the engines check one out per subjob evaluation).
//
// A nil *Scratch is valid everywhere and falls back to plain heap
// allocation, so cold paths and tests need no plumbing.
type Scratch struct {
	cur  []Point   // active slab; len = used prefix
	full [][]Point // exhausted slabs, emptied back into free by Reset
	free [][]Point // empty retained slabs, reused before allocating
}

// scratchSlab is the default slab capacity in points (16 bytes each). One
// subjob evaluation of the large benchmark systems peaks at a few thousand
// intermediate points, so the common case is a single slab with no growth.
const scratchSlab = 8192

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a Scratch out of the shared pool. Pair with
// PutScratch (typically deferred) to recycle the slabs.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets sc and returns it to the shared pool. A nil sc is a
// no-op.
func PutScratch(sc *Scratch) {
	if sc == nil {
		return
	}
	sc.Reset()
	scratchPool.Put(sc)
}

// Reset recycles every slab at once: previously taken buffers become
// invalid and their space is reused by subsequent takes. Slab capacity is
// retained (Points contain no pointers, so retained slabs pin nothing).
func (sc *Scratch) Reset() {
	if sc == nil {
		return
	}
	if sc.cur != nil {
		sc.full = append(sc.full, sc.cur)
		sc.cur = nil
	}
	for _, s := range sc.full {
		sc.free = append(sc.free, s[:0])
	}
	sc.full = sc.full[:0]
	// Start the next checkout on the largest retained slab so evaluations
	// that fit in one slab stay on one.
	best := -1
	for i, s := range sc.free {
		if best < 0 || cap(s) > cap(sc.free[best]) {
			best = i
		}
	}
	if best >= 0 {
		sc.cur = sc.free[best][:0]
		sc.free[best] = sc.free[len(sc.free)-1]
		sc.free = sc.free[:len(sc.free)-1]
	}
}

// take returns an empty slice with capacity exactly n carved from the
// arena; appending past n reallocates on the heap (safe, but defeats the
// arena — kernels size their requests from input lengths so that never
// happens; see the allocation assertions in pl_alloc_test.go). A nil
// receiver allocates from the heap.
func (sc *Scratch) take(n int) []Point {
	if sc == nil {
		return make([]Point, 0, n)
	}
	if cap(sc.cur)-len(sc.cur) < n {
		sc.grow(n)
	}
	off := len(sc.cur)
	sc.cur = sc.cur[:off+n]
	return sc.cur[off : off : off+n]
}

// grow retires the active slab and activates one with room for n points,
// reusing a retained empty slab when one fits so steady state allocates
// nothing.
func (sc *Scratch) grow(n int) {
	if sc.cur != nil {
		sc.full = append(sc.full, sc.cur)
	}
	for i, s := range sc.free {
		if cap(s) >= n {
			sc.cur = s[:0]
			sc.free[i] = sc.free[len(sc.free)-1]
			sc.free = sc.free[:len(sc.free)-1]
			return
		}
	}
	size := scratchSlab
	if n > size {
		size = n
	}
	sc.cur = make([]Point, 0, size)
}
