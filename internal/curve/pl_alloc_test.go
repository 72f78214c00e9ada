package curve

import "testing"

// This file pins the arena discipline: with a warm non-nil Scratch, the
// hot kernels must not touch the heap at all. take's documentation points
// here — if a kernel under-sizes a take request, the append past capacity
// reallocates on the heap and these assertions catch it.

// assertNoAllocs runs f repeatedly and fails if it averages any heap
// allocation per run. The threshold is 0.5 rather than 0 to tolerate a
// rare sync.Pool refill after a GC cycle, which is not a kernel bug.
func assertNoAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation forces spurious heap allocations")
	}
	if got := testing.AllocsPerRun(100, f); got > 0.5 {
		t.Errorf("%s: %.1f allocs/op with a warm Scratch, want 0", name, got)
	}
}

// allocDemand is a nondecreasing staircase (slope 0 with upward jumps),
// the shape of arrival/demand curves.
func allocDemand() pl {
	pts := []Point{{0, 2}}
	x, y := Time(0), Value(2)
	for i := 0; i < 12; i++ {
		x += Time(3 + i%4)
		pts = append(pts, Point{x, y})
		y += Value(1 + i%3)
		pts = append(pts, Point{x, y})
	}
	return canon(pts, 0)
}

// allocAvail is a continuous nondecreasing curve with slopes in {0, 1},
// the shape of availability/service curves.
func allocAvail() pl {
	pts := []Point{{0, 0}}
	x, y := Time(0), Value(0)
	for i := 0; i < 12; i++ {
		dx := Time(2 + i%5)
		x += dx
		if i%2 == 0 {
			y += Value(dx) // slope-1 ramp
		}
		pts = append(pts, Point{x, y})
	}
	return canon(pts, 1)
}

func TestKernelsAllocationFreeWithScratch(t *testing.T) {
	sc := GetScratch()
	defer PutScratch(sc)

	demand := allocDemand()
	avail := allocAvail()
	up, lo := &Curve{demand}, &Curve{avail}
	arr := up.JumpTimes(1)
	dep := lo.CompletionTimes(1, len(arr))

	kernels := []struct {
		name string
		run  func()
	}{
		{"addIn", func() { demand.addIn(sc, avail) }},
		{"subIn", func() { demand.subIn(sc, avail) }},
		{"negIn", func() { avail.negIn(sc) }},
		{"canonIn", func() {
			buf := sc.take(len(demand.pts))
			buf = append(buf, demand.pts...)
			canonIn(sc, buf, demand.tail)
		}},
		{"mergedXs", func() { mergedXs(sc, demand, avail) }},
		{"sumIn", func() { sumIn(sc, 0, 1, []pl{demand, demand}, []pl{avail}) }},
		{"sumRunningMin", func() { sumRunningMin(sc, 0, 0, []pl{demand}, []pl{avail}, 0) }},
		{"runningMinSeeded", func() { demand.subIn(sc, avail).runningMinSeeded(sc, 0) }},
		{"runningMaxIn", func() { avail.subIn(sc, demand).runningMaxIn(sc) }},
		{"clampMinIn", func() { avail.subIn(sc, demand).clampMinIn(sc, 0) }},
		{"clampMaxIn", func() { avail.clampMaxIn(sc, 7) }},
		{"minLowerIn", func() { avail.minLowerIn(sc, demand) }},
		{"composeMonotone", func() { composeMonotone(sc, avail, avail) }},
		{"shiftFlat", func() { demand.shiftFlat(sc, 3) }},
		{"MaxVerticalDeviation", func() { MaxVerticalDeviation(up, lo) }},
		{"MaxBacklog", func() { MaxBacklog(arr, dep) }},
	}

	for _, k := range kernels {
		k.run() // warm the arena slabs before measuring
		sc.Reset()
		assertNoAllocs(t, k.name, func() {
			k.run()
			sc.Reset()
		})
	}
}

// TestScratchSlabReuse pins the Reset/grow recycling contract directly: an
// evaluation that overflows into several slabs must reuse every one of
// them on the next checkout instead of reallocating.
func TestScratchSlabReuse(t *testing.T) {
	sc := GetScratch()
	defer PutScratch(sc)
	overflow := func() {
		// Three slab-sized takes force cur + two grows.
		sc.take(scratchSlab)
		sc.take(scratchSlab)
		sc.take(scratchSlab)
		sc.Reset()
	}
	overflow() // allocate the slabs once
	assertNoAllocs(t, "slab reuse across Reset", overflow)
}
