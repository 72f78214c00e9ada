package curve

// Availability computes the availability function of Theorem 3,
// Equation (10):
//
//	A(t) = t - sum_h S_h(t)
//
// where the S_h are the service functions of the subjobs with higher
// priority on the same processor. For the exact SPP analysis the theory
// guarantees that the sum of exact service functions grows at most at unit
// rate, so A is a valid Curve (non-decreasing with slopes in {0,1}); a
// violation indicates a bug and panics.
func Availability(services []*Curve) *Curve {
	return fromPL(linearSubSum(nil, 0, 1, services), "Availability")
}

// AvailabilityFromResidual is Availability over a memoized residual
// chain (nil = empty set of higher-priority subjobs). The engines keep
// one chain per processor over the priority order (Higher(r) is always
// an exact prefix of the processor's priority-sorted subjob list), and
// the residual already IS t - sum, so this only validates the Curve
// slope invariant that the exact-SPP theory guarantees; no pass over the
// breakpoints is needed. The result shares the residual's heap-backed
// canonical breakpoints and is bit-identical to subtracting the
// individual curves.
func AvailabilityFromResidual(r *Residual) *Curve {
	if r == nil {
		return fromPL(linearPL(0, 1), "Availability")
	}
	return fromPL(r.f, "Availability")
}

// linearSubSum returns y0 + slope*t - sum_i fs[i](t) in one signed k-way
// merge: the subtrahends ride the merge with a negative sign instead of
// being negated into throwaway copies first.
func linearSubSum(sc *Scratch, y0 Value, slope int64, fs []*Curve) pl {
	if len(fs) == 0 {
		return linearPL(y0, slope)
	}
	minus := make([]pl, len(fs))
	for i, f := range fs {
		minus[i] = f.f
	}
	return sumIn(sc, y0, slope, nil, minus)
}

// ServiceTransform computes the service function of Theorem 3,
// Equation (9):
//
//	S(t) = min_{0<=s<=t} { A(t) - A(s) + c(s) }
//	     = A(t) + inf_{0<=s<=t} ( c(s) - A(s) )
//
// for an availability curve A and a workload (demand) curve c. The same
// transform with A(t) = t yields the utilization function of Theorem 7.
// The infimum accounts for left limits at the workload jumps, matching the
// minimum over the closed real interval in the paper.
func ServiceTransform(avail, demand *Curve) *Curve {
	return fromPL(serviceTransform(nil, avail.f, demand.f), "ServiceTransform")
}

// ServiceTransformIn is ServiceTransform with all buffers carved from sc
// (nil = heap); when sc is non-nil the result aliases the arena and must
// be Cloned before it outlives the checkout.
func ServiceTransformIn(sc *Scratch, avail, demand *Curve) *Curve {
	return fromPL(serviceTransform(sc, avail.f, demand.f), "ServiceTransform")
}

func serviceTransform(sc *Scratch, avail, demand pl) pl {
	// The seed 0 is the empty-prefix candidate c(0-) - A(0-): without it,
	// workload released exactly at t = 0 would count as served instantly.
	// The fused kernel runs the minimum over c - A without materializing
	// the difference curve.
	m := sumRunningMin(sc, 0, 0, []pl{demand}, []pl{avail}, 0)
	return avail.addIn(sc, m)
}

// Utilization computes the utilization function of Theorem 7,
// Equation (20):
//
//	U(t) = min_{0<=s<=t} { t - s + G(s) }
//
// where G is the total workload of all subjobs on the processor
// (Equation 21).
func Utilization(total *Curve) *Curve {
	return ServiceTransform(Identity(), total)
}

// UtilizationIn is Utilization carved from sc; see ServiceTransformIn for
// the lifetime contract.
func UtilizationIn(sc *Scratch, total *Curve) *Curve {
	return fromPL(serviceTransform(sc, linearPL(0, 1), total.f), "ServiceTransform")
}

// LowerServiceNPIn computes a sound variant of Theorem 5's lower service
// bound for static priority non-preemptive scheduling:
//
//	S_lower(t) = Bup(t) - b + min_{0<=s<=t} { c(s) - Blo(s) }
//	Bup(t) = t - sum_h upper_h(t)
//	Blo(s) = s - sum_h lower_h(s)
//
// where b is the blocking time of Equation (15) and upper_h / lower_h are
// upper and lower bounds on the service consumed by the higher-priority
// subjobs on the same processor.
//
// Derivation (the busy-period argument behind Theorem 5): let u be the
// start of the backlog period of the subjob containing t, so all work
// arrived before u is done, S(u) = c(u-). During (u, t] the subjob is
// continuously backlogged and loses the processor only to higher-priority
// work - at most sum_h (S_h(t) - S_h(u)) <= sum_h (upper_h(t) -
// lower_h(u)) - and to a single non-preemptable lower-priority subjob that
// started before u and extends at most b past it. Hence
//
//	S(t) >= c(u-) + (t - u) - sum_h(upper_h(t) - lower_h(u)) - b
//	      = c(u-) + Bup(t) - Blo(u) - b,
//
// and taking the minimum over all candidate u (each candidate only
// under-estimates) gives the bound. Note two deliberate deviations from
// Equations (16)-(17) as printed, both required for soundness (our
// simulation-dominance tests reject the printed form): the availability at
// the interval end subtracts *upper* interference bounds while the window
// candidates subtract *lower* ones (the printed form uses the lower bounds
// at both ends, over-crediting availability), and the blocking enters as a
// constant offset rather than by shrinking the minimisation window to
// [0, t-b] (the shrunken window loses the self-capping s = t candidate and
// can credit service beyond the arrived work).
//
// Two refinements keep the bound tight as well as sound. First, the
// availability term is clamped at zero inside the minimum - the processor
// never takes service away - so the bound reads
//
//	S(t) >= min_u { c(u-) + max(0, Bup(t) - Blo(u) - b) }.
//
// Without the clamp, candidates with u close to t drag the minimum down to
// c(t-) - b - ... and below, and the bound of a barely-loaded processor
// can collapse to zero. Second, the candidate set is restricted to the
// instants where a backlog period can actually begin: the subjob's arrival
// times and u = 0 (a finite set, which is also what makes the clamped
// minimum efficiently computable). For the restriction to stay sound under
// latest-arrival demand curves, Blo is replaced by its running maximum
// (which only lowers candidates): if the true backlog period containing t
// started at u* with j* instances fully arrived before it, the candidate
// at the latest-arrival time L of instance j*+1 >= u* has
// c(L-) <= j* tau = S(u*) and runmax(Blo)(L) >= Blo(u*), so that candidate
// under-estimates S(t), and the minimum does too.
//
// The result is composed as F(runmax(Bup)(t) - b) where F is the lower
// envelope of the candidate "hockey sticks" k_i + (y - v_i)^+, capped by
// the total demand; the running maximum over the availability is sound
// because F is monotone and a running maximum of a pointwise lower bound
// on a non-decreasing function remains one.
//
// With b = 0 this is also the sound lower service bound for a *preemptive*
// static-priority processor inside an approximate (Theorem 4) pipeline.
//
// Intermediates are carved from sc (nil = heap); the result is always
// heap-backed.
func LowerServiceNPIn(sc *Scratch, b Value, upper, lower []*Curve, demand *Curve) *Curve {
	if b < 0 {
		panic("curve: negative blocking time")
	}
	ahat := linearSubSum(sc, 0, 1, upper).runningMaxIn(sc).clampMinIn(sc, 0)
	vhat := linearSubSum(sc, 0, 1, lower).runningMaxIn(sc)
	return lowerServiceNP(sc, ahat, vhat, b, demand)
}

// NPInterference bundles the interference-derived curves of Theorems 5
// and 6 for one fixed set of higher-priority subjobs, precomputed once
// and shared by every subjob whose interference set it is: under a strict
// priority order each set is a prefix of the processor's priority-sorted
// subjob list, and sched.Memo keeps one bundle per prefix position. The
// per-subjob transforms then run over these shared curves instead of
// re-deriving a fresh availability, running maximum and candidate
// transform from the summand lists for every subjob — the dominant cost
// of the static-priority pipeline on contended processors. All fields
// are heap-backed (they outlive any per-evaluation arena); exact integer
// algebra and unique canonical representations make every bound computed
// through a bundle bit-identical to the summand-list variants.
type NPInterference struct {
	availLo pl // Blo(t) = t - sum_h lower_h(t)       (Theorem 6's window term)
	availHi pl // Bup(t) = t - sum_h upper_h(t)       (Theorem 6's end term)
	ahat    pl // max(0, runmax(Bup)): Theorem 5's availability, before the -b offset
	vhat    pl // runmax(Blo): Theorem 5's candidate transform
}

// NewNPInterference precomputes the Theorem 5/6 interference curves from
// the residual availabilities over the higher-priority service bounds
// (nil = empty set, i.e. a fully available processor). The residuals are
// already Blo and Bup, so only the running maxima are derived here.
func NewNPInterference(resLo, resHi *Residual) *NPInterference {
	availLo, availHi := identityPL, identityPL
	if resLo != nil {
		availLo = resLo.f
	}
	if resHi != nil {
		availHi = resHi.f
	}
	// The running maxima expand into several full-size intermediate
	// curves; build them in a borrowed arena and heap-copy only the two
	// results the bundle keeps — unless the transforms were identities,
	// in which case the heap-backed availability is shared as-is.
	sc := GetScratch()
	defer PutScratch(sc)
	ahat := availHi.runningMaxIn(sc).clampMinIn(sc, 0)
	if !samePts(ahat, availHi) {
		ahat = ahat.heap(sc)
	}
	vhat := availLo.runningMaxIn(sc)
	if !samePts(vhat, availLo) {
		vhat = vhat.heap(sc)
	}
	return &NPInterference{availLo: availLo, availHi: availHi, ahat: ahat, vhat: vhat}
}

// samePts reports whether two pls share the same backing breakpoints
// (a transform's fast path returned its input unchanged).
func samePts(a, b pl) bool {
	return len(a.pts) == len(b.pts) && (len(a.pts) == 0 || &a.pts[0] == &b.pts[0])
}

// LowerServiceNP is the Theorem 5 lower service bound over the bundle's
// interference set; see LowerServiceNPIn for the derivation.
// Intermediates are carved from sc (nil = heap); the result is
// heap-backed.
func (ni *NPInterference) LowerServiceNP(sc *Scratch, b Value, demand *Curve) *Curve {
	if b < 0 {
		panic("curve: negative blocking time")
	}
	return lowerServiceNP(sc, ni.ahat, ni.vhat, b, demand)
}

// UpperServiceNP is the Theorem 6 upper service bound over the bundle's
// interference set; see UpperServiceNPIn for the derivation.
// Intermediates are carved from sc (nil = heap); the result is
// heap-backed.
func (ni *NPInterference) UpperServiceNP(sc *Scratch, demand *Curve) *Curve {
	return upperServiceNP(sc, ni.availLo, ni.availHi, demand)
}

// lowerServiceNP is the shared core, taking ahat = max(0, runmax(Bup))
// (before the blocking offset) and vhat = runmax(Blo). The blocking term
// is folded into the small candidate envelope F instead of the large
// availability: F(max(A(t)-b, 0)) == F'(max(A(t), 0)) pointwise for
// F'(y) = F(max(y-b, 0)) and b >= 0, so callers share one clamped
// running maximum across subjobs with different blocking terms and the
// per-subjob adjustment costs O(|F|), not O(|ahat|). Intermediates live
// in sc; the returned curve is heap-backed.
func lowerServiceNP(sc *Scratch, ahat, vhat pl, b Value, demand *Curve) *Curve {
	// Candidate sticks (v_i, k_i): u = 0 plus every arrival instant. A
	// stick is stored in a Point (X = v, Y = k) so the candidate buffers
	// can live in the arena.
	dp := demand.f.pts
	cands := sc.take(len(dp) + 1)
	cands = append(cands, Point{0, 0})
	vc := newEvalCursor(vhat)
	for i := 1; i < len(dp); i++ {
		p, q := dp[i-1], dp[i]
		if q.X == p.X && q.Y > p.Y {
			cands = append(cands, Point{vc.right(q.X), p.Y})
		}
	}
	// cands is already sorted: arrival instants increase, vhat is
	// non-decreasing and so are the staircase levels. The adaptive
	// insertion sort is a linear allocation-free verification pass that
	// also restores order for any non-staircase demand an external caller
	// might feed in.
	insertionSortPoints(cands)
	// Lower envelope: keep v strictly increasing, k strictly increasing
	// and k-v strictly decreasing.
	env := cands[:0]
	for _, c := range cands {
		for len(env) > 0 && env[len(env)-1].Y >= c.Y {
			env = env[:len(env)-1]
		}
		if len(env) > 0 {
			t := env[len(env)-1]
			if c.Y-c.X >= t.Y-t.X {
				continue // its sloped part never beats the previous stick
			}
		}
		env = append(env, c)
	}
	// Materialize F(y) = min_i (k_i + (y - v_i)^+) for y >= 0 as a pl.
	fpts := sc.take(2*len(env) + 1)
	fpts = append(fpts, Point{0, env[0].Y + max64(0, 0-env[0].X)})
	for i, s := range env {
		if s.X > 0 {
			fpts = append(fpts, Point{s.X, s.Y})
		}
		if i+1 < len(env) {
			n := env[i+1]
			fpts = append(fpts, Point{s.X + (n.Y - s.Y), n.Y})
		}
	}
	F := canonIn(sc, fpts, 1)
	if total, ok := (&Curve{demand.f}).Sup(); ok {
		F = F.clampMaxIn(sc, total)
	}
	if b != 0 {
		F = F.shiftFlat(sc, b)
	}
	return fromPL(composeMonotone(sc, F, ahat).heap(sc), "LowerServiceNP")
}

func max64(a, b Value) Value {
	if a > b {
		return a
	}
	return b
}

// insertionSortPoints sorts pts by (X, Y) in place: allocation-free and
// linear for already-sorted input, which is the only case the package's
// own callers produce.
func insertionSortPoints(pts []Point) {
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		j := i - 1
		for j >= 0 && (pts[j].X > p.X || (pts[j].X == p.X && pts[j].Y > p.Y)) {
			pts[j+1] = pts[j]
			j--
		}
		pts[j+1] = p
	}
}

// UpperServiceNPIn computes a sound variant of Theorem 6's upper service
// bound:
//
//	S_upper(t) = Blo(t) + min_{0<=s<=t} { c(s) - Bup(s) }
//	Blo(t) = t - sum_h lower_h(t)
//	Bup(s) = s - sum_h upper_h(s)
//
// For every s <= t, the service gained in (s, t] is at most the time not
// consumed by higher-priority work, (t-s) - sum_h(S_h(t) - S_h(s)) <=
// Blo(t) - Bup(s), and the service before s is at most the arrived work
// c(s); so every candidate upper-bounds S(t) and so does their minimum.
// (Equation (18) as printed uses Equation (19)'s B at both ends of the
// window, which under-estimates the interference inside it and is not
// sound for loose bounds; see LowerServiceNPIn.) The s = 0 seed candidate
// Blo(t) bounds the service by the total availability. Blocking cannot
// increase service, so no blocking term appears, matching the paper.
//
// The result is additionally capped by the arrived work c (the true
// service never exceeds it), and the running maximum restores
// monotonicity, which loose interference bounds can break.
//
// Intermediates are carved from sc (nil = heap); the result is always
// heap-backed.
func UpperServiceNPIn(sc *Scratch, lower, upper []*Curve, demand *Curve) *Curve {
	return upperServiceNP(sc, linearSubSum(sc, 0, 1, lower), linearSubSum(sc, 0, 1, upper), demand)
}

// upperServiceNP is the shared core: availT = Blo, availS = Bup.
// Intermediates live in sc; the returned curve is heap-backed.
func upperServiceNP(sc *Scratch, availT, availS pl, demand *Curve) *Curve {
	// Both stages run as fused running-minimum sweeps over signed sums, so
	// neither c - Bup nor Blo + m is ever materialized. The second stage
	// uses max(0, runmax(f)) = -min(0, runmin(-f)) to reuse the same
	// kernel; negation preserves canonical form, so the result is
	// bit-identical to the chained clampMin(runmax(addIn(...)), 0).
	m := sumRunningMin(sc, 0, 0, []pl{demand.f}, []pl{availS}, 0)
	raw := sumRunningMin(sc, 0, 0, nil, []pl{availT, m}, 0).negIn(sc)
	return fromPL(raw.minLowerIn(sc, demand.f).heap(sc), "UpperServiceNP")
}

// ComposeFCFSIn evaluates the FCFS service bounds of Theorems 8 and 9:
//
//	S_lower(t) = c( G^-1( U(t) ) )            (Equation 22)
//	S_upper(t) = c( G^-1( U(t) ) ) + tau      (Equation 23)
//
// demand is the subjob's workload staircase c, total the processor
// workload G, util the utilization function U. The function returns the
// composed staircase c(G^-1(U(t))); Theorem 9's +tau is added by the
// caller.
//
// The thresholds differ between the two directions, and the lower one
// deviates from Theorem 8 as printed, which is not sound under adversarial
// tie-breaking of simultaneous arrivals (FCFS "arbitrarily picks" among
// them, as the paper itself notes):
//
//   - Lower bound: the instances arriving at x_j are certainly complete
//     once ALL work arrived in [0, x_j] is - including work arriving
//     simultaneously at x_j, which an adversarial tie-break serves first.
//     The composition therefore jumps at the first t with U(t) >= G(x_j)
//     (right value). The printed G(x_j-) would credit completion before
//     same-instant competitors are accounted for.
//   - Upper bound: work arriving after x_j cannot be served while any of
//     the first G(x_j-) units are pending, so service beyond level
//     c(x_j-) is impossible before U(t) exceeds G(x_j-) (left value);
//     jumping at U^-1(G(x_j-)) is at most one tick early, staying sound.
//
// The result is carved from sc (nil = heap); an arena-backed result must
// be Cloned to outlive the checkout. The workload G is read at the
// increasing jump times x_j and the utilization inverse at the
// non-decreasing levels G(x_j), both with forward cursors, so the whole
// composition is a single linear sweep instead of two binary searches per
// jump.
func ComposeFCFSIn(sc *Scratch, demand, total, util *Curve, upper bool) *Curve {
	dp := demand.f.pts
	pts := sc.take(2*len(dp) + 1)
	pts = append(pts, Point{0, 0})
	level := Value(0)
	gc := newEvalCursor(total.f)
	inv := newInverseCursor(util.f)
	for i := 1; i < len(dp); i++ {
		p, q := dp[i-1], dp[i]
		if q.X != p.X || q.Y <= p.Y {
			if q.X != p.X && q.Y != p.Y {
				panic("curve: ComposeFCFS demand is not a staircase")
			}
			continue
		}
		var y Value
		if upper {
			// G(x-): for x = 0 the left limit over the empty past is 0
			// (left would return the post-jump value).
			if q.X > 0 {
				y = gc.left(q.X)
			}
		} else {
			y = gc.right(q.X)
		}
		theta := inv.inverse(y)
		if IsInf(theta) {
			break
		}
		if level > 0 || theta > 0 {
			pts = append(pts, Point{theta, level})
		}
		level = q.Y
		pts = append(pts, Point{theta, level})
	}
	return fromPL(canonIn(sc, pts, 0), "ComposeFCFS")
}

// AddConstIn returns the curve shifted up by v >= 0 (Theorem 9's +tau),
// carved from sc (nil = heap).
func (c *Curve) AddConstIn(sc *Scratch, v Value) *Curve {
	if v < 0 {
		panic("curve: AddConst with negative value")
	}
	return fromPL(c.f.addConst(sc, v), "AddConst")
}

// MaxBacklog returns the largest number of instances released but not yet
// completed at any instant,
//
//	max_t ( |{i : arr[i] <= t}| - |{j : dep[j] <= t}| ),
//
// for ascending release times arr and ascending completion times dep (an
// Inf entry never completes). It is the largest vertical distance from
// Staircase(dep, 1) up to Staircase(arr, 1), found without building either
// curve: between releases the released count is constant and the completed
// count only grows, so the maximum sits at a release time, and one
// two-pointer walk over both lists finds it.
func MaxBacklog(arr, dep []Time) Value {
	var best Value
	j := 0
	for i, t := range arr {
		for j < len(dep) && dep[j] <= t {
			j++
		}
		if d := Value(i + 1 - j); d > best {
			best = d
		}
	}
	return best
}
