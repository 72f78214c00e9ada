package model_test

// Equivalence tests for the cached topology index: every accessor must
// agree with a brute-force recomputation from the raw job table, on
// random systems and across in-place mutations (the index is keyed by a
// fingerprint and must rebuild transparently).

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rta/internal/model"
	"rta/internal/randsys"
)

// bruteOnProc recomputes the per-processor subjob list in (job, hop)
// order.
func bruteOnProc(sys *model.System, p int) []model.SubjobRef {
	var out []model.SubjobRef
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			if sys.Jobs[k].Subjobs[j].Proc == p {
				out = append(out, model.SubjobRef{Job: k, Hop: j})
			}
		}
	}
	return out
}

// bruteByPriority recomputes the priority order with the deterministic
// (priority, job, hop) tie-break used by HigherPriority.
func bruteByPriority(sys *model.System, p int) []model.SubjobRef {
	out := bruteOnProc(sys, p)
	sort.SliceStable(out, func(a, b int) bool {
		pa, pb := sys.Subjob(out[a]).Priority, sys.Subjob(out[b]).Priority
		if pa != pb {
			return pa < pb
		}
		if out[a].Job != out[b].Job {
			return out[a].Job < out[b].Job
		}
		return out[a].Hop < out[b].Hop
	})
	return out
}

// bruteNeighbors recomputes the higher-priority set, the Equation (15)
// blocking term and the priority-ceiling blocking of subjob r.
func bruteNeighbors(sys *model.System, r model.SubjobRef) (hi []model.SubjobRef, blocking, pcp model.Ticks) {
	self := sys.Subjob(r)
	for _, o := range bruteOnProc(sys, self.Proc) {
		if o == r {
			continue
		}
		if sys.HigherPriority(o, r) {
			hi = append(hi, o)
			continue
		}
		osj := sys.Subjob(o)
		if osj.Exec > blocking {
			blocking = osj.Exec
		}
		for _, cs := range osj.CS {
			if c, ok := bruteCeiling(sys, cs.Resource); ok && c <= self.Priority && cs.Duration > pcp {
				pcp = cs.Duration
			}
		}
	}
	return hi, blocking, pcp
}

func bruteCeiling(sys *model.System, resource int) (int, bool) {
	best, ok := 0, false
	for k := range sys.Jobs {
		for _, sj := range sys.Jobs[k].Subjobs {
			for _, cs := range sj.CS {
				if cs.Resource == resource && (!ok || sj.Priority < best) {
					best, ok = sj.Priority, true
				}
			}
		}
	}
	return best, ok
}

func allRefs(sys *model.System) []model.SubjobRef {
	var out []model.SubjobRef
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			out = append(out, model.SubjobRef{Job: k, Hop: j})
		}
	}
	return out
}

func sameRefs(a, b []model.SubjobRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAgainstBrute(t *testing.T, sys *model.System, label string) {
	t.Helper()
	topo := sys.Topology()
	for p := range sys.Procs {
		if got, want := topo.OnProc(p), bruteOnProc(sys, p); !sameRefs(got, want) {
			t.Fatalf("%s: OnProc(%d) = %v, want %v", label, p, got, want)
		}
		if got, want := topo.ByPriority(p), bruteByPriority(sys, p); !sameRefs(got, want) {
			t.Fatalf("%s: ByPriority(%d) = %v, want %v", label, p, got, want)
		}
		// The exported accessors must return equal (copied) slices.
		if got := sys.OnProc(p); !sameRefs(got, topo.OnProc(p)) {
			t.Fatalf("%s: System.OnProc(%d) disagrees with index", label, p)
		}
		if got := sys.ByPriority(p); !sameRefs(got, topo.ByPriority(p)) {
			t.Fatalf("%s: System.ByPriority(%d) disagrees with index", label, p)
		}
	}
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			r := model.SubjobRef{Job: k, Hop: j}
			hi, blocking, pcp := bruteNeighbors(sys, r)
			if !sameRefs(topo.Higher(r), hi) {
				t.Fatalf("%s: Higher(%v) = %v, want %v", label, r, topo.Higher(r), hi)
			}
			if got := topo.Blocking(r); got != blocking {
				t.Fatalf("%s: Blocking(%v) = %d, want %d", label, r, got, blocking)
			}
			if got := sys.Blocking(r); got != blocking {
				t.Fatalf("%s: System.Blocking(%v) = %d, want %d", label, r, got, blocking)
			}
			if got := topo.PCPBlocking(r); got != pcp {
				t.Fatalf("%s: PCPBlocking(%v) = %d, want %d", label, r, got, pcp)
			}
			for _, cs := range sys.Subjob(r).CS {
				wc, wok := bruteCeiling(sys, cs.Resource)
				gc, gok := topo.Ceilings()[cs.Resource]
				if gc != wc || gok != wok {
					t.Fatalf("%s: Ceiling(%d) = (%d,%v), want (%d,%v)", label, cs.Resource, gc, gok, wc, wok)
				}
			}
		}
	}
}

// TestTopologyMatchesBruteForce: the index agrees with the brute-force
// scans on random systems of every scheduler mix, with and without
// shared resources.
func TestTopologyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	for trial := 0; trial < 150; trial++ {
		cfg.Resources = trial % 3 // 0 disables critical sections
		sys := randsys.New(r, cfg)
		checkAgainstBrute(t, sys, "fresh")
	}
}

// TestTopologyInvalidatesOnMutation: in-place edits of the
// topology-relevant fields (priority, processor, execution time, critical
// sections) are picked up by the next query without any explicit
// invalidation call.
func TestTopologyInvalidatesOnMutation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	cfg.Resources = 2
	for trial := 0; trial < 80; trial++ {
		sys := randsys.New(r, cfg)
		checkAgainstBrute(t, sys, "pre-mutation")
		refs := allRefs(sys)
		for step := 0; step < 4; step++ {
			ref := refs[r.Intn(len(refs))]
			sj := sys.Subjob(ref)
			switch r.Intn(4) {
			case 0:
				sj.Priority = r.Intn(6)
			case 1:
				sj.Proc = r.Intn(len(sys.Procs))
			case 2:
				sj.Exec += model.Ticks(1 + r.Intn(5))
			case 3:
				sys.Procs[r.Intn(len(sys.Procs))].Sched = model.Scheduler(r.Intn(3))
			}
			checkAgainstBrute(t, sys, "post-mutation")
		}
	}
}

// TestTopologyCachedPointer: without mutation, repeated queries return the
// identical index (no rebuild); after a mutation they do not.
func TestTopologyCachedPointer(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	sys := randsys.New(r, randsys.Default)
	a, b := sys.Topology(), sys.Topology()
	if a != b {
		t.Fatal("unchanged system rebuilt its topology index")
	}
	sys.Subjob(allRefs(sys)[0]).Exec++
	if c := sys.Topology(); c == a {
		t.Fatal("mutated system returned the stale topology index")
	}
}

// bruteDeps recomputes the analysis dependency edges of subjob id: the
// previous hop, plus per-scheduler interference inputs (higher-priority
// service bounds on SPP/SPNP, co-located predecessors' departures on
// FCFS).
func bruteDeps(sys *model.System, topo *model.Topology, id int) []int {
	r := topo.Subjobs()[id]
	set := map[int]bool{}
	var out []int
	add := func(d int) {
		if !set[d] {
			set[d] = true
			out = append(out, d)
		}
	}
	if r.Hop > 0 {
		add(id - 1)
	}
	proc := sys.Subjob(r).Proc
	switch sys.Procs[proc].Sched {
	case model.SPP, model.SPNP:
		for _, o := range bruteOnProc(sys, proc) {
			if o != r && sys.HigherPriority(o, r) {
				add(topo.ID(o))
			}
		}
	case model.FCFS:
		for _, o := range bruteOnProc(sys, proc) {
			if o.Hop > 0 {
				add(topo.ID(o) - 1)
			}
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopologyDependencyGraph: Deps matches the brute-force edge
// definition, Dependents is its exact transpose, and Components is a
// topologically ordered partition into strongly connected components.
func TestTopologyDependencyGraph(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	cfg := randsys.Default
	cfg.Schedulers = []model.Scheduler{model.SPP, model.SPNP, model.FCFS}
	for trial := 0; trial < 150; trial++ {
		cfg.Loops = trial%2 == 1
		sys := randsys.New(r, cfg)
		topo := sys.Topology()
		n := len(topo.Subjobs())
		rev := make([][]int, n)
		for id := 0; id < n; id++ {
			want := bruteDeps(sys, topo, id)
			if got := topo.Deps(id); !sameInts(got, want) {
				t.Fatalf("trial %d: Deps(%d) = %v, want %v", trial, id, got, want)
			}
			for _, d := range want {
				rev[d] = append(rev[d], id)
			}
		}
		for id := 0; id < n; id++ {
			if got := topo.Dependents(id); !sameInts(got, rev[id]) {
				t.Fatalf("trial %d: Dependents(%d) = %v, want %v", trial, id, got, rev[id])
			}
		}
		comps, acyclic := topo.Components()
		compOf := make([]int, n)
		for i := range compOf {
			compOf[i] = -1
		}
		allSingle := true
		for c, ids := range comps {
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("trial %d: component %d not ascending: %v", trial, c, ids)
				}
				if compOf[id] >= 0 {
					t.Fatalf("trial %d: subjob %d in components %d and %d", trial, id, compOf[id], c)
				}
				compOf[id] = c
			}
			if len(ids) > 1 || slices.Contains(topo.Deps(ids[0]), ids[0]) {
				allSingle = false
			}
			// Strongly connected: the first member reaches every other one
			// and is reached by it, without leaving the component.
			for _, edges := range []func(int) []int{topo.Deps, topo.Dependents} {
				seen := map[int]bool{ids[0]: true}
				for q := []int{ids[0]}; len(q) > 0; q = q[1:] {
					for _, d := range edges(q[0]) {
						if slices.Contains(ids, d) && !seen[d] {
							seen[d] = true
							q = append(q, d)
						}
					}
				}
				if len(seen) != len(ids) {
					t.Fatalf("trial %d: component %v not strongly connected", trial, ids)
				}
			}
		}
		for id, c := range compOf {
			if c < 0 {
				t.Fatalf("trial %d: subjob %d in no component", trial, id)
			}
			for _, d := range topo.Deps(id) {
				if compOf[d] > c {
					t.Fatalf("trial %d: dep %d (component %d) after %d (component %d)",
						trial, d, compOf[d], id, c)
				}
			}
		}
		if acyclic != allSingle {
			t.Fatalf("trial %d: acyclic = %v, want %v", trial, acyclic, allSingle)
		}
	}
}

// TestTopologySharedSlicesSafe: the exported System accessors return
// copies, so callers may sort or mutate them without corrupting the
// cached index (priority synthesis does exactly that).
func TestTopologySharedSlicesSafe(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	sys := randsys.New(r, randsys.Default)
	for p := range sys.Procs {
		got := sys.OnProc(p)
		if len(got) < 2 {
			continue
		}
		want := append([]model.SubjobRef(nil), got...)
		got[0], got[len(got)-1] = got[len(got)-1], got[0] // caller scrambles its copy
		if !sameRefs(sys.OnProc(p), want) {
			t.Fatalf("OnProc(%d): cached index was corrupted by caller mutation", p)
		}
	}
}
