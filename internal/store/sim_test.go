package store

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// memFS is an in-memory FS for the deterministic simulation. Each file
// keeps its current bytes and the prefix a crash is sure to keep (the
// bytes as of its last successful Sync); a crash keeps that prefix plus
// a random part of what was written after it, so it can tear a write
// anywhere. Namespace changes (create, rename, remove, truncate) are
// durable at once. Faults are drawn from the simulation's rng: a write
// fails (half the time after writing half its bytes), and a sync fails
// (half the time after the bytes did become durable).
type memFS struct {
	rng        *rand.Rand
	files      map[string]*memFile
	dirs       map[string]bool
	pWriteFail float64
	pSyncFail  float64
}

type memFile struct {
	data    []byte
	durable int // len of the prefix of data a crash keeps
}

func newMemFS(rng *rand.Rand) *memFS {
	return &memFS{rng: rng, files: map[string]*memFile{}, dirs: map[string]bool{"/": true}}
}

// crash returns the filesystem a reboot would find: every file cut to
// its durable prefix plus a random share of its unsynced tail.
func (m *memFS) crash() *memFS {
	out := newMemFS(m.rng)
	for d := range m.dirs {
		out.dirs[d] = true
	}
	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths) // rng draws in a fixed order: the seed replays
	for _, p := range paths {
		f := m.files[p]
		keep := f.durable + m.rng.Intn(len(f.data)-f.durable+1)
		data := append([]byte(nil), f.data[:keep]...)
		out.files[p] = &memFile{data: data, durable: keep}
	}
	return out
}

func (m *memFS) MkdirAll(path string) error {
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) open(path string, trunc bool) (File, error) {
	if !m.dirs[filepath.Dir(path)] {
		return nil, os.ErrNotExist
	}
	f := m.files[path]
	if f == nil || trunc {
		f = &memFile{}
		m.files[path] = f
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) OpenAppend(path string) (File, error) { return m.open(path, false) }

func (m *memFS) Create(path string) (File, error) { return m.open(path, true) }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	f := m.files[path]
	if f == nil {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) ReadDir(path string) ([]string, error) {
	if !m.dirs[path] {
		return nil, os.ErrNotExist
	}
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == path {
			names = append(names, filepath.Base(p))
		}
	}
	for p := range m.dirs {
		if p != path && filepath.Dir(p) == path {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// moveTree applies fn to every file and directory at or under path.
func (m *memFS) moveTree(path string, fn func(old string) string) {
	under := func(p string) bool { return p == path || strings.HasPrefix(p, path+"/") }
	for p, f := range m.files {
		if under(p) {
			delete(m.files, p)
			if q := fn(p); q != "" {
				m.files[q] = f
			}
		}
	}
	for p := range m.dirs {
		if under(p) {
			delete(m.dirs, p)
			if q := fn(p); q != "" {
				m.dirs[q] = true
			}
		}
	}
}

func (m *memFS) Rename(oldpath, newpath string) error {
	if m.files[oldpath] == nil && !m.dirs[oldpath] {
		return os.ErrNotExist
	}
	m.moveTree(oldpath, func(p string) string { return newpath + strings.TrimPrefix(p, oldpath) })
	return nil
}

func (m *memFS) Remove(path string) error {
	if m.files[path] == nil {
		return os.ErrNotExist
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.moveTree(path, func(string) string { return "" })
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	f := m.files[path]
	if f == nil {
		return os.ErrNotExist
	}
	f.data = f.data[:min(int64(len(f.data)), size)]
	f.durable = min(f.durable, len(f.data))
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) IsDir(path string) bool { return m.dirs[path] }

type memHandle struct {
	fs *memFS
	f  *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.fs.rng.Float64() < h.fs.pWriteFail {
		n := 0
		if h.fs.rng.Intn(2) == 0 {
			n = len(p) / 2
			h.f.data = append(h.f.data, p[:n]...)
		}
		return n, errInjected
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	if h.fs.rng.Float64() < h.fs.pSyncFail {
		if h.fs.rng.Intn(2) == 0 {
			h.f.durable = len(h.f.data)
		}
		return errInjected
	}
	h.f.durable = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

// simTenant is the simulation's model of one tenant id: the history of
// operations in commit (enqueue) order, Seq == index+1, and how much of
// it a successful Flush has acknowledged.
type simTenant struct {
	history []Op
	acked   uint64
}

// state folds history[:n] into liveness and the admitted names in order.
func (st *simTenant) state(n uint64) (live bool, jobs []string) {
	for _, op := range st.history[:n] {
		switch op.Kind {
		case OpCreate:
			live, jobs = true, nil
		case OpDrop:
			live, jobs = false, nil
		case OpAdmit:
			var j struct{ Name string }
			_ = json.Unmarshal(op.Job, &j)
			jobs = append(jobs, j.Name)
		case OpRemove:
			for k, name := range jobs {
				if name == op.Name {
					jobs = append(jobs[:k:k], jobs[k+1:]...)
					break
				}
			}
		}
	}
	return live, jobs
}

func simJobs(names []string) []json.RawMessage {
	out := make([]json.RawMessage, len(names))
	for k, name := range names {
		out[k] = json.RawMessage(fmt.Sprintf("%q", name))
	}
	return out
}

// TestStoreSimulation drives the store through seeded interleavings of
// enqueues and flushes on several ids, write and fsync faults,
// snapshots, drop and re-create of one id, and crashes followed by Open.
// After every crash each tenant's recovered log must be a prefix of its
// commit order that contains every op a Flush reported written. A
// failing seed replays alone with -run 'TestStoreSimulation/seedN$'.
func TestStoreSimulation(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if err := simulate(seed); err != nil {
				t.Fatalf("seed %d: %v (replay: go test ./internal/store -run 'TestStoreSimulation/seed%d$')", seed, err, seed)
			}
		})
	}
}

func simulate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	fs := newMemFS(rng)
	cfg := Config{Dir: "/state", Fsync: true, SnapshotEvery: 2 + rng.Intn(6), FS: fs}
	s, err := Open(cfg)
	if err != nil {
		return err
	}
	ids := []string{"flip", "a", "b"} // only "flip" is ever dropped
	model := map[string]*simTenant{}
	for _, id := range ids {
		model[id] = &simTenant{}
	}
	jobSeq := 0
	for step := 0; step < 150; step++ {
		id := ids[rng.Intn(len(ids))]
		m := model[id]
		live, jobs := m.state(uint64(len(m.history)))
		switch r := rng.Float64(); {
		case r < 0.5: // enqueue one op
			op := Op{Kind: OpCreate, Spec: json.RawMessage(`{"p":1}`)}
			switch {
			case !live:
			case id == "flip" && rng.Float64() < 0.15:
				op = Op{Kind: OpDrop}
			case len(jobs) > 0 && rng.Float64() < 0.3:
				op = Op{Kind: OpRemove, Name: jobs[rng.Intn(len(jobs))]}
			default:
				jobSeq++
				op = Op{Kind: OpAdmit, Job: json.RawMessage(fmt.Sprintf(`{"name":"j%d"}`, jobSeq))}
			}
			seq, due, err := s.Enqueue(id, op)
			if err != nil {
				return fmt.Errorf("step %d: enqueue %s on %s: %v", step, op.Kind, id, err)
			}
			op.Seq = seq
			if seq != uint64(len(m.history))+1 {
				return fmt.Errorf("step %d: %s got seq %d, want %d", step, id, seq, len(m.history)+1)
			}
			m.history = append(m.history, op)
			if due || (op.Kind != OpDrop && rng.Float64() < 0.05) {
				_, jobs := m.state(seq)
				if err := s.EnqueueSnapshot(id, json.RawMessage(`{"p":1}`), simJobs(jobs)); err != nil {
					return fmt.Errorf("step %d: snapshot %s: %v", step, id, err)
				}
			}
		case r < 0.8: // flush through a random queued op: group commit
			if n := uint64(len(m.history)); n > m.acked {
				upTo := m.acked + 1 + uint64(rng.Int63n(int64(n-m.acked)))
				if s.Flush(id, upTo) == nil {
					m.acked = max(m.acked, upTo)
				}
			}
		case r < 0.85: // a fault phase starts or ends
			fs.pWriteFail, fs.pSyncFail = 0, 0
			if rng.Intn(2) == 0 {
				fs.pWriteFail, fs.pSyncFail = 0.3*rng.Float64(), 0.3*rng.Float64()
			}
		case r < 0.9: // the retry loop: flush everything, in a fixed order
			for _, id := range ids {
				if n := uint64(len(model[id].history)); n > 0 && s.Flush(id, math.MaxUint64) == nil {
					model[id].acked = n
				}
			}
		default:
			if s, fs, err = simCrash(fs, cfg, model, ids); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		}
	}
	_, _, err = simCrash(fs, cfg, model, ids)
	return err
}

// simCrash crashes fs, reopens the store on what survived, checks every
// tenant against the model, and cuts the model back to what recovered.
func simCrash(fs *memFS, cfg Config, model map[string]*simTenant, ids []string) (*Store, *memFS, error) {
	fs = fs.crash()
	cfg.FS = fs
	s, err := Open(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("reopen: %v", err)
	}
	rep := s.Report()
	if rep.QuarantinedSegments != 0 || rep.QuarantinedSnapshots != 0 {
		return nil, nil, fmt.Errorf("recovery quarantined history: %+v", rep)
	}
	recovered := map[string]RecoveredTenant{}
	for _, rt := range s.Tenants() {
		recovered[rt.ID] = rt
	}
	emptyLost := 0 // tenants absent with nothing acknowledged
	for _, id := range ids {
		m := model[id]
		n := uint64(len(m.history))
		rt, ok := recovered[id]
		if !ok {
			// Absent: recovery ended on a drop (or before any op), at
			// some point no earlier than the acknowledged prefix.
			cut := false
			for l := m.acked; l <= n && !cut; l++ {
				live, _ := m.state(l)
				cut = !live
			}
			if !cut {
				return nil, nil, fmt.Errorf("tenant %s lost: %d ops acknowledged, last live at every later cut", id, m.acked)
			}
			if m.acked == 0 {
				emptyLost++
			}
			m.history, m.acked = nil, 0
			continue
		}
		l := uint64(0)
		if rt.Snapshot != nil {
			l = rt.Snapshot.Seq
			if l > n {
				return nil, nil, fmt.Errorf("tenant %s: snapshot at seq %d beyond the %d committed ops", id, l, n)
			}
			live, jobs := m.state(l)
			got, _ := json.Marshal(rt.Snapshot.Jobs)
			want, _ := json.Marshal(simJobs(jobs))
			if rt.Snapshot.Live != live || string(got) != string(want) {
				return nil, nil, fmt.Errorf("tenant %s: snapshot at seq %d = live %v %s, committed state live %v %s", id, l, rt.Snapshot.Live, got, live, want)
			}
		}
		for _, op := range rt.Tail {
			if op.Seq != l+1 || op.Seq > n {
				return nil, nil, fmt.Errorf("tenant %s: recovered seq %d after %d (%d committed)", id, op.Seq, l, n)
			}
			want := m.history[op.Seq-1]
			if op.Kind != want.Kind || op.Name != want.Name || string(op.Job) != string(want.Job) {
				return nil, nil, fmt.Errorf("tenant %s: recovered op %d = %+v, committed %+v", id, op.Seq, op, want)
			}
			l = op.Seq
		}
		if l < m.acked {
			return nil, nil, fmt.Errorf("tenant %s: recovered %d ops, but %d were acknowledged", id, l, m.acked)
		}
		if live, _ := m.state(l); !live {
			return nil, nil, fmt.Errorf("tenant %s recovered live at seq %d, committed state there is dropped", id, l)
		}
		m.history, m.acked = m.history[:l], l
	}
	if rep.QuarantinedTenants > emptyLost {
		return nil, nil, fmt.Errorf("recovery quarantined %d tenants, only %d had nothing acknowledged: %v", rep.QuarantinedTenants, emptyLost, rep.Details)
	}
	return s, fs, nil
}
