package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the state root; one subdirectory per tenant.
	Dir string
	// Fsync, when true, fsyncs every append and snapshot before it is
	// acknowledged — survives machine crashes, not just process crashes.
	// When false, writes reach the OS page cache synchronously (a killed
	// process loses nothing) but a power failure can lose the tail.
	Fsync bool
	// SnapshotEvery is the number of appended operations between
	// snapshots per tenant; 0 means 64, negative disables snapshots.
	SnapshotEvery int
	// FS overrides the filesystem (fault-injection tests); nil is the OS.
	FS FS
}

// DefaultSnapshotEvery is the snapshot cadence when Config leaves it 0.
const DefaultSnapshotEvery = 64

// Store is the durable tenant store. Open recovers existing state;
// Enqueue and EnqueueSnapshot extend a tenant's ordered queue in memory
// and Flush writes it. The queue outlives a drop and re-create of its
// id, so a drop and the next create reach disk in enqueue order. All
// methods are safe for concurrent use; callers enqueue a tenant's
// operations in commit order (the serve layer does so under its
// per-tenant lock) and flush outside that lock.
type Store struct {
	cfg Config
	fs  FS

	// mu guards the tenants map and each tlog's queue side; disk writes
	// never run under it.
	mu      sync.Mutex
	tenants map[string]*tlog

	errors    atomic.Uint64 // failed writes: record runs and snapshots
	snapshots atomic.Uint64 // snapshots written

	recovered []RecoveredTenant
	report    RecoveryReport
}

// tlog is one tenant id's ordered log: its in-memory queue and the state
// of its open segment.
type tlog struct {
	id  string
	dir string

	// Queue side, guarded by Store.mu.
	next      uint64  // next sequence number to enqueue
	live      bool    // false once an OpDrop is the latest enqueued state
	sinceSnap int     // ops enqueued since the last snapshot was enqueued
	queue     []entry // enqueued, not yet on disk, oldest first
	stalled   bool    // the last flush stopped at a failed write

	// Disk side, guarded by wmu, which also admits one writer at a time.
	wmu     sync.Mutex
	made    bool   // the tenant directory exists
	seg     File   // open segment, nil until the next write
	segPath string // path of the open segment
	segGood int64  // verified-good byte length of the open segment
	dirty   bool   // the last write failed mid-frame; truncate before reuse
}

// entry is one queued write: an encoded record frame, or a snapshot of
// the tenant's state at seq.
type entry struct {
	seq   uint64
	frame []byte
	snap  *Snapshot
}

// tenantDirPat matches ids safe to use as directory names verbatim.
var tenantDirPat = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,100}$`)

// idFile names the file inside hashed ("h_") tenant directories that
// carries the raw tenant id, since a hash cannot be inverted.
const idFile = "id"

// encTenant maps a tenant id to its directory name. Safe ids get a "t_"
// prefix; short unsafe ids are hex-encoded under "x_"; ids too long for
// a filename are hashed under "h_" with the raw id kept in an id file
// (the prefixes keep the three schemes from colliding).
func encTenant(id string) string {
	if tenantDirPat.MatchString(id) {
		return "t_" + id
	}
	if len(id) <= 100 {
		return "x_" + hex.EncodeToString([]byte(id))
	}
	sum := sha256.Sum256([]byte(id))
	return "h_" + hex.EncodeToString(sum[:])
}

// decTenant inverts encTenant; ok is false for foreign directory names.
func decTenant(name string) (string, bool) {
	switch {
	case strings.HasPrefix(name, "t_"):
		id := name[2:]
		if tenantDirPat.MatchString(id) {
			return id, true
		}
	case strings.HasPrefix(name, "x_"):
		raw, err := hex.DecodeString(name[2:])
		if err == nil && len(raw) > 0 {
			return string(raw), true
		}
	}
	return "", false
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeqName extracts the sequence number from wal-/snap- file names.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// quarantineRoot is the directory under the state root where whole
// tenant directories are set aside when replay finds them inconsistent.
const quarantineRoot = "quarantine"

// Open opens (creating if needed) the state root and recovers every
// tenant in it: snapshot + tail replay, with torn tails truncated and
// corrupt segments quarantined. The recovered tenants are available via
// Tenants, the recovery accounting via Report. Open never fails on
// corrupt tenant state — that is quarantined and reported — only on
// filesystem errors against the root itself.
func Open(cfg Config) (*Store, error) {
	if cfg.FS == nil {
		cfg.FS = osFS{}
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir must be set")
	}
	s := &Store{cfg: cfg, fs: cfg.FS, tenants: map[string]*tlog{}}
	if err := s.fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: creating state dir: %w", err)
	}
	names, err := s.fs.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning state dir: %w", err)
	}
	for _, name := range names {
		if name == quarantineRoot || !s.fs.IsDir(filepath.Join(cfg.Dir, name)) {
			continue
		}
		id, ok := decTenant(name)
		if !ok && strings.HasPrefix(name, "h_") {
			// Hashed directory: the id lives in its id file.
			raw, rerr := s.fs.ReadFile(filepath.Join(cfg.Dir, name, idFile))
			if rerr == nil && len(raw) > 0 && encTenant(string(raw)) == name {
				id, ok = string(raw), true
			} else {
				s.report.QuarantinedTenants++
				s.report.Details = append(s.report.Details, fmt.Sprintf("%s: tenant identity lost (bad id file), quarantined", name))
				if qerr := s.quarantineDir(filepath.Join(cfg.Dir, name), name); qerr != nil {
					return nil, fmt.Errorf("store: quarantining %s: %w", name, qerr)
				}
				continue
			}
		}
		if !ok {
			s.report.Details = append(s.report.Details, fmt.Sprintf("%s: not a tenant directory, ignored", name))
			continue
		}
		s.report.Tenants++
		dir := filepath.Join(cfg.Dir, name)
		rt, st, rerr := s.recoverTenant(id, dir)
		switch {
		case rerr != nil:
			s.report.QuarantinedTenants++
			s.report.Details = append(s.report.Details, fmt.Sprintf("tenant %s: %v (quarantined)", id, rerr))
			if qerr := s.quarantineDir(dir, name); qerr != nil {
				return nil, fmt.Errorf("store: quarantining tenant %s: %w", id, qerr)
			}
		case !st.live:
			// The final state is dropped: the directory only documents a
			// tenant that no longer exists. Reclaim it.
			s.report.Dropped++
			if err := s.fs.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("store: removing dropped tenant %s: %w", id, err)
			}
		default:
			s.report.Recovered++
			st.made = true
			s.tenants[id] = st
			s.recovered = append(s.recovered, *rt)
		}
	}
	return s, nil
}

// Tenants returns the live tenants recovered by Open, each as the
// newest usable snapshot plus the log tail after it, ready to be
// replayed into an admission controller.
func (s *Store) Tenants() []RecoveredTenant { return s.recovered }

// Report returns the recovery accounting from Open.
func (s *Store) Report() RecoveryReport { return s.report }

// ErrTenantExists rejects an OpCreate for a tenant that is already live.
// Like ErrUnknownTenant it marks a sequencing bug in the caller, not a
// transient disk fault — retrying the same append cannot succeed.
var ErrTenantExists = errors.New("store: tenant already exists")

// ErrUnknownTenant rejects an append against a tenant the store has
// never seen created (or has seen dropped).
type ErrUnknownTenant struct{ ID string }

func (e *ErrUnknownTenant) Error() string {
	return fmt.Sprintf("store: unknown tenant %q (log it with an OpCreate first)", e.ID)
}

// Enqueue assigns op the tenant's next sequence number and queues it
// behind everything enqueued before it; Flush writes it. An OpCreate on
// an unknown (or dropped) tenant starts (or restarts) its log; every
// other kind requires a live tenant. A refused or unencodable op is
// reported here and queues nothing. snapDue reports that the tenant has
// enqueued enough operations since its last snapshot that the caller
// should capture its state now and EnqueueSnapshot it, so the snapshot
// lands right behind this op.
func (s *Store) Enqueue(id string, op Op) (seq uint64, snapDue bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[id]
	switch live := t != nil && t.live; {
	case !live && op.Kind != OpCreate:
		return 0, false, &ErrUnknownTenant{id}
	case live && op.Kind == OpCreate:
		return 0, false, fmt.Errorf("store: tenant %q: %w", id, ErrTenantExists)
	case t == nil:
		t = &tlog{id: id, dir: filepath.Join(s.cfg.Dir, encTenant(id)), next: 1}
	}
	op.Seq = t.next
	frame, err := encodeOp(&op)
	if err != nil {
		return 0, false, err
	}
	s.tenants[id] = t
	t.queue = append(t.queue, entry{seq: op.Seq, frame: frame})
	t.next++
	t.sinceSnap++
	switch op.Kind {
	case OpCreate:
		t.live = true
	case OpDrop:
		t.live = false
	}
	return op.Seq, t.live && s.cfg.SnapshotEvery > 0 && t.sinceSnap >= s.cfg.SnapshotEvery, nil
}

// EnqueueSnapshot queues a snapshot of the tenant at its latest enqueued
// operation; spec and jobs must be the state that operation left. Flush
// writes it once the records ahead of it are durable, then rotates the
// segment and compacts.
func (s *Store) EnqueueSnapshot(id string, spec json.RawMessage, jobs []json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[id]
	if t == nil {
		return &ErrUnknownTenant{id}
	}
	if t.next <= 1 {
		return fmt.Errorf("store: tenant %q has no operations to snapshot", id)
	}
	snap := &Snapshot{Seq: t.next - 1, Spec: spec, Jobs: jobs, Live: t.live}
	t.queue = append(t.queue, entry{seq: snap.Seq, snap: snap})
	t.sinceSnap = 0
	return nil
}

// Flush writes the tenant's queue oldest first and returns nil once
// every entry up to seq is on disk (math.MaxUint64: everything queued).
// One writer runs per tenant and takes everything queued, one write and
// one sync per run of records, so callers that queued meanwhile find
// their entries written (group commit). It stops at the first failed
// write, leaving the rest queued in order and the tenant degraded until
// a later Flush or Retry; a failed snapshot is dropped instead, since
// the cadence asks for another on the next op.
func (s *Store) Flush(id string, seq uint64) error {
	s.mu.Lock()
	t := s.tenants[id]
	s.mu.Unlock()
	if t == nil {
		return &ErrUnknownTenant{id}
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	s.mu.Lock()
	batch := t.queue // Enqueue only appends, so this prefix stays ours
	s.mu.Unlock()
	if len(batch) == 0 || batch[0].seq > seq {
		return nil // an earlier flush wrote it
	}
	var err error
	var last entry // the entry written last, or whose write failed
	n := 0
	for n < len(batch) && err == nil {
		if last = batch[n]; last.snap != nil {
			n++
			if err = s.writeSnapshot(t, last.snap); err == nil {
				s.snapshots.Add(1)
			}
			continue
		}
		end := n + 1
		for end < len(batch) && batch[end].snap == nil {
			end++
		}
		if err = s.writeRun(t, batch[n:end]); err == nil {
			n = end
		}
	}
	s.mu.Lock()
	t.queue = t.queue[n:]
	if len(t.queue) == 0 {
		t.queue = nil
	}
	t.stalled = n < len(batch)
	if err != nil && last.snap != nil {
		t.sinceSnap = max(t.sinceSnap, s.cfg.SnapshotEvery)
	}
	s.mu.Unlock()
	if err == nil {
		return nil
	}
	s.errors.Add(1)
	if last.seq > seq {
		return nil
	}
	return err
}

// Append enqueues one operation and flushes the tenant through it. On a
// flush error the op stays queued and the next Flush or Retry writes it
// first; snapDue is as for Enqueue, and false on error.
func (s *Store) Append(id string, op Op) (snapDue bool, err error) {
	seq, due, err := s.Enqueue(id, op)
	if err == nil {
		err = s.Flush(id, seq)
	}
	return due && err == nil, err
}

// WriteSnapshot enqueues a snapshot (see EnqueueSnapshot) and flushes the
// tenant's whole queue, reporting the snapshot's own failure too.
func (s *Store) WriteSnapshot(id string, spec json.RawMessage, jobs []json.RawMessage) error {
	if err := s.EnqueueSnapshot(id, spec, jobs); err != nil {
		return err
	}
	return s.Flush(id, math.MaxUint64)
}

// Retry flushes every tenant whose last flush failed and returns their
// errors: the degraded-mode retry, run by the owner's background loop
// with backoff.
func (s *Store) Retry() error {
	s.mu.Lock()
	var stalled []string
	for id, t := range s.tenants {
		if t.stalled {
			stalled = append(stalled, id)
		}
	}
	s.mu.Unlock()
	var err error
	for _, id := range stalled {
		err = errors.Join(err, s.Flush(id, math.MaxUint64))
	}
	return err
}

// Stats reports the store's write side: how many operations are queued
// in tenants whose last flush failed (the store is degraded while that
// is non-zero), how many writes failed (each retry counting again), and
// how many snapshots were written.
func (s *Store) Stats() (backlog int, failures, snapshots uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		for _, e := range t.queue {
			if t.stalled && e.snap == nil {
				backlog++
			}
		}
	}
	return backlog, s.errors.Load(), s.snapshots.Load()
}

// writeRun writes a run of records to the tenant's open segment in one
// write and syncs once, first cutting away any partial bytes a previous
// failed write left. A fresh segment is named by the run's first record
// and gets its header in the same write.
func (s *Store) writeRun(t *tlog, run []entry) error {
	if !t.made {
		if err := s.fs.MkdirAll(t.dir); err != nil {
			return fmt.Errorf("store: creating tenant dir: %w", err)
		}
		if strings.HasPrefix(filepath.Base(t.dir), "h_") {
			if err := s.writeIDFile(t.dir, t.id); err != nil {
				return err
			}
		}
		t.made = true
	}
	if t.dirty {
		// Cut back to the last verified-good length before writing
		// anything new, so the segment never carries a corrupt frame
		// followed by a valid one.
		if t.seg != nil {
			_ = t.seg.Close()
			t.seg = nil
		}
		if err := s.fs.Truncate(t.segPath, t.segGood); err != nil {
			return fmt.Errorf("store: repairing torn segment tail: %w", err)
		}
		t.dirty = false
	}
	var buf []byte
	if t.seg == nil && t.segGood == 0 {
		// Create (not append) so a header left by a failed first write
		// cannot be followed by a second one.
		t.segPath = filepath.Join(t.dir, segName(run[0].seq))
		f, err := s.fs.Create(t.segPath)
		if err != nil {
			return fmt.Errorf("store: opening segment: %w", err)
		}
		t.seg, buf = f, append(buf, segMagic...)
	} else if t.seg == nil {
		f, err := s.fs.OpenAppend(t.segPath)
		if err != nil {
			return fmt.Errorf("store: reopening segment: %w", err)
		}
		t.seg = f
	}
	for _, e := range run {
		buf = append(buf, e.frame...)
	}
	n, err := t.seg.Write(buf)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
	}
	if err == nil && s.cfg.Fsync {
		// A failed sync may or may not have made the bytes durable; the
		// run is withdrawn all the same, so the acknowledged log stays a
		// prefix of the durable one.
		if err = t.seg.Sync(); err == nil && t.segGood == 0 {
			err = s.fs.SyncDir(t.dir)
		}
	}
	if err != nil {
		t.dirty = true
		return fmt.Errorf("store: appending records: %w", err)
	}
	t.segGood += int64(len(buf))
	return nil
}

// writeSnapshot persists one snapshot via temp file + rename, rotates the
// segment, and compacts: the last two snapshot generations are retained
// (so a torn newest snapshot still recovers from the previous one) and
// every segment fully covered by the older retained snapshot is deleted.
func (s *Store) writeSnapshot(t *tlog, snap *Snapshot) error {
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := filepath.Join(t.dir, "snap.tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if s.cfg.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			_ = s.fs.Remove(tmp)
			return fmt.Errorf("store: syncing snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	final := filepath.Join(t.dir, snapName(snap.Seq))
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if s.cfg.Fsync {
		if err := s.fs.SyncDir(t.dir); err != nil {
			return fmt.Errorf("store: syncing tenant dir: %w", err)
		}
	}
	// Rotate: the next write starts a fresh segment, so every existing
	// segment is now fully covered by some snapshot.
	if t.seg != nil {
		_ = t.seg.Close()
		t.seg = nil
	}
	t.segPath, t.segGood, t.dirty = "", 0, false
	s.compact(t, snap.Seq)
	return nil
}

// compact deletes snapshots older than the previous retained generation
// and segments fully covered by the oldest retained snapshot. Deletion
// failures are non-fatal: stale files cost disk, not correctness.
func (s *Store) compact(t *tlog, newestSnap uint64) {
	names, err := s.fs.ReadDir(t.dir)
	if err != nil {
		return
	}
	var snaps, segs []uint64
	for _, name := range names {
		if v, ok := parseSeqName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseSeqName(name, "wal-", ".log"); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	// Keep the two newest snapshots; everything older goes.
	oldestKept := newestSnap
	if n := len(snaps); n >= 2 {
		oldestKept = snaps[n-2]
	}
	for _, v := range snaps {
		if v < oldestKept {
			_ = s.fs.Remove(filepath.Join(t.dir, snapName(v)))
		}
	}
	// Until a second generation exists, keep every segment: with a single
	// snapshot on disk, the full log is still the fallback if that sole
	// snapshot is later corrupted — deleting its covered segments now
	// would break the "a bad newest snapshot recovers from the previous
	// generation" rule before a previous generation exists.
	if len(snaps) < 2 {
		return
	}
	// A segment's records end where the next segment starts; delete it
	// when that whole range is at or below the oldest retained snapshot.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1]-1 <= oldestKept {
			_ = s.fs.Remove(filepath.Join(t.dir, segName(segs[i])))
		}
	}
}

// QuarantineTenant sets a tenant's whole directory aside (under
// <root>/quarantine/) and forgets it, so a semantically inconsistent
// replay — the store's framing verified but the operations do not apply
// — keeps its evidence without blocking a fresh tenant under the same
// id. Used by the serve layer when replay into a controller fails.
func (s *Store) QuarantineTenant(id string) error {
	s.mu.Lock()
	t := s.tenants[id]
	delete(s.tenants, id)
	s.mu.Unlock()
	if t == nil {
		return &ErrUnknownTenant{id}
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.seg != nil {
		_ = t.seg.Close()
	}
	s.report.QuarantinedTenants++
	return s.quarantineDir(t.dir, filepath.Base(t.dir))
}

// quarantineDir moves a tenant directory under the root quarantine
// area, suffixing on collision so repeated quarantines never clobber
// earlier evidence.
func (s *Store) quarantineDir(dir, name string) error {
	qroot := filepath.Join(s.cfg.Dir, quarantineRoot)
	if err := s.fs.MkdirAll(qroot); err != nil {
		return err
	}
	dst := filepath.Join(qroot, name)
	for i := 1; s.fs.IsDir(dst); i++ {
		dst = filepath.Join(qroot, fmt.Sprintf("%s.%d", name, i))
	}
	return s.fs.Rename(dir, dst)
}

// writeIDFile records the raw tenant id inside a hashed directory.
func (s *Store) writeIDFile(dir, id string) error {
	f, err := s.fs.Create(filepath.Join(dir, idFile))
	if err != nil {
		return fmt.Errorf("store: writing tenant id file: %w", err)
	}
	_, werr := f.Write([]byte(id))
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: writing tenant id file: %w", werr)
	}
	return nil
}

// Close releases open segment handles. Writes after Close reopen them.
func (s *Store) Close() error {
	s.mu.Lock()
	ts := make([]*tlog, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.wmu.Lock()
		if t.seg != nil {
			_ = t.seg.Close()
			t.seg = nil
		}
		t.wmu.Unlock()
	}
	return nil
}
