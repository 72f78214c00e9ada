package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	testSpec = json.RawMessage(`{"processors":[{"scheduler":"SPP"}]}`)
	testJob  = func(name string) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"name":%q,"deadline":100,"subjobs":[{"proc":0,"exec":1}],"releases":[0]}`, name))
	}
)

func open(t *testing.T, dir string, mut ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: dir}
	for _, m := range mut {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// appendOps logs a create plus n admits for tenant id.
func appendOps(t *testing.T, s *Store, id string, n int) {
	t.Helper()
	if _, err := s.Append(id, Op{Kind: OpCreate, Spec: testSpec}); err != nil {
		t.Fatalf("append create: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Append(id, Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("j%d", i))}); err != nil {
			t.Fatalf("append admit %d: %v", i, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	appendOps(t, s, "acme", 3)
	if _, err := s.Append("acme", Op{Kind: OpRemove, Name: "j1", Pri: [][]int{{1}, {2}}}); err != nil {
		t.Fatalf("append remove: %v", err)
	}
	s.Close()

	r := open(t, dir)
	tenants := r.Tenants()
	if len(tenants) != 1 || tenants[0].ID != "acme" {
		t.Fatalf("recovered tenants = %+v, want one acme", tenants)
	}
	tail := tenants[0].Tail
	if len(tail) != 5 {
		t.Fatalf("tail has %d ops, want 5", len(tail))
	}
	wantKinds := []Kind{OpCreate, OpAdmit, OpAdmit, OpAdmit, OpRemove}
	for i, op := range tail {
		if op.Kind != wantKinds[i] || op.Seq != uint64(i+1) {
			t.Errorf("tail[%d] = {seq %d, %s}, want {seq %d, %s}", i, op.Seq, op.Kind, i+1, wantKinds[i])
		}
	}
	if tail[4].Name != "j1" || len(tail[4].Pri) != 2 {
		t.Errorf("remove op lost payload: %+v", tail[4])
	}
	if !bytes.Equal(tail[0].Spec, testSpec) {
		t.Errorf("create spec round trip: %s", tail[0].Spec)
	}
	rep := r.Report()
	if rep.Recovered != 1 || rep.TornTails != 0 || rep.QuarantinedSegments != 0 {
		t.Errorf("report = %+v, want one clean recovery", rep)
	}
}

func TestUnsafeTenantIDs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	ids := []string{"ok-id", "../escape", "sp ace", "ünïcode", strings.Repeat("L", 200)}
	for _, id := range ids {
		if _, err := s.Append(id, Op{Kind: OpCreate, Spec: testSpec}); err != nil {
			t.Fatalf("create %q: %v", id, err)
		}
	}
	s.Close()
	r := open(t, dir)
	got := map[string]bool{}
	for _, rt := range r.Tenants() {
		got[rt.ID] = true
	}
	for _, id := range ids {
		if !got[id] {
			t.Errorf("tenant %q lost in directory encoding", id)
		}
	}
	// Nothing escaped the state root.
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tenant id escaped the state dir")
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(c *Config) { c.SnapshotEvery = 4 })
	due, err := s.Append("acme", Op{Kind: OpCreate, Spec: testSpec})
	if err != nil || due {
		t.Fatalf("create: due=%v err=%v", due, err)
	}
	snapAt := func(wantSeq uint64) {
		t.Helper()
		if err := s.WriteSnapshot("acme", testSpec, []json.RawMessage{testJob("a")}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "t_acme", snapName(wantSeq))); err != nil {
			t.Fatalf("snapshot file at seq %d: %v", wantSeq, err)
		}
	}
	seq := uint64(1)
	for round := 0; round < 3; round++ {
		sawDue := false
		for i := 0; !sawDue && i < 10; i++ {
			due, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("r%d-%d", round, i))})
			if err != nil {
				t.Fatal(err)
			}
			seq++
			sawDue = due
		}
		if !sawDue {
			t.Fatalf("round %d: snapshot never came due", round)
		}
		snapAt(seq)
	}
	s.Close()

	// Two snapshot generations retained, older ones and covered segments
	// compacted away.
	names, err := os.ReadDir(filepath.Join(dir, "t_acme"))
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
		if strings.HasSuffix(e.Name(), ".log") {
			segs++
		}
	}
	if snaps != 2 {
		t.Errorf("%d snapshots on disk, want 2 retained generations", snaps)
	}
	if segs > 2 {
		t.Errorf("%d segments on disk after compaction, want <= 2", segs)
	}

	r := open(t, dir)
	tenants := r.Tenants()
	if len(tenants) != 1 || tenants[0].Snapshot == nil {
		t.Fatalf("recovered = %+v, want snapshot-seeded tenant", tenants)
	}
	if tenants[0].Snapshot.Seq != seq {
		t.Errorf("snapshot seq %d, want %d", tenants[0].Snapshot.Seq, seq)
	}
	if len(tenants[0].Tail) != 0 {
		t.Errorf("tail has %d ops, want 0 right after a snapshot", len(tenants[0].Tail))
	}

	// Appending after recovery continues the sequence in a new segment.
	if _, err := r.Append("acme", Op{Kind: OpAdmit, Job: testJob("post")}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := open(t, dir)
	if tl := r2.Tenants()[0].Tail; len(tl) != 1 || tl[0].Seq != seq+1 {
		t.Fatalf("post-recovery tail = %+v, want one op at seq %d", tl, seq+1)
	}
}

// segPath returns the single tenant's only segment file, failing if the
// count differs.
func onlySegment(t *testing.T, dir, enc string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, enc, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", matches, err)
	}
	return matches[0]
}

// frameOffsets parses a segment and returns each frame's byte offset
// plus the clean end offset.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{int64(len(segMagic))}
	off := int64(len(segMagic))
	for {
		payload, next, err := decodeFrame(data, off)
		if err != nil {
			t.Fatalf("parsing %s at %d: %v", path, off, err)
		}
		if payload == nil {
			return offs
		}
		off = next
		offs = append(offs, off)
	}
}

func TestTornTailTable(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := open(t, dir)
		appendOps(t, s, "acme", 4) // seq 1..5 in one segment
		s.Close()
		return dir
	}
	cases := []struct {
		name string
		// mutilate edits the raw segment given its frame offsets.
		mutilate func(data []byte, offs []int64) []byte
		wantOps  int // recovered tail length
	}{
		{"mid-length-prefix", func(d []byte, o []int64) []byte {
			return d[:o[len(o)-2]+2] // 2 bytes into the last frame's length field
		}, 4},
		{"mid-checksum", func(d []byte, o []int64) []byte {
			return d[:o[len(o)-2]+6] // into the CRC field
		}, 4},
		{"mid-payload", func(d []byte, o []int64) []byte {
			return d[:o[len(o)-2]+12] // header plus a few payload bytes
		}, 4},
		{"bit-flip-last-record", func(d []byte, o []int64) []byte {
			d[o[len(o)-2]+10] ^= 0x40
			return d
		}, 4},
		{"bit-flip-mid-file", func(d []byte, o []int64) []byte {
			// Damage record 2 of 5: truncation at the first bad checksum
			// keeps only the records before it.
			d[o[1]+10] ^= 0x01
			return d
		}, 1},
		{"implausible-length", func(d []byte, o []int64) []byte {
			binary.LittleEndian.PutUint32(d[o[len(o)-2]:], 1<<30)
			return d
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			seg := onlySegment(t, dir, "t_acme")
			offs := frameOffsets(t, seg)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tc.mutilate(data, offs), 0o644); err != nil {
				t.Fatal(err)
			}

			r := open(t, dir)
			rep := r.Report()
			if rep.TornTails != 1 {
				t.Fatalf("report = %+v, want one torn tail", rep)
			}
			var tail []Op
			if len(r.Tenants()) == 1 {
				tail = r.Tenants()[0].Tail
			}
			if len(tail) != tc.wantOps {
				t.Fatalf("recovered %d ops, want %d (report %+v)", len(tail), tc.wantOps, rep)
			}
			for i, op := range tail {
				if op.Seq != uint64(i+1) {
					t.Fatalf("tail[%d].Seq = %d, want %d", i, op.Seq, i+1)
				}
			}
			// The torn bytes were preserved and the segment truncated: a
			// second recovery is clean and identical.
			if qs, _ := filepath.Glob(filepath.Join(dir, "t_acme", quarantineRoot, "*.torn")); len(qs) != 1 {
				t.Errorf("torn bytes not preserved: %v", qs)
			}
			r.Close()
			r2 := open(t, dir)
			if rep2 := r2.Report(); rep2.TornTails != 0 || rep2.QuarantinedSegments != 0 {
				t.Fatalf("second recovery not clean: %+v", rep2)
			}
			var tail2 []Op
			if len(r2.Tenants()) == 1 {
				tail2 = r2.Tenants()[0].Tail
			}
			if len(tail2) != len(tail) {
				t.Fatalf("second recovery sees %d ops, first saw %d", len(tail2), len(tail))
			}
		})
	}
}

func TestMidSegmentCorruptionQuarantinesSuffix(t *testing.T) {
	dir := t.TempDir()
	// Three segments of (1 create + 2 admits), (3 admits), (3 admits):
	// reopening rotates to a fresh segment each time.
	s := open(t, dir)
	appendOps(t, s, "acme", 2)
	s.Close()
	s = open(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s = open(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("l%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "t_acme", "wal-*.log"))
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want 3", segs)
	}
	// Flip a byte inside the middle segment's first record payload.
	mid := segs[1]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+10] ^= 0x20
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	rep := r.Report()
	if rep.QuarantinedSegments != 2 {
		t.Fatalf("report = %+v, want middle and last segments quarantined", rep)
	}
	if len(r.Tenants()) != 1 {
		t.Fatalf("tenant lost entirely: %+v (report %+v)", r.Tenants(), rep)
	}
	if tail := r.Tenants()[0].Tail; len(tail) != 3 {
		t.Fatalf("recovered %d ops, want the 3 before the damage", len(tail))
	}
	r.Close()
	// Deterministic: a second recovery agrees with the first.
	r2 := open(t, dir)
	if rep2 := r2.Report(); rep2.QuarantinedSegments != 0 {
		t.Fatalf("second recovery not clean: %+v", rep2)
	}
	if tail := r2.Tenants()[0].Tail; len(tail) != 3 {
		t.Fatalf("second recovery sees %d ops", len(tail))
	}
}

func TestCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(c *Config) { c.SnapshotEvery = -1 })
	appendOps(t, s, "acme", 2) // seq 1..3
	if err := s.WriteSnapshot("acme", testSpec, []json.RawMessage{testJob("j0"), testJob("j1")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // seq 4..5
		if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot("acme", testSpec, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("tail")}); err != nil { // seq 6
		t.Fatal(err)
	}
	s.Close()

	// Flip a byte in the newest snapshot: recovery must fall back to the
	// previous generation and replay the intervening segment.
	newest := filepath.Join(dir, "t_acme", snapName(5))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	rep := r.Report()
	if rep.QuarantinedSnapshots != 1 {
		t.Fatalf("report = %+v, want the newest snapshot quarantined", rep)
	}
	rt := r.Tenants()
	if len(rt) != 1 || rt[0].Snapshot == nil || rt[0].Snapshot.Seq != 3 {
		t.Fatalf("recovered = %+v, want fallback to snapshot seq 3", rt)
	}
	// Tail replays seq 4..6 from the retained segments.
	if len(rt[0].Tail) != 3 || rt[0].Tail[0].Seq != 4 || rt[0].Tail[2].Seq != 6 {
		t.Fatalf("tail = %+v, want seq 4..6", rt[0].Tail)
	}
}

// TestSoleSnapshotKeepsSegments: compaction must not delete covered
// segments until a second snapshot generation exists — with only one
// snapshot on disk, the full log is the fallback if that sole snapshot
// is later corrupted.
func TestSoleSnapshotKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(c *Config) { c.SnapshotEvery = -1 })
	appendOps(t, s, "acme", 2) // seq 1..3 in the first segment
	s.Close()
	s = open(t, dir) // reopen rotates: seq 4..5 land in a second segment
	for i := 0; i < 2; i++ {
		if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot("acme", testSpec, nil); err != nil { // sole snapshot at seq 5
		t.Fatal(err)
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "t_acme", "wal-*.log"))
	if len(segs) != 2 {
		t.Fatalf("segments after sole snapshot = %v, want the full log retained", segs)
	}

	// Corrupt the only snapshot: recovery must fall back to the full log,
	// not quarantine the tenant.
	snapPath := filepath.Join(dir, "t_acme", snapName(5))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x08
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	rep := r.Report()
	if rep.QuarantinedSnapshots != 1 || rep.QuarantinedTenants != 0 {
		t.Fatalf("report = %+v, want the sole snapshot quarantined and the tenant kept", rep)
	}
	rt := r.Tenants()
	if len(rt) != 1 || rt[0].Snapshot != nil {
		t.Fatalf("recovered = %+v, want a log-only tenant", rt)
	}
	if tail := rt[0].Tail; len(tail) != 5 || tail[0].Kind != OpCreate || tail[4].Seq != 5 {
		t.Fatalf("tail = %+v, want the full seq 1..5 history", rt[0].Tail)
	}
}

// TestBadMagicInsideSnapshottedHistory: a non-final segment with a
// smashed header that lies entirely inside snapshotted history costs
// nothing the snapshot does not already carry, so only that segment is
// quarantined — acked post-snapshot operations in healthy later
// segments survive.
func TestBadMagicInsideSnapshottedHistory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, func(c *Config) { c.SnapshotEvery = -1 })
	appendOps(t, s, "acme", 2) // seq 1..3 in the first segment
	s.Close()
	s = open(t, dir)
	for i := 0; i < 2; i++ { // seq 4..5 in a second segment
		if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot("acme", testSpec, nil); err != nil { // covers seq 1..5
		t.Fatal(err)
	}
	if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("post")}); err != nil { // seq 6, third segment
		t.Fatal(err)
	}
	s.Close()

	first := filepath.Join(dir, "t_acme", segName(1))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "XXXXXXX")
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	rep := r.Report()
	if rep.QuarantinedSegments != 1 {
		t.Fatalf("report = %+v, want only the bad-magic segment quarantined", rep)
	}
	rt := r.Tenants()
	if len(rt) != 1 || rt[0].Snapshot == nil || rt[0].Snapshot.Seq != 5 {
		t.Fatalf("recovered = %+v, want snapshot-seeded tenant at seq 5", rt)
	}
	if tail := rt[0].Tail; len(tail) != 1 || tail[0].Seq != 6 {
		t.Fatalf("tail = %+v, want the acked post-snapshot op at seq 6", rt[0].Tail)
	}
}

func TestDroppedTenantReclaimedAndRecreatable(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	appendOps(t, s, "acme", 2)
	if _, err := s.Append("acme", Op{Kind: OpDrop, Evicted: true}); err != nil {
		t.Fatal(err)
	}
	// A dropped tenant refuses normal appends but accepts re-creation in
	// the same log.
	if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("x")}); err == nil {
		t.Fatal("admit on dropped tenant succeeded")
	}
	if _, err := s.Append("acme", Op{Kind: OpCreate, Spec: testSpec}); err != nil {
		t.Fatalf("re-create after drop: %v", err)
	}
	if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("y")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := open(t, dir)
	rt := r.Tenants()
	if len(rt) != 1 || len(rt[0].Tail) != 6 {
		t.Fatalf("recovered = %+v, want full 6-op history", rt)
	}
	r.Close()

	// A tenant whose final state is dropped is reclaimed at open.
	dir2 := t.TempDir()
	s2 := open(t, dir2)
	appendOps(t, s2, "gone", 1)
	if _, err := s2.Append("gone", Op{Kind: OpDrop}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	r2 := open(t, dir2)
	if len(r2.Tenants()) != 0 || r2.Report().Dropped != 1 {
		t.Fatalf("dropped tenant survived: %+v (report %+v)", r2.Tenants(), r2.Report())
	}
	if _, err := os.Stat(filepath.Join(dir2, "t_gone")); !errors.Is(err, os.ErrNotExist) {
		t.Error("dropped tenant directory not reclaimed")
	}
}

func TestUnknownTenantAppend(t *testing.T) {
	s := open(t, t.TempDir())
	_, err := s.Append("ghost", Op{Kind: OpAdmit, Job: testJob("j")})
	var unk *ErrUnknownTenant
	if !errors.As(err, &unk) || unk.ID != "ghost" {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	if _, err := s.Append("a", Op{Kind: OpCreate, Spec: testSpec}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("a", Op{Kind: OpCreate, Spec: testSpec}); err == nil {
		t.Fatal("double create succeeded")
	}
}

func TestAppendFaultsNeverCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		fsync bool
		arm   func(f *faultFS)
	}{
		{"write-error", false, func(f *faultFS) { f.failWriteAt = f.writes + 1 }},
		{"short-write", false, func(f *faultFS) { f.failWriteAt = f.writes + 1; f.shortWrite = true }},
		{"fsync-error", true, func(f *faultFS) { f.failSyncAt = f.syncs + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := &faultFS{}
			s := open(t, dir, func(c *Config) { c.FS = ffs; c.Fsync = tc.fsync })
			appendOps(t, s, "acme", 2) // seq 1..3 all good

			ffs.mu.Lock()
			tc.arm(ffs)
			ffs.mu.Unlock()
			if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("faulty")}); !errors.Is(err, errInjected) {
				t.Fatalf("faulted append err = %v, want injected fault", err)
			}
			// The failed op stays queued and the tenant degraded; once the
			// disk heals, the retry entry point writes it exactly once at
			// its own sequence number, with no corruption in between, and
			// later appends follow it.
			if b, _, _ := s.Stats(); b != 1 {
				t.Fatalf("backlog after faulted append = %d, want 1", b)
			}
			ffs.heal()
			if err := s.Retry(); err != nil {
				t.Fatalf("retry after heal: %v", err)
			}
			if b, _, _ := s.Stats(); b != 0 {
				t.Fatalf("backlog after retry = %d, want 0", b)
			}
			if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("after")}); err != nil {
				t.Fatalf("append after retry: %v", err)
			}
			s.Close()

			r := open(t, dir)
			rep := r.Report()
			if rep.TornTails != 0 || rep.QuarantinedSegments != 0 {
				t.Fatalf("recovery found damage after repaired append: %+v", rep)
			}
			tail := r.Tenants()[0].Tail
			if len(tail) != 5 {
				t.Fatalf("recovered %d ops, want 5", len(tail))
			}
			for k, want := range map[int]string{3: "faulty", 4: "after"} {
				var got struct {
					Name string `json:"name"`
				}
				if err := json.Unmarshal(tail[k].Job, &got); err != nil || got.Name != want || tail[k].Seq != uint64(k+1) {
					t.Fatalf("tail[%d] = %+v, want %q at seq %d (err %v)", k, tail[k], want, k+1, err)
				}
			}
		})
	}
}

// TestFaultDuringSnapshotLeavesOldGeneration: a snapshot that dies on
// any step leaves the previous snapshot and the full log intact.
func TestFaultDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{}
	s := open(t, dir, func(c *Config) { c.FS = ffs; c.SnapshotEvery = -1 })
	appendOps(t, s, "acme", 3)

	ffs.mu.Lock()
	ffs.failWriteAt = ffs.writes + 1 // the snapshot body write
	ffs.mu.Unlock()
	if err := s.WriteSnapshot("acme", testSpec, nil); err == nil {
		t.Fatal("snapshot with failing write succeeded")
	}
	ffs.heal()
	if _, err := s.Append("acme", Op{Kind: OpAdmit, Job: testJob("after")}); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	s.Close()

	r := open(t, dir)
	rt := r.Tenants()
	if len(rt) != 1 || rt[0].Snapshot != nil {
		t.Fatalf("recovered = %+v, want log-only tenant (no published snapshot)", rt)
	}
	if len(rt[0].Tail) != 5 {
		t.Fatalf("recovered %d ops, want 5", len(rt[0].Tail))
	}
}
