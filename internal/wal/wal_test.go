package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/fault"
)

// collect replays a directory's log into a map and a record list.
func collect(t *testing.T, dir string, opts Options) (map[string]Record, []Record, *RecoveryReport) {
	t.Helper()
	opts.Dir = dir
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = w.Close() }()
	state := make(map[string]Record)
	var recs []Record
	rep, err := w.Recover(nil, func(r Record) error {
		recs = append(recs, r)
		if r.Op == OpDelete || (r.Op == OpMerge && r.Tombstone) {
			delete(state, r.Key)
		} else {
			state[r.Key] = r
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return state, recs, rep
}

func mustAppend(t *testing.T, w *WAL, op Op, key, value string, version uint64) {
	t.Helper()
	ack, err := w.Append(op, key, []byte(value), version, 0)
	if err != nil {
		t.Fatalf("Append(%s %q): %v", op, key, err)
	}
	if err := ack(); err != nil {
		t.Fatalf("ack(%s %q): %v", op, key, err)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep, err := w.Recover(nil, func(Record) error { t.Fatal("empty log should apply nothing"); return nil })
	if err != nil {
		t.Fatalf("Recover empty: %v", err)
	}
	if rep.RecordsApplied != 0 || rep.SnapshotLoaded || rep.TornTail {
		t.Fatalf("empty-log report = %+v", rep)
	}
	mustAppend(t, w, OpPut, "a", "1", 7)
	mustAppend(t, w, OpPut, "b", "2", 8)
	mustAppend(t, w, OpDelete, "a", "", 0)
	mustAppend(t, w, OpPut, "b", "3", 9)
	if got := w.LastSeq(); got != 4 {
		t.Fatalf("LastSeq = %d, want 4", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	state, recs, rep := collect(t, dir, Options{})
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if rep.TornTail || len(rep.Skipped) != 0 {
		t.Fatalf("clean log report = %+v", rep)
	}
	if _, ok := state["a"]; ok {
		t.Fatal("deleted key resurrected")
	}
	if b := state["b"]; string(b.Value) != "3" || b.Version != 9 {
		t.Fatalf("b = %+v, want value 3 version 9", b)
	}
}

func TestSegmentRotationAndStats(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("key-%02d", i), "0123456789abcdef", uint64(i+1))
	}
	st := w.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if st.Appended != 40 || st.LastSeq != 40 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Fsyncs == 0 || st.FsyncLatency.Count == 0 {
		t.Fatal("always-sync WAL recorded no fsyncs")
	}
	if st.BatchRecords.Count == 0 {
		t.Fatal("no group-commit batches observed")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, recs, _ := collect(t, dir, Options{SegmentSize: 256})
	if len(recs) != 40 || len(state) != 40 {
		t.Fatalf("replayed %d records, %d keys; want 40, 40", len(recs), len(state))
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ack, aerr := w.Append(OpPut, fmt.Sprintf("w%d-%03d", g, i), []byte("v"), 1, 0)
				if aerr != nil {
					errCh <- aerr
					return
				}
				if aerr := ack(); aerr != nil {
					errCh <- aerr
					return
				}
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		if err := <-errCh; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, recs, _ := collect(t, dir, Options{})
	if len(recs) != writers*perWriter || len(state) != writers*perWriter {
		t.Fatalf("replayed %d records, %d keys; want %d", len(recs), len(state), writers*perWriter)
	}
	// Sequence numbers must be dense and strictly increasing.
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if r.Seq == 0 || r.Seq > uint64(writers*perWriter) || seen[r.Seq] {
			t.Fatalf("bad seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestBatchAndNonePoliciesRecover(t *testing.T) {
	for _, policy := range []SyncPolicy{
		{Mode: SyncBatch, Window: time.Millisecond},
		{Mode: SyncNone},
	} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Options{Dir: dir, Sync: policy})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for i := 0; i < 25; i++ {
				mustAppend(t, w, OpPut, fmt.Sprintf("k%02d", i), "v", uint64(i+1))
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, recs, _ := collect(t, dir, Options{})
			if len(recs) != 25 {
				t.Fatalf("replayed %d records, want 25", len(recs))
			}
		})
	}
}

func TestCompactDropsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 30; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("key-%02d", i), "0123456789abcdef", uint64(i+1))
	}
	snapshotBody := []byte("snapshot-state-stand-in")
	removed, err := w.Compact(func(out io.Writer) error {
		_, werr := out.Write(snapshotBody)
		return werr
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if removed == 0 {
		t.Fatal("compaction removed no segments")
	}
	st := w.Stats()
	if st.SnapshotSeq != 30 {
		t.Fatalf("snapshot covers seq %d, want 30", st.SnapshotSeq)
	}
	// Appends continue after compaction with continuous seqs.
	mustAppend(t, w, OpPut, "post", "compact", 31)
	if got := w.LastSeq(); got != 31 {
		t.Fatalf("LastSeq after compact = %d, want 31", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: snapshot loads, only the post-compaction record replays.
	w2, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = w2.Close() }()
	var snapGot []byte
	var replayed []Record
	rep, err := w2.Recover(
		func(r io.Reader) error {
			var rerr error
			snapGot, rerr = io.ReadAll(r)
			return rerr
		},
		func(r Record) error {
			replayed = append(replayed, r)
			return nil
		},
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.SnapshotLoaded || rep.SnapshotSeq != 30 {
		t.Fatalf("report = %+v, want snapshot @30", rep)
	}
	if !bytes.Equal(snapGot, snapshotBody) {
		t.Fatalf("snapshot body = %q", snapGot)
	}
	if len(replayed) != 1 || replayed[0].Key != "post" || replayed[0].Seq != 31 {
		t.Fatalf("replayed = %+v, want only seq-31 post record", replayed)
	}
	if got := w2.LastSeq(); got != 31 {
		t.Fatalf("reopened LastSeq = %d, want 31", got)
	}
}

// TestCompactWriteErrorKeepsPrevious: a snapshot writer failing midway
// leaves the previous snapshot and every segment in place, no temp file
// behind, and the log appendable and recoverable as before.
func TestCompactWriteErrorKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("key-%02d", i), "0123456789abcdef", uint64(i+1))
	}
	good := []byte("good snapshot")
	if _, err := w.Compact(func(out io.Writer) error {
		_, werr := out.Write(good)
		return werr
	}); err != nil {
		t.Fatalf("first Compact: %v", err)
	}
	for i := 10; i < 20; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("key-%02d", i), "0123456789abcdef", uint64(i+1))
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return names
	}
	before := listing()

	injected := errors.New("injected write failure")
	_, err = w.Compact(func(out io.Writer) error {
		_, _ = out.Write([]byte("partial gar")) // bytes written before the failure
		return injected
	})
	if !errors.Is(err, injected) {
		t.Fatalf("Compact err = %v, want the injected failure", err)
	}
	if after := listing(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("failed compaction changed the directory:\nbefore %v\nafter  %v", before, after)
	}
	if got, rerr := os.ReadFile(filepath.Join(dir, snapName(10))); rerr != nil || !bytes.Equal(got, good) {
		t.Fatalf("previous snapshot after failed compaction = %q (%v)", got, rerr)
	}
	if st := w.Stats(); st.SnapshotSeq != 10 {
		t.Fatalf("SnapshotSeq = %d after failed compaction, want 10", st.SnapshotSeq)
	}
	mustAppend(t, w, OpPut, "post", "failure", 21)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = w2.Close() }()
	var snapGot []byte
	var replayed int
	rep, err := w2.Recover(
		func(r io.Reader) error {
			var rerr error
			snapGot, rerr = io.ReadAll(r)
			return rerr
		},
		func(Record) error { replayed++; return nil },
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.SnapshotLoaded || rep.SnapshotSeq != 10 || !bytes.Equal(snapGot, good) {
		t.Fatalf("report = %+v, snapshot %q; want the good snapshot @10", rep, snapGot)
	}
	if replayed != 11 {
		t.Fatalf("replayed %d records past the snapshot, want 11", replayed)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncPolicy{Mode: SyncAlways}, true},
		{"", SyncPolicy{Mode: SyncAlways}, true},
		{"none", SyncPolicy{Mode: SyncNone}, true},
		{"batch", SyncPolicy{Mode: SyncBatch, Window: defaultBatchWindow}, true},
		{"batch:5ms", SyncPolicy{Mode: SyncBatch, Window: 5 * time.Millisecond}, true},
		{"batch:-1ms", SyncPolicy{}, false},
		{"batch:", SyncPolicy{}, false},
		{"coalesce", SyncPolicy{Mode: SyncCoalesce, Window: defaultBatchWindow}, true},
		{"coalesce:5ms", SyncPolicy{Mode: SyncCoalesce, Window: 5 * time.Millisecond}, true},
		{"coalesce:-1ms", SyncPolicy{}, false},
		{"coalesce:", SyncPolicy{}, false},
		{"fsync", SyncPolicy{}, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, s := range []string{"always", "none", "batch:5ms", "coalesce:5ms"} {
		p, _ := ParseSyncPolicy(s)
		if p.String() != s {
			t.Fatalf("String round trip %q -> %q", s, p.String())
		}
	}
}

func TestAbandonSimulatesCrash(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("k%d", i), "v", uint64(i+1))
	}
	w.Abandon()
	if _, err := w.Append(OpPut, "late", nil, 1, 0); err == nil {
		t.Fatal("append after Abandon should fail")
	}
	// Acknowledged (fsynced) records survive the crash.
	_, recs, _ := collect(t, dir, Options{})
	if len(recs) != 10 {
		t.Fatalf("recovered %d records after crash, want 10", len(recs))
	}
}

func TestTornWriteInjectionFailsStop(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewFileInjector()
	w, err := Open(Options{
		Dir:      dir,
		WrapFile: func(f File) File { return inj.Wrap(f) },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("good-%d", i), "value", uint64(i+1))
	}
	inj.TearNextWrite(5) // the next record loses all but 5 bytes mid-write
	ack, err := w.Append(OpPut, "doomed", []byte("never-lands"), 4, 0)
	if err != nil {
		t.Fatalf("Append enqueue: %v", err)
	}
	if err := ack(); err == nil {
		t.Fatal("torn write must fail the append's ack")
	}
	// The WAL is fail-stop: later appends report the sticky error.
	if _, err := w.Append(OpPut, "after", nil, 5, 0); err == nil {
		t.Fatal("append after torn write should fail fast")
	}
	w.Abandon()

	// Recovery: the torn record is truncated away, the rest survives.
	state, recs, rep := collect(t, dir, Options{})
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3 (got %+v)", len(recs), recs)
	}
	if !rep.TornTail {
		t.Fatalf("report did not flag the torn tail: %+v", rep)
	}
	if _, ok := state["doomed"]; ok {
		t.Fatal("torn record must not replay")
	}
}

func TestFailedFsyncFailsAlwaysModeAcks(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewFileInjector()
	w, err := Open(Options{
		Dir:      dir,
		WrapFile: func(f File) File { return inj.Wrap(f) },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Abandon()
	mustAppend(t, w, OpPut, "pre", "v", 1)
	inj.FailSync()
	ack, err := w.Append(OpPut, "unsynced", []byte("v"), 2, 0)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := ack(); err == nil {
		t.Fatal("always-mode ack must surface the fsync failure")
	}
}

func TestInspectReportsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("key-%02d", i), "0123456789abcdef", uint64(i+1))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Segments) < 2 {
		t.Fatalf("Inspect found %d segments, want >= 2", len(info.Segments))
	}
	records, last := 0, uint64(0)
	for _, s := range info.Segments {
		records += s.Records
		if s.Skipped != 0 || s.Torn {
			t.Fatalf("clean segment reported damage: %+v", s)
		}
		if s.FirstSeq <= last {
			t.Fatalf("segments out of order: %+v", info.Segments)
		}
		last = s.LastSeq
	}
	if records != 20 || last != 20 {
		t.Fatalf("Inspect totals: records=%d last=%d, want 20, 20", records, last)
	}
	if info.Corrupt() {
		t.Fatal("clean dir flagged corrupt")
	}
}

func TestRecoverRefusedAfterAppend(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = w.Close() }()
	mustAppend(t, w, OpPut, "k", "v", 1)
	if _, err := w.Recover(nil, nil); err == nil {
		t.Fatal("Recover after Append must refuse")
	}
}

// segmentPaths lists the dir's segment files in order.
func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return names
}

func TestCloseFlushesQueuedAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncPolicy{Mode: SyncBatch, Window: time.Hour}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A huge batch window means nothing fsyncs until Close's final flush.
	for i := 0; i < 5; i++ {
		mustAppend(t, w, OpPut, fmt.Sprintf("k%d", i), "v", uint64(i+1))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(segmentPaths(t, dir)); got != 1 {
		t.Fatalf("%d segment files, want 1", got)
	}
	_, recs, _ := collect(t, dir, Options{})
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
}

func TestOpenIgnoresForeignAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(9)+".tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = w.Close() }()
	if _, err := os.Stat(filepath.Join(dir, snapName(9)+".tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover snapshot temp file not removed")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("foreign file must be left alone")
	}
	if got := w.LastSeq(); got != 0 {
		t.Fatalf("LastSeq = %d, want 0", got)
	}
}
