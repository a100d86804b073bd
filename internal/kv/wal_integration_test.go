package kv

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/fault"
	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
)

// newWALServer starts one loopback server with the durability
// subsystem on, letting mutate tweak the config first.
func newWALServer(t *testing.T, dir string, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{ID: 0, Addr: "127.0.0.1:0", WALDir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

// connect returns a client wired to srv alone.
func connect(t *testing.T, srv *Server) *Client {
	t.Helper()
	client, err := NewClient(ClientConfig{
		Servers: map[sched.ServerID]string{srv.ID(): srv.Addr()},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// TestServerWALCrashRecovery is the end-to-end acceptance path: a
// workload of puts, deletes, CAS, and TTL writes under -wal-sync
// always, a crash (no flush, no snapshot), and a restart on the same
// directory that must yield every acknowledged write with its exact
// version.
func TestServerWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, nil)
	client := connect(t, srv)
	ctx := context.Background()

	const n = 50
	for i := 0; i < n; i++ {
		if err := client.Put(ctx, fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := client.Delete(ctx, "key-03"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := client.CompareAndSwap(ctx, "key-05", []byte("val-05"), []byte("swapped")); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if err := client.PutTTL(ctx, "ttl-key", []byte("expires"), time.Hour); err != nil {
		t.Fatalf("PutTTL: %v", err)
	}
	// Record the exact versions the live store holds; recovery must
	// reproduce them, not re-stamp.
	wantVersions := make(map[string]uint64)
	for _, k := range []string{"key-00", "key-05", "ttl-key"} {
		_, ver, ok := srv.Store().GetVersioned(k)
		if !ok {
			t.Fatalf("pre-crash %s missing", k)
		}
		wantVersions[k] = ver
	}
	_ = client.Close()
	srv.Crash()

	srv2 := newWALServer(t, dir, nil)
	defer func() { _ = srv2.Close() }()
	rep := srv2.WALRecovery()
	if rep == nil || rep.RecordsApplied == 0 {
		t.Fatalf("recovery report = %+v", rep)
	}
	st := srv2.Store()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v, ok := st.Get(k)
		switch {
		case i == 3:
			if ok {
				t.Fatalf("%s deleted pre-crash but recovered", k)
			}
		case i == 5:
			if !ok || string(v) != "swapped" {
				t.Fatalf("%s = %q/%v, want swapped", k, v, ok)
			}
		default:
			if !ok || string(v) != fmt.Sprintf("val-%02d", i) {
				t.Fatalf("%s = %q/%v", k, v, ok)
			}
		}
	}
	if v, ok := st.Get("ttl-key"); !ok || string(v) != "expires" {
		t.Fatalf("ttl-key = %q/%v", v, ok)
	}
	for k, want := range wantVersions {
		_, ver, ok := st.GetVersioned(k)
		if !ok || ver != want {
			t.Fatalf("%s recovered version %d/%v, want %d", k, ver, ok, want)
		}
	}
}

// TestServerWALGracefulCloseCompacts: a clean shutdown folds the log
// into a snapshot, so the next start loads one file and replays zero
// records.
func TestServerWALGracefulCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, nil)
	client := connect(t, srv)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := client.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	_ = client.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after graceful close (err=%v)", err)
	}

	srv2 := newWALServer(t, dir, nil)
	defer func() { _ = srv2.Close() }()
	rep := srv2.WALRecovery()
	if !rep.SnapshotLoaded || rep.RecordsApplied != 0 {
		t.Fatalf("report = %+v, want snapshot-only recovery", rep)
	}
	if got := srv2.Store().Len(); got != 10 {
		t.Fatalf("recovered %d keys, want 10", got)
	}
}

// TestServerWALStatsAndMetrics: the stats document grows a wal section
// and /metrics exports the kv_wal_* families, lint-clean.
func TestServerWALStatsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, nil)
	defer func() { _ = srv.Close() }()
	client := connect(t, srv)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := client.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := srv.StatsSnapshot()
	if st.WAL == nil {
		t.Fatal("stats missing wal section")
	}
	if st.WAL.Appended < 5 || st.WAL.LastSeq < 5 || st.WAL.Segments < 1 {
		t.Fatalf("wal stats = %+v", st.WAL)
	}
	if st.WAL.Policy != "always" {
		t.Fatalf("policy = %q, want always", st.WAL.Policy)
	}
	if st.WAL.Fsyncs == 0 || st.WAL.FsyncLatency == nil || st.WAL.BatchRecords == nil {
		t.Fatalf("wal fsync stats = %+v", st.WAL)
	}

	rec := httptest.NewRecorder()
	NewMetricsHandler(srv).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, family := range []string{
		"kv_wal_segments", "kv_wal_bytes", "kv_wal_last_seq",
		"kv_wal_records_total", "kv_wal_fsyncs_total",
		"kv_wal_fsync_seconds_bucket", "kv_wal_batch_records_bucket",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("exposition missing %s:\n%s", family, body)
		}
	}
	if problems := metrics.LintExposition(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}

// TestServerWALTornWriteFailsStop drives the fault injector through
// the server: a torn segment write must fail the acknowledgement,
// latch the store's durability error, refuse subsequent writes, and
// recover cleanly (torn record absent) on restart.
func TestServerWALTornWriteFailsStop(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewFileInjector()
	srv := newWALServer(t, dir, func(cfg *ServerConfig) {
		cfg.WALWrapFile = func(f wal.File) wal.File { return inj.Wrap(f) }
	})
	client := connect(t, srv)
	ctx := context.Background()

	if err := client.Put(ctx, "durable", []byte("survives")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	inj.TearNextWrite(4)
	// The put's ack fails; assert fail-stop through the store's latch
	// and through a later CAS, which the server must refuse.
	_ = client.Put(ctx, "torn", []byte("lost"))
	if srv.Store().DurabilityErr() == nil {
		t.Fatal("durability error not latched after torn write")
	}
	err := client.CompareAndSwap(ctx, "fresh", nil, []byte("x"))
	if err == nil || errors.Is(err, ErrCASMismatch) {
		t.Fatalf("CAS after durability failure = %v, want server error", err)
	}
	_ = client.Close()
	srv.Crash()

	srv2 := newWALServer(t, dir, nil)
	defer func() { _ = srv2.Close() }()
	if v, ok := srv2.Store().Get("durable"); !ok || string(v) != "survives" {
		t.Fatalf("durable = %q/%v", v, ok)
	}
	if _, ok := srv2.Store().Get("torn"); ok {
		t.Fatal("torn record recovered")
	}
}
