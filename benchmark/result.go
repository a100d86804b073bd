package main

import (
	"fmt"
	"runtime"
	"time"
)

// metric is one reported value. N is the sample count behind it;
// Unsupported marks a percentile with fewer than minBeyond samples
// beyond it, which is computed but not to be trusted.
type metric struct {
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"n,omitempty"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// runResult is one run of one workload: the untraced run carries the
// end-to-end metrics, the traced run the per-layer ones.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Void      []string          `json:"void,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	rec *recorder
}

func (r *runResult) set(name string, value float64, n int) {
	d, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric table")
	}
	r.Metrics[name] = metric{Value: value, Unit: d.unit, N: n}
}

func (r *runResult) setQuantile(name string, s *samples, q float64, unit func(time.Duration) float64) {
	v, ok := s.quantile(q)
	r.set(name, unit(v), s.n())
	if !ok {
		m := r.Metrics[name]
		m.Unsupported = true
		r.Metrics[name] = m
	}
}

// correct reports whether the run's outputs were right and the run
// measured what it claims to.
func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Void) == 0 }

type runOpts struct {
	seed    uint64
	seconds time.Duration
	warmup  time.Duration
	traced  bool
	workdir string
	host    hostInfo
	// replay overrides replayRequests (0 = the default); the self-tests
	// replay a few hundred requests, not twenty thousand.
	replay int
}

// setupRepeats is how many times the untraced run boots and preloads,
// so that setup_s is a median and not one draw.
const setupRepeats = 3

// Validity limits of the open-loop generator.
const (
	maxLatenessP99 = 2 * time.Millisecond
	minAchieved    = 0.99
	// maxSleepOvershoot is the share of the smallest simulated service
	// time by which time.Sleep may overshoot before the scheduling
	// workload would be measuring the host's timer instead.
	maxSleepOvershoot = 0.25
)

// runOne boots a cluster, drives one workload at it and reports.
func runOne(s spec, o runOpts) (*runResult, error) {
	res := &runResult{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Traced: o.traced,
		Metrics: make(map[string]metric),
	}
	ks := newKeyspace(s)

	// The untraced run reports setup_s, so it sets up several times and
	// measures on the last cluster; the traced run sets up once.
	repeats := setupRepeats
	if o.traced {
		repeats = 1
	}
	var c *cluster
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = boot(s, ks, o.workdir, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { c.close() }()

	r := newRunner(c, o.seed)
	var phases []phase
	if o.traced {
		// A quarter of the window runs untraced on the same cluster as
		// the reference for trace.overhead_ratio.
		ref := o.seconds / 4
		phases = []phase{
			{dur: o.warmup / 2},                                // warm-up
			{dur: ref, record: true},                           // reference
			{dur: o.warmup - o.warmup/2, traced: true},         // warm-up again
			{dur: o.seconds - ref, traced: true, record: true}, // traced
		}
	} else {
		phases = []phase{
			{dur: o.warmup},                // warm-up
			{dur: o.seconds, record: true}, // measured
		}
	}
	tallies, err := r.run(phases)
	if err != nil {
		return nil, err
	}
	m := tallies[len(tallies)-1]
	res.Attempted, res.Failed = m.attempted, m.failed
	res.rec = r.rec

	if s.costPerByte > 0 {
		smallest := time.Duration(s.smallBytes) * s.costPerByte
		if over := o.host.sleepOvershoot(); float64(over) > maxSleepOvershoot*float64(smallest) {
			res.Void = append(res.Void, fmt.Sprintf("time.Sleep(1ms) overshoots by %v, more than %.0f%% of the %v simulated service time", over, 100*maxSleepOvershoot, smallest))
		}
	}
	if !s.closedLoop() {
		if p99, _ := m.late.quantile(0.99); p99 > maxLatenessP99 {
			res.Void = append(res.Void, fmt.Sprintf("generator lateness p99 %v exceeds %v", p99, maxLatenessP99))
		}
		if a := m.achieved(); a < minAchieved {
			res.Void = append(res.Void, fmt.Sprintf("achieved %.4f of the offered rate, below %.2f", a, minAchieved))
		}
	}

	res.userFacing(m)
	if o.traced {
		res.layers(tallies[1], m)
	} else {
		_, med, _ := quartiles(setups)
		res.set("setup_s", med, len(setups))
		// Live heap of the store and client, not of the ruler: drop the
		// latency samples before collecting.
		tallies, m, r.rec, res.rec = nil, nil, nil, nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	}

	if s.walSync != "" {
		// Durability: close gracefully, restart from the WAL directories
		// alone, and look for every acknowledged write.
		c.stop()
		acked := make([]uint32, len(r.acked))
		issued := make([]uint32, len(r.issued))
		for i := range acked {
			acked[i], issued[i] = r.acked[i].Load(), r.issued[i].Load()
		}
		misses, err := c.reopenAndCheck(acked, issued)
		if err != nil {
			return nil, err
		}
		res.Failed += int64(misses)
	}
	res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), int(res.Attempted))

	if o.traced {
		c.close() // the replay wants the CPUs to itself
		requests := o.replay
		if requests == 0 {
			requests = replayRequests
		}
		replayed, err := layerReplay(s, ks, o.seed, requests, o.workdir, res.rec)
		if err != nil {
			return nil, err
		}
		for name, v := range replayed {
			res.set(name, v, requests)
		}
		res.ledger()
	}
	return res, nil
}

// userFacing fills in what a user of the store sees in window m, each
// value read from all the window's samples.
func (r *runResult) userFacing(m *tally) {
	r.set("throughput_rps", float64(m.inWindow)/m.window.Seconds(), int(m.inWindow))
	r.set("rct_mean_ms", ms(m.reads.mean()), m.reads.n())
	r.setQuantile("rct_p50_ms", m.reads, 0.50, ms)
	r.setQuantile("rct_p99_ms", m.reads, 0.99, ms)
	r.setQuantile("put_p50_ms", m.puts, 0.50, ms)
	r.setQuantile("put_p99_ms", m.puts, 0.99, ms)
	walBytes := 0.0
	if m.userBytes > 0 {
		var d int64
		for i := range m.after {
			if a, b := m.after[i].WAL, m.before[i].WAL; a != nil && b != nil {
				d += a.Bytes - b.Bytes
			}
		}
		walBytes = float64(d) / float64(m.userBytes)
	}
	r.set("wal_bytes_per_user_byte", walBytes, m.puts.n())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills in the per-layer numbers of source (A): the spans the
// recorder sampled and the servers' counter deltas over the traced
// window m; ref is the untraced reference window before it.
func (r *runResult) layers(ref, m *tally) {
	rec := r.rec
	r.set("kv.client.span_us_mean", rec.perRequest(rec.sumSpan), rec.requests)
	r.set("kv.client.self_us_mean", rec.perRequest(rec.sumSelf), rec.requests)
	r.set("kv.client.straggler_gap_us_mean", rec.perRequest(rec.sumGap), rec.requests)
	r.set("kv.client.transit_us_mean", rec.perOp(rec.sumTransit), rec.ops)
	r.set("kv.server.queue_wait_us_mean", rec.perOp(rec.sumWait), rec.ops)
	r.setQuantile("kv.server.queue_wait_us_p99", rec.waits, 0.99, us)
	r.set("kv.server.service_us_mean", rec.perOp(rec.sumService), rec.ops)

	var d struct {
		served, batches, batchOps, frames, flushes   float64
		pushed, demoted, promoted                    float64
		walBytes, walRecords, walFsyncs              float64
		tagErrNanos, tagErrCount, fsyncNanos, fsyncN float64
	}
	for i := range m.after {
		a, b := m.after[i], m.before[i]
		d.served += float64(a.Served - b.Served)
		d.batches += float64(a.Batches - b.Batches)
		d.batchOps += float64(a.BatchOps - b.BatchOps)
		d.frames += float64(a.RespFrames - b.RespFrames)
		d.flushes += float64(a.RespFlushes - b.RespFlushes)
		if a.Decisions != nil && b.Decisions != nil {
			d.pushed += float64(a.Decisions.Pushed - b.Decisions.Pushed)
			d.demoted += float64(a.Decisions.LRPTDemoted - b.Decisions.LRPTDemoted)
			d.promoted += float64(a.Decisions.Promotions - b.Decisions.Promotions)
		}
		// The two summaries are cumulative since boot, not deltas.
		if e := a.DemandError; e != nil {
			d.tagErrNanos += float64(e.MeanNanos) * float64(e.Count)
			d.tagErrCount += float64(e.Count)
		}
		if a.WAL != nil && b.WAL != nil {
			d.walBytes += float64(a.WAL.Bytes - b.WAL.Bytes)
			d.walRecords += float64(a.WAL.Appended - b.WAL.Appended)
			d.walFsyncs += float64(a.WAL.Fsyncs - b.WAL.Fsyncs)
			if f := a.WAL.FsyncLatency; f != nil {
				d.fsyncNanos += float64(f.MeanNanos) * float64(f.Count)
				d.fsyncN += float64(f.Count)
			}
		}
	}
	// The servers count only multi-op frames as batches; single-op
	// frames are the served ops that rode in none.
	requestFrames := d.served - d.batchOps + d.batches
	r.set("kv.server.ops_per_batch", ratio(d.served, requestFrames), int(requestFrames))
	r.set("kv.server.frames_per_flush", ratio(d.frames, d.flushes), int(d.flushes))
	r.set("core.das.demote_ratio", ratio(d.demoted, d.pushed), int(d.pushed))
	r.set("core.das.promote_ratio", ratio(d.promoted, d.pushed), int(d.pushed))
	r.set("core.das.tag_error_us_mean", ratio(d.tagErrNanos, d.tagErrCount)/1e3, int(d.tagErrCount))
	r.set("wal.bytes_per_record", ratio(d.walBytes, d.walRecords), int(d.walRecords))
	r.set("wal.records_per_fsync", ratio(d.walRecords, d.walFsyncs), int(d.walFsyncs))
	r.set("wal.fsync_us_mean", ratio(d.fsyncNanos, d.fsyncN)/1e3, int(d.fsyncN))

	p99, _ := m.late.quantile(0.99)
	r.set("gen.lateness_p99_ms", ms(p99), int(m.attempted))
	r.set("gen.achieved_over_offered", m.achieved(), int(m.attempted))
	refRate := float64(ref.inWindow) / ref.window.Seconds()
	r.set("trace.overhead_ratio", ratio(float64(m.inWindow)/m.window.Seconds(), refRate), int(ref.inWindow))
}

// ledger adds up what the replay says one request's path costs —
// client-side layers once per operation of the request, server-side
// layers once per operation of a frame — plus the straggler's reported
// wait and service, and sets that against the measured client span.
// What is left is time no layer accounts for from outside: sockets,
// goroutine hand-offs, locks.
func (r *runResult) ledger() {
	v := func(name string) float64 { return r.Metrics[name].Value }
	rec := r.rec
	fanout := ratio(float64(rec.ops), float64(rec.requests))
	encode := v("wire.encode_request_ns")
	if fanout > 1 {
		encode = v("wire.batch_encode_ns_per_op")
	}
	clientPerOp := v("topology.lookup_ns") + v("replica.score_ns") + v("core.tag_ns_per_op") +
		encode + v("wire.decode_response_ns") + v("core.estimator.observe_ns")
	serverPerOp := v("wire.decode_request_ns") + v("core.das.push_ns.depth8") + v("core.das.pop_ns.depth8") +
		v("wire.encode_response_ns") + 2*v("metrics.histogram_observe_ns")
	attributed := (fanout*clientPerOp+v("kv.server.ops_per_batch")*serverPerOp)/1e3 +
		rec.perRequest(rec.sumStraggler)
	span := v("kv.client.span_us_mean")
	r.set("ledger.attributed_share", ratio(attributed, span), rec.requests)
	r.set("ledger.unattributed_us", span-attributed, rec.requests)
}
