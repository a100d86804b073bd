package main

// metricDef names one number the benchmark reports. The table is the
// benchmark's vocabulary: BENCHMARK.json lists the same names (a
// self-test and -smoke check that the two agree) and -compare judges by
// the bounds given here.
type metricDef struct {
	name string
	unit string
	// better is the good direction, "lower" or "higher".
	better string
	// endToEnd marks what a user of the store sees, measured with
	// tracing off; the rest are single-layer numbers from the traced run.
	endToEnd bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it regressed; zeroBound
	// means any worsening at all.
	bound float64
	// only names the one workload an end-to-end metric exists on ("" =
	// all). BENCHMARK.json's end_to_end list must hold on every
	// workload, so metrics with only set are listed there as per_layer
	// (and are also reported by the traced run).
	only string
}

const zeroBound = 0

// Each bound is at least three times the widest inter-quartile spread
// ten seeds showed on the reference host, or the 25 % cap; README.md
// ("How the bounds were calibrated") has the measured spreads.
var metricDefs = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher", endToEnd: true, bound: 0.20},
	{name: "rct_mean_ms", unit: "ms", better: "lower", endToEnd: true, bound: 0.20},
	{name: "rct_p50_ms", unit: "ms", better: "lower", endToEnd: true, bound: 0.20},
	{name: "rct_p99_ms", unit: "ms", better: "lower", endToEnd: true, bound: 0.25},
	{name: "heap_live_mb", unit: "MiB", better: "lower", endToEnd: true, bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", endToEnd: true, bound: 0.25},
	{name: "put_p50_ms", unit: "ms", better: "lower", endToEnd: true, bound: 0.20, only: "mixed-durable"},
	{name: "put_p99_ms", unit: "ms", better: "lower", endToEnd: true, bound: 0.25, only: "mixed-durable"},
	{name: "wal_bytes_per_user_byte", unit: "ratio", better: "lower", endToEnd: true, bound: 0.02, only: "mixed-durable"},
	{name: "fail_ratio", unit: "ratio", better: "lower", endToEnd: true, bound: zeroBound},

	// (A) live spans and counters of the traced run.
	{name: "kv.client.span_us_mean", unit: "us", better: "lower"},
	{name: "kv.client.self_us_mean", unit: "us", better: "lower"},
	{name: "kv.client.transit_us_mean", unit: "us", better: "lower"},
	{name: "kv.client.straggler_gap_us_mean", unit: "us", better: "lower"},
	{name: "kv.server.queue_wait_us_mean", unit: "us", better: "lower"},
	{name: "kv.server.queue_wait_us_p99", unit: "us", better: "lower"},
	{name: "kv.server.service_us_mean", unit: "us", better: "lower"},
	{name: "kv.server.ops_per_batch", unit: "ratio", better: "higher"},
	{name: "kv.server.frames_per_flush", unit: "ratio", better: "higher"},
	{name: "core.das.demote_ratio", unit: "ratio", better: "lower"},
	{name: "core.das.promote_ratio", unit: "ratio", better: "lower"},
	{name: "core.das.tag_error_us_mean", unit: "us", better: "lower"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.records_per_fsync", unit: "ratio", better: "higher"},
	{name: "wal.fsync_us_mean", unit: "us", better: "lower"},

	// (B) layer replay.
	{name: "wire.encode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_response_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_response_ns", unit: "ns", better: "lower"},
	{name: "wire.batch_encode_ns_per_op", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_op", unit: "count", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "core.tag_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.estimator.observe_ns", unit: "ns", better: "lower"},
	{name: "core.das.push_ns.depth8", unit: "ns", better: "lower"},
	{name: "core.das.pop_ns.depth8", unit: "ns", better: "lower"},
	{name: "core.das.push_ns.depth1024", unit: "ns", better: "lower"},
	{name: "core.das.pop_ns.depth1024", unit: "ns", better: "lower"},
	{name: "sched.fcfs.push_pop_ns", unit: "ns", better: "lower"},
	{name: "kv.store.get_ns", unit: "ns", better: "lower"},
	{name: "kv.store.put_ns", unit: "ns", better: "lower"},
	{name: "kv.store.get_parallel_ns", unit: "ns", better: "lower"},
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.append_ack_us", unit: "us", better: "lower"},
	{name: "replica.score_ns", unit: "ns", better: "lower"},
	{name: "topology.lookup_ns", unit: "ns", better: "lower"},
	{name: "metrics.histogram_observe_ns", unit: "ns", better: "lower"},

	// The ledger and the benchmark's own validity numbers.
	{name: "ledger.attributed_share", unit: "ratio", better: "higher"},
	{name: "ledger.unattributed_us", unit: "us", better: "lower"},
	{name: "gen.lateness_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.achieved_over_offered", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// inManifestEndToEnd reports whether BENCHMARK.json lists d under
// end_to_end (defined and never zero on every workload); everything
// else it lists under per_layer.
func (d metricDef) inManifestEndToEnd() bool {
	return d.endToEnd && d.only == "" && d.name != "fail_ratio"
}

// appliesTo reports whether an end-to-end metric exists on a workload.
func (d metricDef) appliesTo(workload string) bool {
	return d.only == "" || d.only == workload
}
