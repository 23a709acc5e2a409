//! The names this benchmark is known by: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` repeats them (with the regression
//! bounds) and `tests/smoke.rs` fails when the two lists differ.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; 0 for per-layer
    /// metrics, which are read, not gated.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        bound: 0.0,
    }
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def { name, unit, bound }
}

pub const WORKLOADS: [&str; 5] = [
    "kv_write_open",
    "kv_read_open",
    "kv_write_sat",
    "rpc_pipelined",
    "hepnos_traced",
];

/// Measured seconds per run; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Def; 6] = [
    gated("setup_s", "s", 0.25),
    gated("ops_per_s", "1/s", 0.07),
    gated("p50_ms", "ms", 0.10),
    gated("tail_ms", "ms", 0.25),
    gated("payload_mb_per_s", "MiB/s", 0.07),
    gated("peak_rss_mb", "MiB", 0.15),
];

/// Single-layer numbers from the traced run; a metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [Def; 59] = [
    def("load.gen_lag_p50_ms", "ms"),
    def("load.gen_lag_p99_ms", "ms"),
    def("load.achieved_over_offered", "ratio"),
    def("load.put_p50_ms", "ms"),
    def("load.get_p50_ms", "ms"),
    def("load.scan_p50_ms", "ms"),
    def("services.put_args_codec_ns", "ns"),
    def("services.list_resp_codec_ns", "ns"),
    def("services.kv_map_local_us", "us"),
    def("services.kv_disk_tcp_us", "us"),
    def("mercury.wire_codec_ns_1k", "ns"),
    def("mercury.wire_codec_ns_64k", "ns"),
    def("margo.echo_local_us", "us"),
    def("margo.echo_local_d64_per_s", "1/s"),
    def("margo.handler_queue_wait_us", "us"),
    def("margo.pool_depth_hwm", "count"),
    def("margo.shed_total", "count"),
    def("tasking.spawn_to_run_us", "us"),
    def("tasking.ults_per_s", "1/s"),
    def("fabric.msgs_per_op", "ratio"),
    def("fabric.rdma_bytes_per_op", "B"),
    def("net.echo_tcp_minus_local_us", "us"),
    def("net.frames_per_op", "ratio"),
    def("net.wire_bytes_per_payload_byte", "ratio"),
    def("net.frames_per_flush", "ratio"),
    def("net.reactor_wakeups_per_op", "ratio"),
    def("net.reactor_busy_share", "ratio"),
    def("net.reactor_loop_max_ms", "ms"),
    def("net.send_failures", "count"),
    def("store.put_us", "us"),
    def("store.get_memtable_us", "us"),
    def("store.get_segment_us", "us"),
    def("store.scan16_us", "us"),
    def("store.fsyncs_per_put", "ratio"),
    def("store.mean_group_size", "ratio"),
    def("store.wal_bytes_per_user_byte", "ratio"),
    def("store.memtable_flushes", "count"),
    def("store.compactions", "count"),
    def("store.compaction_ms", "ms"),
    def("store.disk_bytes_per_live_byte", "ratio"),
    def("store.recovery_ms", "ms"),
    def("core.overhead_pct", "%"),
    def("core.trace_events_per_op", "ratio"),
    def("core.profiler_record_ns", "ns"),
    def("core.trace_push_ns", "ns"),
    def("core.flight_bytes_per_trace_event", "B"),
    def("core.unaccounted_share", "ratio"),
    def("obs.events_ingested_per_s", "1/s"),
    def("obs.spans_completed_per_s", "1/s"),
    def("obs.retained_share", "ratio"),
    def("obs.loss_total", "count"),
    def("analyze.run_events_per_s", "1/s"),
    def("analyze.load_events_per_s", "1/s"),
    def("analyze.graph_events_per_s", "1/s"),
    def("ledger.put_residual_pct", "%"),
    def("ledger.trace_overhead_pct", "%"),
    def("ledger.plain_ops_per_s", "1/s"),
    def("ledger.traced_ops_per_s", "1/s"),
    def("ledger.spans_recorded", "count"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
}
