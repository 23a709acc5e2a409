//! `hepnos_traced`: the paper's data-loader on the in-process fabric with
//! everything SYMBIOSYS offers switched on — `Stage::Full`, a 10 ms
//! sampler, flight rings that keep every trace event, online analysis, and
//! an obs push to an in-process collector — in rounds on fresh
//! deployments, each followed by `symbi_analyze::run` over its rings. The
//! only workload where `core`, `obs` and `analyze` do most of the work and
//! `net` and `store` none.

use crate::counters::Counters;
use crate::probes;
use crate::run::{dir_bytes, peak_rss_mb, Ctx, Report, MIB};
use crate::stats::{median, quantile_ms, sorted, SeqHash};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use symbi_core::analysis::{build_span_graph, summarize_profiles};
use symbi_core::telemetry::recorder::{FlightRecorder, FlightRecorderConfig};
use symbi_core::{Callpath, Stage, TraceEvent, TraceEventKind};
use symbi_fabric::{Fabric, NetworkModel};
use symbi_obs::{CollectorConfig, CollectorService, CollectorStats};
use symbi_services::hepnos::{run_data_loader, HepnosConfig, HepnosDeployment};
use symbi_services::kv::StorageCost;
use symbi_store::StatsSnapshot;

/// Events per round, over both clients.
pub const ROUND_EVENTS: usize = 100_000;
const CLIENTS: usize = 2;
const VALUE_BYTES: usize = 64;

/// 2 clients, 2 servers × 4 ESs × 4 map databases, batch 32, 64 B values,
/// no simulated cost: every microsecond spent is the stack's own.
pub fn config(stage: Stage, seed: u64) -> HepnosConfig {
    let mut cfg = HepnosConfig::c4().with_fault_seed(seed);
    cfg.label = "ledger".into();
    cfg.total_clients = CLIENTS;
    cfg.total_servers = 2;
    cfg.threads = 4;
    cfg.databases = 4;
    cfg.batch_size = 32;
    cfg.value_size = VALUE_BYTES;
    cfg.events_per_client = ROUND_EVENTS / CLIENTS;
    cfg.cost = StorageCost::free();
    cfg.handler_cost = Duration::ZERO;
    cfg.handler_cost_per_key = Duration::ZERO;
    cfg.stage = stage;
    cfg
}

/// The loader derives its events from (client, event number) alone, so
/// the only input the seed reaches is the retry-jitter seed; the
/// fingerprint covers it and the shape the loader runs at.
pub fn sequence_hash(seed: u64) -> u64 {
    let cfg = config(Stage::Full, seed);
    let mut h = SeqHash::default();
    for v in [
        cfg.fault_seed,
        cfg.total_clients as u64,
        cfg.events_per_client as u64,
        cfg.batch_size as u64,
        cfg.value_size as u64,
    ] {
        h.push(v);
    }
    h.value()
}

struct Round {
    start_ns: u64,
    events: u64,
    loader_s: f64,
    analysis_s: f64,
    ingested: u64,
    /// Origin latency of every RPC of the round, ascending.
    rpc_lat_ns: Vec<u64>,
    trace_events: u64,
    ring_bytes: u64,
    collector: CollectorStats,
    unaccounted_share: f64,
}

/// Origin latency (t1→t14) of every RPC in the clients' trace events.
fn rpc_latencies(events: &[TraceEvent]) -> Vec<u64> {
    let mut t1: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            TraceEventKind::OriginForward => {
                t1.insert(e.span, e.wall_ns);
            }
            TraceEventKind::OriginComplete => {
                if let Some(start) = t1.remove(&e.span) {
                    out.push(e.wall_ns.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    out
}

fn ingested_of(analysis: &str) -> u64 {
    analysis
        .strip_prefix("ingested ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// One round: fresh fabric, collector and deployment; load; stop; analyze.
fn round(ctx: &Ctx, index: usize, r: &mut Report, measure_load: bool) -> Round {
    let mut log = ctx.spans.thread(0);
    let dir = ctx.dir.join(format!("round-{index}"));
    let start_ns = ctx.spans.now_ns();
    let fabric = Fabric::new(NetworkModel::instant());
    // A collector that told servers to shed would make operations fail;
    // this workload measures the cost of observing, not of reacting.
    let mut collector = CollectorService::start(
        &fabric,
        CollectorConfig {
            advise_shed: false,
            ..CollectorConfig::default()
        },
    );
    let mut cfg = config(Stage::Full, ctx.seed);
    cfg.telemetry.sample_period = Some(Duration::from_millis(10));
    // Sized so nothing rotates out: analysis must see every event.
    cfg.telemetry.flight_recorder = Some(
        FlightRecorderConfig::new(&dir)
            .with_max_file_bytes(256 << 20)
            .with_max_files(4),
    );
    cfg.telemetry.record_traces = true;
    cfg.telemetry.online = true;
    cfg.telemetry.obs_collector = Some(format!("fab://{}", collector.addr().0));

    let deployment = log.time("services.hepnos_launch", index as u64, || {
        HepnosDeployment::launch(&fabric, &cfg)
    });
    let margos = deployment.margo_instances();
    let before = Counters::read(&[&fabric], &margos, StatsSnapshot::default());
    let loaded = log.time("services.run_data_loader", index as u64, || {
        run_data_loader(&fabric, &deployment, &cfg)
    });
    let after = Counters::read(&[&fabric], &margos, StatsSnapshot::default());
    drop(margos);
    if ctx.traced {
        before.report_delta(
            &after,
            loaded.events,
            loaded.events * VALUE_BYTES as u64,
            0,
            loaded.elapsed_seconds,
            r,
        );
    }
    r.check(loaded.is_complete(), || {
        format!(
            "round {index}: loader incomplete ({} lost, {} shed, {} skipped)",
            loaded.lost_events, loaded.shed_events, loaded.skipped_events
        )
    });
    let stored = deployment.total_events_stored();
    r.check(
        stored == ROUND_EVENTS && loaded.events == ROUND_EVENTS as u64,
        || {
            format!(
                "round {index}: issued {ROUND_EVENTS} events, {} acknowledged, {stored} stored",
                loaded.events
            )
        },
    );
    let mut profiles = loaded.client_profiles;
    profiles.extend(deployment.server_profiles());
    // Stopping the servers drains their tracers into the flight rings.
    log.time("margo.finalize", index as u64, || deployment.finalize());
    let collector_stats = collector.stats();
    collector.shutdown();

    // The clients keep their half of every span in memory; put it in a
    // ring beside the servers' so the analyzer sees whole requests.
    log.time("core.append_client_traces", index as u64, || {
        let ring = FlightRecorder::open(FlightRecorderConfig::new(dir.join("clients")))
            .expect("open client ring");
        ring.append_events(&loaded.client_traces)
            .expect("persist client traces");
        ring.flush().expect("flush client ring");
    });
    let ring_bytes = dir_bytes(&dir);

    let t0 = Instant::now();
    let analysis = log.time("analyze.run", index as u64, || {
        symbi_analyze::run(&symbi_analyze::Options {
            dirs: vec![dir.clone()],
            top: Some(8),
            ..Default::default()
        })
    });
    let analysis_s = t0.elapsed().as_secs_f64();
    let ingested = match &analysis {
        Ok(text) => ingested_of(text),
        Err(e) => {
            r.errors
                .push(format!("round {index}: analysis failed: {e}"));
            0
        }
    };
    // Each RPC leaves t1 and t14 at its origin, t5 and t8 at its target.
    let recorded = 2 * loaded.client_traces.len() as u64;
    r.check(ingested == recorded, || {
        format!("round {index}: analysis ingested {ingested} of {recorded} recorded trace events")
    });
    if measure_load {
        measure_analysis(ctx, &dir, ingested, analysis_s, r);
    }
    let unaccounted_share = summarize_profiles(&profiles)
        .find(Callpath::root("sdskv_put_packed"))
        .map_or(0.0, |agg| {
            agg.unaccounted_ns() as f64 / agg.cumulative_latency_ns().max(1) as f64
        });
    let _ = std::fs::remove_dir_all(&dir);
    Round {
        start_ns,
        events: loaded.events,
        loader_s: loaded.elapsed_seconds,
        analysis_s,
        ingested,
        rpc_lat_ns: sorted(rpc_latencies(&loaded.client_traces)),
        trace_events: recorded,
        ring_bytes,
        collector: collector_stats,
        unaccounted_share,
    }
}

/// `analyze.load_events_per_s` / `analyze.graph_events_per_s`, and the
/// connectivity check, on one round's rings.
fn measure_analysis(ctx: &Ctx, dir: &Path, ingested: u64, run_s: f64, r: &mut Report) {
    let mut log = ctx.spans.thread(0);
    let t0 = Instant::now();
    let loaded = log.time("analyze.load_events", 0, || {
        symbi_analyze::load_events(&[dir.to_path_buf()])
    });
    let load_s = t0.elapsed().as_secs_f64();
    let Ok((events, _rings)) = loaded else {
        r.errors
            .push("load_events failed on a round's rings".into());
        return;
    };
    r.set("analyze.load_events_per_s", events.len() as f64 / load_s);
    r.set(
        "analyze.graph_events_per_s",
        ingested as f64 / (run_s - load_s).max(1e-9),
    );
    let connected = build_span_graph(&events).connected_fraction();
    r.check(connected >= 0.99, || {
        format!("span graph only {connected:.4} connected (< 0.99)")
    });
}

/// Events/s of one round with the measurement stack off: the twin the
/// paper's §VI overhead is taken against.
fn untraced_round(seed: u64) -> f64 {
    let fabric = Fabric::new(NetworkModel::instant());
    let cfg = config(Stage::Disabled, seed);
    let deployment = HepnosDeployment::launch(&fabric, &cfg);
    let loaded = run_data_loader(&fabric, &deployment, &cfg);
    deployment.finalize();
    loaded.throughput()
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    r.sequence_hash = sequence_hash(ctx.seed);
    // One untimed round (deploy, load, stop, analyze) is the set-up: it
    // faults in the allocator arenas and registers every callpath name.
    round(ctx, 0, r, false);
    r.setup_done(ctx);
    // One whole round, analysis included, is the memory this workload
    // needs. Later rounds add ~9 MiB each of allocator drift (none with
    // MALLOC_ARENA_MAX=1), so the high-water mark at the end of the window
    // counted the rounds the window fitted: it rose when the code got faster.
    let one_round_rss_mb = peak_rss_mb();
    if ctx.setup_only {
        return;
    }
    let spans = &ctx.spans;
    let from_ns = spans.now_ns();
    let traced_from_ns = from_ns.saturating_add(ctx.traced_from_ns());
    spans.enable_from(traced_from_ns);

    // Rounds until loader time plus analysis time fills the window.
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent_s = 0.0;
    while spent_s < ctx.seconds {
        let first = rounds.is_empty();
        let done = round(ctx, rounds.len() + 1, r, first);
        spent_s += done.loader_s + done.analysis_s;
        rounds.push(done);
    }

    let main: Vec<&Round> = rounds
        .iter()
        .filter(|x| !ctx.traced || x.start_ns >= traced_from_ns)
        .collect();
    let main = if main.is_empty() {
        rounds.iter().collect()
    } else {
        main
    };
    let rate = |set: &[&Round]| {
        median(
            &set.iter()
                .map(|x| x.events as f64 / x.loader_s)
                .collect::<Vec<_>>(),
        )
    };
    let ops_per_s = rate(&main);
    // A round is this workload's sub-window: its rate and its latency
    // quantiles are taken per round, and the medians over rounds reported.
    let quantile_over_rounds = |q: f64| {
        median(
            &main
                .iter()
                .map(|x| quantile_ms(&x.rpc_lat_ns, q))
                .collect::<Vec<_>>(),
        )
    };
    r.set("ops_per_s", ops_per_s);
    r.set("p50_ms", quantile_over_rounds(0.50));
    r.set("tail_ms", quantile_over_rounds(0.99));
    r.set("payload_mb_per_s", ops_per_s * VALUE_BYTES as f64 / MIB);
    r.attempted = (main.len() * ROUND_EVENTS) as u64;
    r.failed = main
        .iter()
        .map(|x| ROUND_EVENTS as u64 - x.events.min(ROUND_EVENTS as u64))
        .sum();
    let ingested: u64 = rounds.iter().map(|x| x.ingested).sum();
    let analysis_s: f64 = rounds.iter().map(|x| x.analysis_s).sum();
    r.set("analyze.run_events_per_s", ingested as f64 / analysis_s);

    if ctx.traced {
        let plain: Vec<&Round> = rounds
            .iter()
            .filter(|x| x.start_ns < traced_from_ns)
            .collect();
        r.set_trace_overhead(rate(&plain), ops_per_s);
        let events: u64 = rounds.iter().map(|x| x.events).sum();
        let loader_s: f64 = rounds.iter().map(|x| x.loader_s).sum();
        let trace_events: u64 = rounds.iter().map(|x| x.trace_events).sum();
        r.set(
            "core.trace_events_per_op",
            trace_events as f64 / events.max(1) as f64,
        );
        r.set(
            "core.flight_bytes_per_trace_event",
            rounds.iter().map(|x| x.ring_bytes).sum::<u64>() as f64 / trace_events.max(1) as f64,
        );
        r.set(
            "core.unaccounted_share",
            median(
                &rounds
                    .iter()
                    .map(|x| x.unaccounted_share)
                    .collect::<Vec<_>>(),
            ),
        );
        let sum =
            |f: fn(&CollectorStats) -> u64| rounds.iter().map(|x| f(&x.collector)).sum::<u64>();
        // The loader's clients run no monitor, so the collector sees only
        // the servers' half of every span: it ingests events, completes
        // no span, and what it misses of that half is loss.
        r.set(
            "obs.events_ingested_per_s",
            sum(|c| c.events_ingested) as f64 / loader_s,
        );
        r.set(
            "obs.spans_completed_per_s",
            sum(|c| c.spans_completed) as f64 / loader_s,
        );
        let decided = sum(|c| c.tail.trees_retained) + sum(|c| c.tail.trees_discarded);
        r.set(
            "obs.retained_share",
            sum(|c| c.tail.trees_retained) as f64 / decided.max(1) as f64,
        );
        r.set(
            "obs.loss_total",
            ((trace_events / 2).saturating_sub(sum(|c| c.events_ingested))
                + sum(|c| c.seq_gaps)
                + sum(|c| c.decode_failures)) as f64,
        );
        let untraced = median(&(0..3).map(|_| untraced_round(ctx.seed)).collect::<Vec<_>>());
        r.set("core.overhead_pct", 100.0 * (1.0 - ops_per_s / untraced));
        let n = ctx.probe_samples();
        probes::core(ctx, n, r);
        probes::tasking(ctx, n, r);
    }
    r.set("peak_rss_mb", one_round_rss_mb);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_analyzer_headline() {
        assert_eq!(
            ingested_of("ingested 8192 trace events from 3 ring dir(s): 1 requests"),
            8192
        );
        assert_eq!(ingested_of("nothing"), 0);
    }

    #[test]
    fn fingerprint_follows_the_seed() {
        assert_eq!(sequence_hash(42), sequence_hash(42));
        assert_ne!(sequence_hash(42), sequence_hash(43));
    }
}
