//! The probe ladder: timed calls into one layer's public functions, fed
//! with the workload's own generated inputs. Each rung isolates the cost
//! one layer adds below an end-to-end number, so a change to that layer
//! has a number of its own that should move first.
//!
//! Microsecond-scale rungs keep every sample and report the median;
//! nanosecond-scale codec rungs report the mean of a tight loop, where a
//! clock read per call would cost more than the call.

use crate::deploy::{EchoPair, Kv2, HANDLER_STREAMS};
use crate::run::{mean_ns, Ctx, Report};
use crate::stats::{quantile, sorted};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symbi_core::{Callpath, EventSamples, Interval, Side, Stage, TraceEvent, TraceEventKind};
use symbi_fabric::{Fabric, NetworkModel};
use symbi_margo::{MargoConfig, MargoInstance, RpcOptions};
use symbi_mercury::Wire;
use symbi_services::sdskv::{KvPairs, PutArgs, SdskvClient, SdskvProvider, SdskvSpec};
use symbi_store::{LogStore, StoreConfig};
use symbi_tasking::{ExecutionStream, Pool};

type Inputs = [(Vec<u8>, Vec<u8>)];

/// Pause between two blocking RPC probes. An open-loop arrival finds the
/// client idle — its progress loop parked in a timed wait — and pays for
/// waking it; back-to-back calls can instead lock into a rhythm that never
/// lets it park (a depth-1 local echo then reads 19 us instead of 280).
/// The pause makes every probe call the arrival the open loops see.
const IDLE_GAP: Duration = Duration::from_micros(300);

/// Time `n` calls of `f` one by one, each inside a span named `name`,
/// with `gap` of idle time before each; returns the median in
/// microseconds.
fn median_us(
    ctx: &Ctx,
    name: &'static str,
    n: usize,
    gap: Duration,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut log = ctx.spans.thread(100);
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
        let start = ctx.spans.now_ns();
        f(i);
        let end = ctx.spans.now_ns();
        log.record(name, start, end, 0, i as u64);
        samples.push(end - start);
    }
    quantile(&sorted(samples), 0.5).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// A key no workload writes, so probes never disturb a read-back check.
fn probe_key(key: &[u8]) -> Vec<u8> {
    [b"probe/", key].concat()
}

/// `services.*_codec_ns`, `mercury.wire_codec_ns_*`: `Wire` round trips.
pub fn codecs(ctx: &Ctx, inputs: &Inputs, r: &mut Report) {
    let mut log = ctx.spans.thread(100);
    let n = inputs.len().max(1) * 20;
    let puts: Vec<PutArgs> = inputs
        .iter()
        .map(|(key, value)| PutArgs {
            db: 0,
            key: key.clone(),
            value: value.clone(),
        })
        .collect();
    let put_ns = log.time("services.put_args_codec", 0, || {
        mean_ns(n, |i| {
            let back = PutArgs::from_bytes(black_box(&puts[i % puts.len()]).to_bytes());
            black_box(back).expect("PutArgs round trip");
        })
    });
    r.set("services.put_args_codec_ns", put_ns);

    let pairs: KvPairs = inputs.iter().take(16).cloned().collect();
    let list_ns = log.time("services.list_resp_codec", 0, || {
        mean_ns(n, |_| {
            let back = KvPairs::from_bytes(black_box(&pairs).to_bytes());
            black_box(back).expect("KvPairs round trip");
        })
    });
    r.set("services.list_resp_codec_ns", list_ns);
    wire_codecs(ctx, n, r);
}

/// `mercury.wire_codec_ns_1k` / `_64k`: `Vec<u8>` `to_bytes` + `from_bytes`.
pub fn wire_codecs(ctx: &Ctx, n: usize, r: &mut Report) {
    let mut log = ctx.spans.thread(100);
    for (name, span, len, calls) in [
        ("mercury.wire_codec_ns_1k", "mercury.wire_codec_1k", 1024, n),
        (
            "mercury.wire_codec_ns_64k",
            "mercury.wire_codec_64k",
            64 * 1024,
            n / 8,
        ),
    ] {
        let body = vec![0xC3u8; len];
        let ns = log.time(span, 0, || {
            mean_ns(calls.max(1), |_| {
                let back = Vec::<u8>::from_bytes(black_box(&body).to_bytes());
                black_box(back).expect("Vec<u8> round trip");
            })
        });
        r.set(name, ns);
    }
}

/// `services.kv_disk_tcp_us`: depth-1 `SdskvClient::put` on the live
/// *kv2* deployment — the whole stack under one blocking put.
pub fn kv_disk_tcp(ctx: &Ctx, kv2: &Kv2, inputs: &Inputs, r: &mut Report) {
    let client = kv2.sdskv(0);
    let us = median_us(ctx, "services.put_disk_tcp", inputs.len(), IDLE_GAP, |i| {
        let (key, value) = &inputs[i];
        client
            .put(0, probe_key(key), value.clone())
            .expect("probe put over tcp");
    });
    r.set("services.kv_disk_tcp_us", us);
}

/// `services.kv_map_local_us`: the same put with the socket and the store
/// taken away (in-process fabric, `map` backend) — what margo, mercury
/// and the SDSKV handler cost on their own.
pub fn kv_map_local(ctx: &Ctx, inputs: &Inputs, r: &mut Report) {
    let fabric = Fabric::new(NetworkModel::instant());
    let server = MargoInstance::new(
        fabric.clone(),
        MargoConfig::server("ledger-probe-kv", HANDLER_STREAMS).with_stage(Stage::Disabled),
    );
    let _provider = SdskvProvider::attach(&server, SdskvSpec::default());
    let margo = MargoInstance::new(
        fabric,
        MargoConfig::client("ledger-probe-kv-client").with_stage(Stage::Disabled),
    );
    let client = SdskvClient::new(margo.clone(), server.addr());
    client
        .put(0, b"warm".to_vec(), Vec::new())
        .expect("warm-up put");
    let us = median_us(ctx, "services.put_map_local", inputs.len(), IDLE_GAP, |i| {
        let (key, value) = &inputs[i];
        client
            .put(0, key.clone(), value.clone())
            .expect("probe put on the local fabric");
    });
    r.set("services.kv_map_local_us", us);
    margo.finalize();
    server.finalize();
}

/// `margo.echo_local_us`, `margo.echo_local_d64_per_s` and
/// `net.echo_tcp_minus_local_us`: the per-RPC floor, and what a loopback
/// socket adds to it.
pub fn echo_ladder(ctx: &Ctx, n: usize, r: &mut Report) {
    let body = vec![0xA5u8; 256];
    let local = EchoPair::launch(false, 64);
    let local_us = median_us(ctx, "margo.echo_local", n, IDLE_GAP, |_| {
        black_box(local.echo(&body).expect("local echo"));
    });
    r.set("margo.echo_local_us", local_us);

    let mut log = ctx.spans.thread(100);
    let inputs: Vec<Vec<u8>> = vec![vec![0xA5u8; 1024]; n * 10];
    let start = Instant::now();
    let results = log.time("margo.echo_local_d64", 0, || {
        local
            .client
            .forward_many(
                local.addr,
                "echo",
                &inputs,
                RpcOptions::new().with_pipeline(64),
            )
            .wait()
            .expect("pipelined local echo")
    });
    r.set(
        "margo.echo_local_d64_per_s",
        results.len() as f64 / start.elapsed().as_secs_f64(),
    );
    local.finalize();

    let tcp = EchoPair::launch(true, 64);
    let tcp_us = median_us(ctx, "net.echo_tcp", n, IDLE_GAP, |_| {
        black_box(tcp.echo(&body).expect("tcp echo"));
    });
    r.set("net.echo_tcp_minus_local_us", tcp_us - local_us);
    tcp.finalize();
}

/// `tasking.spawn_to_run_us`, `tasking.ults_per_s`: a pool and one
/// execution stream, nothing else.
pub fn tasking(ctx: &Ctx, n: usize, r: &mut Report) {
    let pool = Pool::new("ledger-probe-pool");
    let stream = ExecutionStream::spawn("ledger-probe-es", std::slice::from_ref(&pool));
    let mut log = ctx.spans.thread(100);

    // From `spawn` to the ULT's first instruction, on an idle stream.
    let epoch = ctx.spans.epoch();
    let ran_at = Arc::new(AtomicU64::new(0));
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let slot = ran_at.clone();
        let spawned_ns = ctx.spans.now_ns();
        pool.spawn(move || {
            // Relaxed: `join` below orders the store before the load.
            slot.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
        .join();
        let ran_ns = ran_at.load(Ordering::Relaxed);
        log.record("tasking.spawn_to_run", spawned_ns, ran_ns, 0, i as u64);
        samples.push(ran_ns.saturating_sub(spawned_ns));
    }
    r.set(
        "tasking.spawn_to_run_us",
        quantile(&sorted(samples), 0.5).map_or(0.0, |ns| ns as f64 / 1e3),
    );

    let burst = n * 50;
    let start = Instant::now();
    log.time("tasking.spawn_burst", 0, || {
        let joins: Vec<_> = (0..burst)
            .map(|i| {
                pool.spawn(move || {
                    black_box(i);
                })
            })
            .collect();
        for j in joins {
            j.join();
        }
    });
    r.set(
        "tasking.ults_per_s",
        burst as f64 / start.elapsed().as_secs_f64(),
    );
    stream.join();
}

/// `store.put_us`, `store.get_memtable_us`, `store.get_segment_us`,
/// `store.scan16_us`: direct `LogStore` calls from one writer against a
/// database of the workload's size.
pub fn store(ctx: &Ctx, keys_per_db: u64, inputs: &Inputs, r: &mut Report) {
    let dir = ctx.dir.join("probe-store");
    let store = LogStore::open(StoreConfig::new(&dir)).expect("open probe store");
    let resident: Vec<(Vec<u8>, Vec<u8>)> = (0..keys_per_db)
        .map(|i| {
            (
                crate::deploy::key_of(i),
                inputs[i as usize % inputs.len()].1.clone(),
            )
        })
        .collect();
    for chunk in resident.chunks(1024) {
        store.put_batch(chunk).expect("probe preload");
    }
    // Freeze what was loaded, so segment reads and memtable reads are
    // told apart by construction rather than by the maintenance timer.
    store.checkpoint().expect("probe checkpoint");

    let n = inputs.len();
    r.set(
        "store.put_us",
        median_us(ctx, "store.put", n, Duration::ZERO, |i| {
            store
                .put(&probe_key(&inputs[i].0), &inputs[i].1)
                .expect("probe store put");
        }),
    );
    r.set(
        "store.get_memtable_us",
        median_us(ctx, "store.get_memtable", n, Duration::ZERO, |i| {
            black_box(store.get(&probe_key(&inputs[i].0))).expect("memtable hit");
        }),
    );
    r.set(
        "store.get_segment_us",
        median_us(ctx, "store.get_segment", n, Duration::ZERO, |i| {
            let key = &resident[(i * 7919) % resident.len()].0;
            black_box(store.get(key)).expect("segment hit");
        }),
    );
    // A scan costs milliseconds on a full database: a tenth of the
    // samples keeps the ladder inside its time budget.
    r.set(
        "store.scan16_us",
        median_us(ctx, "store.scan16", (n / 10).max(10), Duration::ZERO, |i| {
            let key = &resident[(i * 7919) % resident.len()].0;
            black_box(store.list_keyvals(key, 16));
        }),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `core.profiler_record_ns`, `core.trace_push_ns`: what one profile row
/// update and one trace event cost the RPC that triggers them.
pub fn core(ctx: &Ctx, n: usize, r: &mut Report) {
    let sym = symbi_core::Symbiosys::new("ledger-probe-core", Stage::Full);
    let peer = symbi_core::register_entity("ledger-probe-peer");
    let callpath = Callpath::root("ledger_probe_rpc");
    let mut log = ctx.spans.thread(100);
    let calls = n * 50;
    let record_ns = log.time("core.profiler_record", 0, || {
        mean_ns(calls, |i| {
            sym.profiler().record(
                sym.entity(),
                peer,
                Side::Origin,
                callpath,
                black_box(&[(Interval::OriginExecution, i as u64)]),
            );
        })
    });
    r.set("core.profiler_record_ns", record_ns);
    let push_ns = log.time("core.trace_push", 0, || {
        mean_ns(calls, |i| {
            sym.tracer().record(black_box(TraceEvent {
                request_id: i as u64,
                order: 0,
                span: i as u64 + 1,
                parent_span: 0,
                hop: 1,
                lamport: i as u64,
                wall_ns: symbi_core::now_ns(),
                kind: TraceEventKind::OriginForward,
                entity: sym.entity(),
                callpath,
                samples: EventSamples::default(),
            }));
        })
    });
    r.set("core.trace_push_ns", push_ns);
}
