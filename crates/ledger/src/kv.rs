//! The three KV workloads on the *kv2* deployment: two open loops
//! (`kv_write_open`, `kv_read_open`) and the saturating closed loop
//! (`kv_write_sat`).

use crate::batch::{stretch, BatchRec};
use crate::deploy::{key_of, Kv2, KV_DATABASES, KV_SERVERS};
use crate::probes;
use crate::run::{peak_rss_mb, seeded_bytes, Ctx, Report, MIB, SUBWINDOWS};
use crate::stats::{
    quantile_ms, sorted, subwindow_quantile_ms, subwindow_rate, SeqHash, FAILED_NS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use symbi_load::rng::{mix, SplitMix64};
use symbi_load::{arrival_offsets_ns, ScenarioSpec, WorkloadTarget};
use symbi_margo::RpcOptions;
use symbi_mercury::{RpcStatus, Wire};
use symbi_services::sdskv::PutArgs;
use symbi_store::{LogStore, StoreConfig};

/// Generator threads of every loop (`nproc` is 2 on the reference host).
pub const GENERATORS: usize = 2;
pub const VALUE_BYTES: usize = 256;
pub const SCAN_SPAN: usize = 16;
/// Untimed operations before every loop, issued back to back: they let
/// caches, pools and sockets settle, and they are part of `setup_s`, so
/// set-up time scales with the system's own speed.
const WARMUP_OPS: usize = 512;
/// How close to its intended time a generator stops sleeping and spins:
/// `sleep` alone overshoots by ~75 us, a quarter of a fast get.
const SPIN_NS: u64 = 150_000;
/// Keys read back after a run.
const READBACK_KEYS: u64 = 256;

const OP_SALT: u64 = 0x6F70;
const KEY_SALT: u64 = 0x006B_6579;
const VALUE_SALT: u64 = 0x7661_6C75;
const CHECK_SALT: u64 = 0x0063_686B;
/// Value tag of a preloaded key (op indices stay far below it).
const PRELOAD_TAG: u64 = 1 << 48;

/// The bytes stored by the write tagged `tag` (an op index, or
/// `PRELOAD_TAG | key`): what a later read of that key must return.
pub fn value_of(seed: u64, tag: u64) -> Vec<u8> {
    seeded_bytes(mix(seed ^ VALUE_SALT, tag), VALUE_BYTES)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Put,
    Get,
    Scan,
}

pub struct OpenSpec {
    pub rate_hz: f64,
    /// put / get / scan weights.
    pub mix: (u32, u32, u32),
    pub keys: u64,
    /// The latency limit: a run whose `tail_ms` exceeds it is serving the
    /// offered rate too slowly to count, and fails its output check.
    pub tail_limit_ms: f64,
}

/// ~35 % of what two blocking clients can push through *kv2*: nothing
/// queues, so WAL append + fsync and the per-RPC floor set the latency.
pub const KV_WRITE_OPEN: OpenSpec = OpenSpec {
    rate_hz: 1000.0,
    mix: (90, 10, 0),
    keys: 16 * 1024,
    tail_limit_ms: 5.0,
};

/// Same layers, used the other way: segment reads and `list_keyvals` do
/// the work, the WAL almost none; the few puts show what a read-side gain
/// costs writers.
pub const KV_READ_OPEN: OpenSpec = OpenSpec {
    rate_hz: 800.0,
    mix: (5, 90, 5),
    keys: 64 * 1024,
    tail_limit_ms: 40.0,
};

/// The open loop's inputs: intended send offsets and what to send.
pub struct Schedule {
    pub offsets_ns: Vec<u64>,
    pub ops: Vec<(Kind, u64)>,
}

impl Schedule {
    pub fn build(spec: &OpenSpec, seed: u64, seconds: f64) -> Schedule {
        let scenario = ScenarioSpec::named("ledger-open")
            .with_rate_hz(spec.rate_hz)
            .with_duration(Duration::from_secs_f64(seconds))
            .with_seed(seed);
        let offsets_ns = arrival_offsets_ns(&scenario);
        // Kinds are dealt in blocks of one mix (90 puts and 10 gets in every
        // 100 ops), shuffled per block by the seed: every seed then offers
        // exactly the stated mix, and a run's numbers do not move with how
        // many 4 KiB scans its seed happened to draw.
        let block: Vec<Kind> = [
            (Kind::Put, spec.mix.0),
            (Kind::Get, spec.mix.1),
            (Kind::Scan, spec.mix.2),
        ]
        .iter()
        .flat_map(|(kind, weight)| std::iter::repeat_n(*kind, *weight as usize))
        .collect();
        let mut ops = Vec::with_capacity(offsets_ns.len());
        for b in 0..offsets_ns.len().div_ceil(block.len()) as u64 {
            let mut kinds = block.clone();
            let mut rng = SplitMix64::new(mix(seed ^ OP_SALT, b));
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            ops.extend(kinds);
        }
        let ops = ops
            .into_iter()
            .take(offsets_ns.len())
            .enumerate()
            .map(|(i, kind)| (kind, mix(seed ^ KEY_SALT, i as u64) % spec.keys))
            .collect();
        Schedule { offsets_ns, ops }
    }

    pub fn sequence_hash(&self) -> u64 {
        let mut h = SeqHash::default();
        for (t, (kind, key)) in self.offsets_ns.iter().zip(&self.ops) {
            h.push(*t);
            h.push(*kind as u64);
            h.push(*key);
        }
        h.value()
    }
}

/// One executed arrival, times on the span clock.
struct OpRec {
    i: usize,
    intended_ns: u64,
    send_ns: u64,
    done_ns: u64,
    ok: bool,
    /// Payload bytes the op moved (value put, value read, pairs listed).
    bytes: u64,
}

/// Replay the first `count` arrivals of `schedule` against `target` from
/// [`GENERATORS`] blocking threads. With `gen0_ns` the replay is paced:
/// each arrival leaves at its intended time and its latency counts from
/// that time, so the wait a stall imposes on later arrivals is charged,
/// not omitted. Without, arrivals leave back to back (the warm-up).
fn replay(
    ctx: &Ctx,
    schedule: &Schedule,
    target: &dyn WorkloadTarget,
    count: usize,
    gen0_ns: Option<u64>,
) -> Vec<OpRec> {
    let next = AtomicUsize::new(0);
    let spans = &ctx.spans;
    let count = count.min(schedule.ops.len());
    let mut all = Vec::with_capacity(count);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|g| {
                let next = &next;
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut log = spans.thread(g as u32);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let intended_ns = match gen0_ns {
                            Some(gen0_ns) => {
                                let at = gen0_ns + schedule.offsets_ns[i];
                                let now = spans.now_ns();
                                if at > now + SPIN_NS {
                                    std::thread::sleep(Duration::from_nanos(at - now - SPIN_NS));
                                }
                                while spans.now_ns() < at {
                                    std::hint::spin_loop();
                                }
                                at
                            }
                            None => spans.now_ns(),
                        };
                        let (kind, key_idx) = schedule.ops[i];
                        let key = key_of(key_idx);
                        let send_ns = spans.now_ns();
                        let (name, result) = match kind {
                            Kind::Put => (
                                "services.put",
                                target
                                    .put(&key, &value_of(ctx.seed, i as u64))
                                    .map(|()| Some(VALUE_BYTES as u64)),
                            ),
                            // Every key is preloaded: a miss or a short
                            // value is a wrong answer, not a valid one.
                            Kind::Get => (
                                "services.get",
                                target.get(&key).map(|v| {
                                    v.filter(|v| v.len() == VALUE_BYTES).map(|v| v.len() as u64)
                                }),
                            ),
                            // The anchor exists in the database it hashes
                            // to, so a scan lists at least that pair.
                            Kind::Scan => (
                                "services.scan",
                                target.scan(&key, SCAN_SPAN).map(|n| {
                                    (1..=SCAN_SPAN)
                                        .contains(&n)
                                        .then_some((n * (key.len() + VALUE_BYTES)) as u64)
                                }),
                            ),
                        };
                        let done_ns = spans.now_ns();
                        let op = log.record("load.op", intended_ns, done_ns, 0, i as u64);
                        log.record(name, send_ns, done_ns, op, i as u64);
                        recs.push(OpRec {
                            i,
                            intended_ns,
                            send_ns,
                            done_ns,
                            ok: matches!(result, Ok(Some(_))),
                            bytes: result.ok().flatten().unwrap_or(0),
                        });
                    }
                    recs
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("generator thread panicked"));
        }
    });
    all
}

/// End-to-end numbers of the arrivals intended in `[from_ns, to_ns)`.
struct Part {
    ops_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    payload_mb_per_s: f64,
    attempted: u64,
    failed: u64,
    by_kind_p50_ms: [f64; 3],
    lag_p50_ms: f64,
    lag_p99_ms: f64,
}

fn part(recs: &[OpRec], ops: &[(Kind, u64)], from_ns: u64, to_ns: u64) -> Part {
    let inside: Vec<&OpRec> = recs
        .iter()
        .filter(|r| (from_ns..to_ns).contains(&r.intended_ns))
        .collect();
    let lat = |r: &OpRec| {
        if r.ok {
            r.done_ns - r.intended_ns
        } else {
            FAILED_NS
        }
    };
    let len = to_ns - from_ns;
    let all: Vec<(u64, u64)> = inside.iter().map(|r| (r.intended_ns, lat(r))).collect();
    let by_kind = [Kind::Put, Kind::Get, Kind::Scan].map(|k| {
        let v: Vec<(u64, u64)> = inside
            .iter()
            .filter(|r| ops[r.i].0 == k)
            .map(|r| (r.intended_ns, lat(r)))
            .collect();
        subwindow_quantile_ms(&v, from_ns, len, SUBWINDOWS, 0.50)
    });
    let lag = sorted(inside.iter().map(|r| r.send_ns - r.intended_ns).collect());
    let done: Vec<(u64, u64, u64)> = inside
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.done_ns, r.done_ns, 1))
        .collect();
    let bytes: Vec<(u64, u64, u64)> = inside
        .iter()
        .map(|r| (r.done_ns, r.done_ns, r.bytes))
        .collect();
    Part {
        ops_per_s: subwindow_rate(&done, from_ns, len, SUBWINDOWS),
        p50_ms: subwindow_quantile_ms(&all, from_ns, len, SUBWINDOWS, 0.50),
        tail_ms: subwindow_quantile_ms(&all, from_ns, len, SUBWINDOWS, 0.99),
        payload_mb_per_s: subwindow_rate(&bytes, from_ns, len, SUBWINDOWS) / MIB,
        attempted: inside.len() as u64,
        failed: inside.iter().filter(|r| !r.ok).count() as u64,
        by_kind_p50_ms: by_kind,
        lag_p50_ms: quantile_ms(&lag, 0.50),
        lag_p99_ms: quantile_ms(&lag, 0.99),
    }
}

/// For a seeded sample of keys, the tag of the value a read must return:
/// the last put the generator completed, or the preload. A key whose last
/// put overlapped another put to it (or failed) has no single right
/// answer and is left out.
fn expected_tags(recs: &[OpRec], ops: &[(Kind, u64)], seed: u64, keys: u64) -> Vec<(u64, u64)> {
    let mut puts: HashMap<u64, Vec<&OpRec>> = HashMap::new();
    for r in recs.iter().filter(|r| ops[r.i].0 == Kind::Put) {
        puts.entry(ops[r.i].1).or_default().push(r);
    }
    (0..READBACK_KEYS)
        .filter_map(|j| {
            let key = mix(seed ^ CHECK_SALT, j) % keys;
            match puts.get(&key) {
                None => Some((key, PRELOAD_TAG | key)),
                Some(list) => {
                    let last = list.iter().max_by_key(|r| r.done_ns)?;
                    let clear = list
                        .iter()
                        .all(|r| r.i == last.i || (r.ok && r.done_ns <= last.send_ns));
                    (last.ok && clear).then_some((key, last.i as u64))
                }
            }
        })
        .collect()
}

/// Bytes the stores hold on disk per byte of live key and value.
fn disk_bytes_per_live_byte(kv2: &Kv2, keys: u64, key_len: usize) -> f64 {
    let disk: u64 = kv2
        .servers
        .iter()
        .map(|s| crate::run::dir_bytes(&s.dir))
        .sum();
    disk as f64 / (keys * (key_len + VALUE_BYTES) as u64) as f64
}

pub fn run_open(ctx: &Ctx, spec: &OpenSpec, r: &mut Report) {
    let kv2 = Kv2::launch(&ctx.dir);
    kv2.preload(spec.keys, |idx| value_of(ctx.seed, PRELOAD_TAG | idx));
    kv2.warm();
    let target = kv2.target();
    let schedule = Schedule::build(spec, ctx.seed, ctx.seconds);
    r.sequence_hash = schedule.sequence_hash();
    let mut recs = replay(ctx, &schedule, &target, WARMUP_OPS, None);
    r.setup_done(ctx);
    if ctx.setup_only {
        drop(target);
        kv2.finalize();
        return;
    }

    let before = kv2.counters();

    let from_ns = ctx.spans.now_ns();
    let to_ns = from_ns + ctx.window_ns();
    let traced_from_ns = from_ns.saturating_add(ctx.traced_from_ns());
    ctx.spans.enable_from(traced_from_ns);
    let timed = replay(ctx, &schedule, &target, usize::MAX, Some(from_ns));
    let after = kv2.counters();

    // In a traced run the reported stretch is the traced one; the plain
    // head of the window is the reference the overhead is taken against.
    let main_from = if ctx.traced { traced_from_ns } else { from_ns };
    let main = part(&timed, &schedule.ops, main_from, to_ns);
    r.set("ops_per_s", main.ops_per_s);
    r.set("p50_ms", main.p50_ms);
    r.set("tail_ms", main.tail_ms);
    r.set("payload_mb_per_s", main.payload_mb_per_s);
    r.attempted = main.attempted;
    r.failed = main.failed;
    r.set("load.put_p50_ms", main.by_kind_p50_ms[0]);
    r.set("load.get_p50_ms", main.by_kind_p50_ms[1]);
    r.set("load.scan_p50_ms", main.by_kind_p50_ms[2]);
    r.set("load.gen_lag_p50_ms", main.lag_p50_ms);
    r.set("load.gen_lag_p99_ms", main.lag_p99_ms);
    let achieved = timed.iter().filter(|x| x.ok).count() as f64 / schedule.ops.len().max(1) as f64;
    r.set("load.achieved_over_offered", achieved);
    // The loop is only open while the generator keeps the schedule: it
    // must issue what was offered, and the typical op must leave on time.
    r.check(achieved >= 0.99, || {
        format!("open loop achieved {achieved:.4} of the offered schedule (< 0.99)")
    });
    r.check(main.tail_ms <= spec.tail_limit_ms, || {
        format!(
            "tail {:.3} ms misses the {} ms limit at {} ops/s",
            main.tail_ms, spec.tail_limit_ms, spec.rate_hz
        )
    });
    r.check(main.lag_p50_ms <= 0.2 * main.p50_ms, || {
        format!(
            "generator lag p50 {:.3} ms exceeds 20 % of the op p50 {:.3} ms",
            main.lag_p50_ms, main.p50_ms
        )
    });

    // What the counters' deltas are normalised by: everything replayed.
    let ops = timed.len() as u64;
    let payload: u64 = timed.iter().map(|x| x.bytes).sum();
    let put_bytes = timed
        .iter()
        .filter(|x| schedule.ops[x.i].0 == Kind::Put)
        .count() as u64
        * (key_of(0).len() + VALUE_BYTES) as u64;
    let seconds = (timed.iter().map(|x| x.done_ns).max().unwrap_or(from_ns) - from_ns) as f64 / 1e9;

    // Read a seeded sample of keys back against what the generator wrote
    // (the warm-up's writes came first and count like any other).
    recs.extend(timed);
    let expected = expected_tags(&recs, &schedule.ops, ctx.seed, spec.keys);
    r.check(expected.len() as u64 >= READBACK_KEYS / 2, || {
        format!("only {} keys had an unambiguous last write", expected.len())
    });
    for (key, tag) in &expected {
        let got = target.get(&key_of(*key));
        r.check(
            matches!(&got, Ok(Some(v)) if *v == value_of(ctx.seed, *tag)),
            || format!("key {key:x} did not read back the value of write {tag:x}"),
        );
    }

    if ctx.traced {
        let plain = part(&recs, &schedule.ops, from_ns, traced_from_ns.min(to_ns));
        r.set_trace_overhead(plain.ops_per_s, main.ops_per_s);
        before.report_delta(&after, ops, payload, put_bytes, seconds, r);
        r.set(
            "store.disk_bytes_per_live_byte",
            disk_bytes_per_live_byte(&kv2, spec.keys, key_of(0).len()),
        );

        // The probe ladder, fed with the schedule's own keys and values.
        let n = ctx.probe_samples();
        let inputs: Vec<(Vec<u8>, Vec<u8>)> = schedule
            .ops
            .iter()
            .enumerate()
            .take(n)
            .map(|(i, (_, key))| (key_of(*key), value_of(ctx.seed, i as u64)))
            .collect();
        probes::codecs(ctx, &inputs, r);
        probes::kv_disk_tcp(ctx, &kv2, &inputs, r);
        probes::kv_map_local(ctx, &inputs, r);
        probes::echo_ladder(ctx, n, r);
        probes::store(
            ctx,
            spec.keys / (KV_SERVERS as u64 * KV_DATABASES as u64),
            &inputs,
            r,
        );
        r.set(
            "ledger.put_residual_pct",
            100.0
                * (main.by_kind_p50_ms[0]
                    - (r.get("services.kv_map_local_us")
                        + r.get("net.echo_tcp_minus_local_us")
                        + r.get("store.put_us"))
                        / 1e3)
                / main.by_kind_p50_ms[0],
        );
    }
    drop(target);
    kv2.finalize();
    r.set("peak_rss_mb", peak_rss_mb());
}

// ---------------------------------------------------------------------
// kv_write_sat
// ---------------------------------------------------------------------

/// In-flight window per server.
pub const SAT_DEPTH: usize = 32;
/// Puts per `forward_many`: the unit whose latency is reported. 16 windows
/// deep, so the drain at the end of a batch costs ~3 % of the pipeline.
pub const SAT_BATCH: usize = 512;
/// Keys each generator cycles over (a power of two: the odd stride below
/// then visits every key before repeating one, so no key is ever in
/// flight twice and "the last acked value" is well defined).
const SAT_KEYS: u64 = 32 * 1024;
/// Untimed batches per server before the window.
const SAT_WARMUP_BATCHES: usize = 2;

fn sat_key(server: usize, idx: u64) -> Vec<u8> {
    format!("s{server}-{idx:08x}").into_bytes()
}

/// Key index and value tag of generator `server`'s `n`-th put.
fn sat_op(seed: u64, server: usize, n: u64) -> (u64, u64) {
    let stride = mix(seed ^ KEY_SALT, server as u64) | 1;
    (
        n.wrapping_mul(stride) % SAT_KEYS,
        ((server as u64) << 40) | n,
    )
}

pub fn sat_sequence_hash(seed: u64) -> u64 {
    let mut h = SeqHash::default();
    for server in 0..KV_SERVERS {
        for n in 0..4 * SAT_BATCH as u64 {
            let (idx, tag) = sat_op(seed, server, n);
            h.push(idx);
            h.push(tag);
        }
    }
    h.value()
}

/// One generator: batches of puts to `server` from put number `n0` until
/// `until_ns` or `max_batches`. Returns the batches and, per key, the tag
/// of the last value the server acknowledged.
fn sat_drive(
    ctx: &Ctx,
    kv2: &Kv2,
    server: usize,
    n0: u64,
    max_batches: usize,
    until_ns: u64,
) -> (Vec<BatchRec>, HashMap<u64, u64>) {
    let spans = &ctx.spans;
    let mut log = spans.thread(server as u32);
    let options = RpcOptions::new().with_pipeline(SAT_DEPTH);
    let mut recs = Vec::new();
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut n = n0;
    while recs.len() < max_batches && spans.now_ns() < until_ns {
        let ops: Vec<(u64, u64)> = (0..SAT_BATCH as u64)
            .map(|k| sat_op(ctx.seed, server, n + k))
            .collect();
        n += SAT_BATCH as u64;
        let inputs: Vec<PutArgs> = ops
            .iter()
            .map(|(idx, tag)| PutArgs {
                db: (idx % KV_DATABASES as u64) as u32,
                key: sat_key(server, *idx),
                value: value_of(ctx.seed, *tag),
            })
            .collect();
        let start_ns = spans.now_ns();
        let results = kv2
            .client
            .forward_many(
                kv2.servers[server].addr,
                "sdskv_put_rpc",
                &inputs,
                options.clone(),
            )
            .wait();
        let done_ns = spans.now_ns();
        log.record("margo.forward_many", start_ns, done_ns, 0, n);
        let mut ok = 0u64;
        if let Ok(results) = results {
            for ((idx, tag), res) in ops.iter().zip(results) {
                let stored = res.is_ok_and(|o| {
                    o.status == RpcStatus::Ok && matches!(u32::from_bytes(o.output), Ok(1))
                });
                if stored {
                    ok += 1;
                    acked.insert(*idx, *tag);
                } else {
                    acked.remove(idx);
                }
            }
        }
        recs.push(BatchRec {
            start_ns,
            done_ns,
            ok,
            failed: SAT_BATCH as u64 - ok,
        });
    }
    (recs, acked)
}

/// Run [`sat_drive`] for every server at once, one thread each.
fn sat_drive_all(
    ctx: &Ctx,
    kv2: &Kv2,
    n0: u64,
    max_batches: usize,
    until_ns: u64,
) -> Vec<(Vec<BatchRec>, HashMap<u64, u64>)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..KV_SERVERS)
            .map(|server| s.spawn(move || sat_drive(ctx, kv2, server, n0, max_batches, until_ns)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

pub fn run_sat(ctx: &Ctx, r: &mut Report) {
    r.sequence_hash = sat_sequence_hash(ctx.seed);
    let kv2 = Kv2::launch(&ctx.dir);
    kv2.warm();
    // Untimed batches fill the window and the group-commit path; they are
    // part of set-up, and their writes count in the durability check.
    let warm = sat_drive_all(ctx, &kv2, 0, SAT_WARMUP_BATCHES, u64::MAX);
    r.setup_done(ctx);
    if ctx.setup_only {
        kv2.finalize();
        return;
    }

    let before = kv2.counters();

    let spans = &ctx.spans;
    let from_ns = spans.now_ns();
    let to_ns = from_ns + ctx.window_ns();
    let traced_from_ns = from_ns.saturating_add(ctx.traced_from_ns());
    spans.enable_from(traced_from_ns);
    let n0 = (SAT_WARMUP_BATCHES * SAT_BATCH) as u64;
    let timed = sat_drive_all(ctx, &kv2, n0, usize::MAX, to_ns);
    let after = kv2.counters();

    let mut batches: Vec<BatchRec> = Vec::new();
    let mut acked: Vec<HashMap<u64, u64>> = Vec::new();
    for ((warm_recs, mut keys), (recs, later)) in warm.into_iter().zip(timed) {
        r.check(warm_recs.iter().all(|b| b.failed == 0), || {
            "a warm-up put failed".to_string()
        });
        batches.extend(recs);
        keys.extend(later);
        acked.push(keys);
    }
    let live_keys: u64 = acked.iter().map(|a| a.len() as u64).sum();
    let disk_ratio = disk_bytes_per_live_byte(&kv2, live_keys.max(1), sat_key(0, 0).len());

    let main_from = if ctx.traced { traced_from_ns } else { from_ns };
    let (ops_per_s, lat, attempted, failed) = stretch(&batches, main_from, to_ns);
    r.set("ops_per_s", ops_per_s);
    let len = to_ns - main_from;
    r.set(
        "p50_ms",
        subwindow_quantile_ms(&lat, main_from, len, SUBWINDOWS, 0.50),
    );
    // ~50 batches per sub-window: p90 is the highest percentile with a
    // handful of samples beyond it.
    r.set(
        "tail_ms",
        subwindow_quantile_ms(&lat, main_from, len, SUBWINDOWS, 0.90),
    );
    r.set("payload_mb_per_s", ops_per_s * VALUE_BYTES as f64 / MIB);
    r.attempted = attempted;
    r.failed = failed;

    if ctx.traced {
        let (plain, ..) = stretch(&batches, from_ns, traced_from_ns);
        r.set_trace_overhead(plain, ops_per_s);
        let ops: u64 = batches.iter().map(|b| b.ok + b.failed).sum();
        let seconds = (spans.now_ns() - from_ns) as f64 / 1e9;
        before.report_delta(
            &after,
            ops,
            ops * VALUE_BYTES as u64,
            ops * (sat_key(0, 0).len() + VALUE_BYTES) as u64,
            seconds,
            r,
        );
        r.set("store.disk_bytes_per_live_byte", disk_ratio);
        let n = ctx.probe_samples();
        let inputs: Vec<(Vec<u8>, Vec<u8>)> = (0..n as u64)
            .map(|k| {
                let (idx, tag) = sat_op(ctx.seed, 0, k);
                (sat_key(0, idx), value_of(ctx.seed, tag))
            })
            .collect();
        probes::codecs(ctx, &inputs, r);
        probes::kv_disk_tcp(ctx, &kv2, &inputs, r);
        probes::echo_ladder(ctx, n, r);
    }

    // Durability: stop the servers, reopen every store from its directory
    // alone, and read a seeded sample of acknowledged keys back.
    let dirs: Vec<_> = kv2.servers.iter().map(|s| s.dir.clone()).collect();
    kv2.finalize();
    let mut recovery_ms: f64 = 0.0;
    for (server, dir) in dirs.iter().enumerate() {
        let stores: Vec<LogStore> = (0..KV_DATABASES)
            .map(|db| {
                let t0 = Instant::now();
                let store = LogStore::open(StoreConfig::new(dir.join(format!("db-{db}"))))
                    .expect("reopen store after the run");
                recovery_ms = recovery_ms.max(t0.elapsed().as_secs_f64() * 1e3);
                store
            })
            .collect();
        r.check(!acked[server].is_empty(), || {
            format!("server {server} acknowledged no put")
        });
        let mut keys: Vec<_> = acked[server].iter().collect();
        keys.sort_unstable();
        for j in 0..READBACK_KEYS.min(keys.len() as u64) {
            let (idx, tag) = keys[(mix(ctx.seed ^ CHECK_SALT, j) % keys.len() as u64) as usize];
            let got = stores[(idx % KV_DATABASES as u64) as usize].get(&sat_key(server, *idx));
            r.check(
                got.as_deref() == Some(&value_of(ctx.seed, *tag)[..]),
                || format!("server {server} key {idx:x}: acked write {tag:x} lost across reopen"),
            );
        }
    }
    r.set("store.recovery_ms", recovery_ms);
    r.set("peak_rss_mb", peak_rss_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        for spec in [&KV_WRITE_OPEN, &KV_READ_OPEN] {
            let a = Schedule::build(spec, 42, 2.0).sequence_hash();
            let b = Schedule::build(spec, 42, 2.0).sequence_hash();
            let c = Schedule::build(spec, 43, 2.0).sequence_hash();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
        assert_eq!(sat_sequence_hash(42), sat_sequence_hash(42));
        assert_ne!(sat_sequence_hash(42), sat_sequence_hash(43));
    }

    #[test]
    fn mixes_match_their_weights() {
        let s = Schedule::build(&KV_READ_OPEN, 7, 10.0);
        let share = |k: Kind| {
            s.ops.iter().filter(|(kind, _)| *kind == k).count() as f64 / s.ops.len() as f64
        };
        // Dealt in blocks, so exact up to the last partial block.
        assert!((share(Kind::Get) - 0.90).abs() < 0.002);
        assert!((share(Kind::Put) - 0.05).abs() < 0.002);
        assert!((share(Kind::Scan) - 0.05).abs() < 0.002);
        assert!(s.ops.iter().all(|(_, key)| *key < KV_READ_OPEN.keys));
    }

    #[test]
    fn sat_keys_never_repeat_inside_a_window() {
        for server in 0..KV_SERVERS {
            let mut seen = std::collections::HashSet::new();
            for n in 0..SAT_KEYS {
                assert!(seen.insert(sat_op(42, server, n).0), "key repeated early");
            }
        }
    }

    #[test]
    fn ambiguous_last_writes_are_left_out() {
        let ops = vec![(Kind::Put, 5), (Kind::Put, 5), (Kind::Put, 6)];
        let rec = |i, send_ns, done_ns| OpRec {
            i,
            intended_ns: send_ns,
            send_ns,
            done_ns,
            ok: true,
            bytes: 0,
        };
        // Two puts to key 5 overlap; key 6 has one clean put.
        let recs = vec![rec(0, 10, 30), rec(1, 20, 40), rec(2, 50, 60)];
        let mut puts: HashMap<u64, Vec<&OpRec>> = HashMap::new();
        for r in &recs {
            puts.entry(ops[r.i].1).or_default().push(r);
        }
        let last5 = puts[&5].iter().max_by_key(|r| r.done_ns).unwrap();
        assert!(!puts[&5]
            .iter()
            .all(|r| r.i == last5.i || r.done_ns <= last5.send_ns));
        // Every sampled key is either preloaded or has a clear last write.
        for (key, tag) in expected_tags(&recs, &ops, 1, 8) {
            assert!(key != 5, "overlapping writes have no single answer");
            assert!(tag == (PRELOAD_TAG | key) || (key == 6 && tag == 2));
        }
    }
}
