//! `rpc_pipelined`: one client thread echoing through one tcp server,
//! first 1 KiB bodies at depth 64 (the eager path), then 64 KiB bodies at
//! depth 8 (the emulated-RDMA path). No `services`, no `store`: what moves
//! here is margo, mercury, tasking, fabric and net, and nothing else.

use crate::batch::{stretch, BatchRec};
use crate::counters::Counters;
use crate::deploy::EchoPair;
use crate::probes;
use crate::run::{peak_rss_mb, seeded_bytes, Ctx, Report, MIB, SUBWINDOWS};
use crate::stats::{subwindow_quantile_ms, SeqHash};
use symbi_margo::RpcOptions;
use symbi_mercury::{RpcStatus, Wire};
use symbi_store::StatsSnapshot;

/// Share of the window the bulk phase gets. Every 64 KiB body the bulk
/// path moves stays resident today (RSS grows by the payload rate), and
/// past ~0.9 GiB the rate halves; an eighth of the 20-s window (~0.6 GiB)
/// keeps the phase on the near side of that knee, where its rate repeats.
const BULK_SHARE: f64 = 0.125;
/// Untimed batches per phase before the window.
const WARMUP_BATCHES: usize = 4;

pub struct Phase {
    pub span: &'static str,
    pub body_bytes: usize,
    pub depth: usize,
    /// Echoes per `forward_many`: 16 windows, so the drain at the end of a
    /// batch costs ~3 % of the pipeline.
    pub batch: usize,
}

pub const EAGER: Phase = Phase {
    span: "margo.forward_many_1k_d64",
    body_bytes: 1024,
    depth: 64,
    batch: 1024,
};

pub const BULK: Phase = Phase {
    span: "margo.forward_many_64k_d8",
    body_bytes: 64 * 1024,
    depth: 8,
    batch: 128,
};

/// The seeded body every echo of a phase carries; the first eight bytes
/// are overwritten with the echo's sequence number.
pub fn body_of(seed: u64, phase: &Phase) -> Vec<u8> {
    seeded_bytes(seed ^ phase.body_bytes as u64, phase.body_bytes)
}

pub fn sequence_hash(seed: u64) -> u64 {
    let mut h = SeqHash::default();
    for phase in [&EAGER, &BULK] {
        for chunk in body_of(seed, phase).chunks(8) {
            h.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
    }
    h.value()
}

/// Echo batches of `phase` until `until_ns` or `max_batches`, whichever
/// comes first.
fn drive(
    ctx: &Ctx,
    pair: &EchoPair,
    phase: &Phase,
    max_batches: usize,
    until_ns: u64,
) -> Vec<BatchRec> {
    let spans = &ctx.spans;
    let mut log = spans.thread(0);
    let base = body_of(ctx.seed, phase);
    let mut inputs: Vec<Vec<u8>> = vec![base.clone(); phase.batch];
    let options = RpcOptions::new().with_pipeline(phase.depth);
    let mut recs = Vec::new();
    let mut seq = 0u64;
    while recs.len() < max_batches && spans.now_ns() < until_ns {
        for body in &mut inputs {
            body[..8].copy_from_slice(&seq.to_le_bytes());
            seq += 1;
        }
        let start_ns = spans.now_ns();
        let results = pair
            .client
            .forward_many(pair.addr, "echo", &inputs, options.clone())
            .wait();
        let done_ns = spans.now_ns();
        log.record(phase.span, start_ns, done_ns, 0, seq);
        // Every echo must come back whole: length and sequence stamp of
        // each, every byte of the first and the last of the batch.
        let mut ok = 0u64;
        if let Ok(results) = results {
            for (i, (sent, res)) in inputs.iter().zip(results).enumerate() {
                let back = res
                    .ok()
                    .filter(|o| o.status == RpcStatus::Ok)
                    .and_then(|o| Vec::<u8>::from_bytes(o.output).ok());
                let whole = i == 0 || i + 1 == phase.batch;
                ok += back.is_some_and(|b| {
                    b.len() == sent.len() && b[..16] == sent[..16] && (!whole || b == *sent)
                }) as u64;
            }
        }
        recs.push(BatchRec {
            start_ns,
            done_ns,
            ok,
            failed: phase.batch as u64 - ok,
        });
    }
    recs
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    r.sequence_hash = sequence_hash(ctx.seed);
    let pair = EchoPair::launch(true, 64);
    // Untimed batches of both phases open each window's gate and the RDMA
    // path; they are part of set-up.
    let warm: u64 = [&EAGER, &BULK]
        .iter()
        .flat_map(|phase| drive(ctx, &pair, phase, WARMUP_BATCHES, u64::MAX))
        .map(|b| b.failed)
        .sum();
    r.check(warm == 0, || format!("{warm} warm-up echoes failed"));
    r.setup_done(ctx);
    if ctx.setup_only {
        pair.finalize();
        return;
    }
    let fabrics = [&pair.client_fabric, &pair.server_fabric];
    let before = Counters::read(&fabrics, &[&pair.server], StatsSnapshot::default());

    let spans = &ctx.spans;
    let from_ns = spans.now_ns();
    let mid_ns = from_ns + (ctx.seconds * (1.0 - BULK_SHARE) * 1e9) as u64;
    let to_ns = from_ns + ctx.window_ns();
    let traced_from_ns = from_ns.saturating_add(ctx.traced_from_ns());
    spans.enable_from(traced_from_ns);
    let eager = drive(ctx, &pair, &EAGER, usize::MAX, mid_ns);
    let eager_end_ns = spans.now_ns();
    let bulk = drive(ctx, &pair, &BULK, usize::MAX, to_ns);
    let after = Counters::read(&fabrics, &[&pair.server], StatsSnapshot::default());

    let eager_from = if ctx.traced { traced_from_ns } else { from_ns };
    let (ops_per_s, lat, attempted_a, failed_a) = stretch(&eager, eager_from, eager_end_ns);
    let (bulk_per_s, _, attempted_b, failed_b) = stretch(&bulk, eager_end_ns, to_ns);
    r.set("ops_per_s", ops_per_s);
    let eager_len = eager_end_ns - eager_from;
    r.set(
        "p50_ms",
        subwindow_quantile_ms(&lat, eager_from, eager_len, SUBWINDOWS, 0.50),
    );
    // ~130 batches per sub-window: p90 is the highest percentile with ten
    // samples beyond it.
    r.set(
        "tail_ms",
        subwindow_quantile_ms(&lat, eager_from, eager_len, SUBWINDOWS, 0.90),
    );
    r.set(
        "payload_mb_per_s",
        bulk_per_s * BULK.body_bytes as f64 / MIB,
    );
    r.attempted = attempted_a + attempted_b;
    r.failed = failed_a + failed_b;

    if ctx.traced {
        let (plain, ..) = stretch(&eager, from_ns, traced_from_ns);
        r.set_trace_overhead(plain, ops_per_s);
        let count = |recs: &[BatchRec]| recs.iter().map(|b| b.ok + b.failed).sum::<u64>();
        let ops = count(&eager) + count(&bulk);
        let payload =
            count(&eager) * EAGER.body_bytes as u64 + count(&bulk) * BULK.body_bytes as u64;
        // An echo carries its body both ways.
        before.report_delta(
            &after,
            ops,
            2 * payload,
            0,
            (spans.now_ns() - from_ns) as f64 / 1e9,
            r,
        );
        let n = ctx.probe_samples();
        probes::wire_codecs(ctx, n * 20, r);
        probes::echo_ladder(ctx, n, r);
        probes::tasking(ctx, n, r);
    }
    pair.finalize();
    r.set("peak_rss_mb", peak_rss_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(body_of(1, &EAGER).len(), 1024);
        assert_eq!(body_of(1, &BULK).len(), 64 * 1024);
        assert_eq!(sequence_hash(42), sequence_hash(42));
        assert_ne!(sequence_hash(42), sequence_hash(43));
    }
}
