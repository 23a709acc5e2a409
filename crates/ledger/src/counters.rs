//! Before/after deltas of the public counter snapshots the layers already
//! keep, normalised per operation so a run of any length reads the same.

use crate::run::Report;
use symbi_fabric::Fabric;
use symbi_margo::MargoInstance;
use symbi_store::StatsSnapshot;

/// One reading of every counter a workload can reach.
#[derive(Default, Clone)]
pub struct Counters {
    msgs: u64,
    rdma_bytes: u64,
    frames: u64,
    wire_bytes: u64,
    flushes: u64,
    coalesced_frames: u64,
    reactor_wakeups: u64,
    reactor_loop_ns: u64,
    reactor_loop_max_ns: u64,
    send_failures: u64,
    reactors: u64,
    pool_completed: u64,
    pool_queue_wait_ns: u64,
    pool_depth_hwm: u64,
    shed: u64,
    pub store: StatsSnapshot,
}

impl Counters {
    /// Sum the counters of `fabrics` (one per transport in the process)
    /// and of the `servers`' handler pools and admission gates.
    pub fn read(fabrics: &[&Fabric], servers: &[&MargoInstance], store: StatsSnapshot) -> Self {
        let mut c = Counters {
            store,
            ..Counters::default()
        };
        for f in fabrics {
            let s = f.stats();
            c.msgs += s.messages_sent;
            c.rdma_bytes += s.rdma_bytes;
            if let Some(l) = f.link_stats() {
                c.frames += l.frames_sent;
                c.wire_bytes += l.bytes_sent;
                c.flushes += l.flushes;
                c.coalesced_frames += l.coalesced_frames;
                c.reactor_wakeups += l.reactor_wakeups;
                c.reactor_loop_ns += l.reactor_loop_ns_total;
                c.reactor_loop_max_ns = c.reactor_loop_max_ns.max(l.reactor_loop_ns_max);
                c.send_failures += l.send_failures;
                c.reactors += 1;
            }
        }
        for m in servers {
            let p = m.primary_pool().stats();
            c.pool_completed += p.completed;
            c.pool_queue_wait_ns += p.cumulative_queue_wait_ns;
            c.pool_depth_hwm = c.pool_depth_hwm.max(
                p.lanes
                    .iter()
                    .map(|l| l.depth_highwatermark)
                    .max()
                    .unwrap_or(0),
            );
            c.shed += m.shed_rejected_total();
        }
        c
    }

    /// Report `after - self` for a stretch of `ops` operations moving
    /// `payload_bytes` over `seconds`. `user_put_bytes` is what the puts
    /// among them asked the store to keep.
    pub fn report_delta(
        &self,
        after: &Counters,
        ops: u64,
        payload_bytes: u64,
        user_put_bytes: u64,
        seconds: f64,
        r: &mut Report,
    ) {
        let per_op = |d: u64| d as f64 / ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.set("fabric.msgs_per_op", per_op(after.msgs - self.msgs));
        r.set(
            "fabric.rdma_bytes_per_op",
            per_op(after.rdma_bytes - self.rdma_bytes),
        );
        r.set("net.frames_per_op", per_op(after.frames - self.frames));
        r.set(
            "net.wire_bytes_per_payload_byte",
            ratio(after.wire_bytes - self.wire_bytes, payload_bytes),
        );
        r.set(
            "net.frames_per_flush",
            ratio(
                after.coalesced_frames - self.coalesced_frames,
                after.flushes - self.flushes,
            ),
        );
        r.set(
            "net.reactor_wakeups_per_op",
            per_op(after.reactor_wakeups - self.reactor_wakeups),
        );
        // Mean over the process's reactors of the time each spent outside
        // poll(2).
        r.set(
            "net.reactor_busy_share",
            (after.reactor_loop_ns - self.reactor_loop_ns) as f64
                / (seconds * 1e9 * after.reactors.max(1) as f64),
        );
        // A high-water mark since transport start, not a delta.
        r.set(
            "net.reactor_loop_max_ms",
            after.reactor_loop_max_ns as f64 / 1e6,
        );
        r.set(
            "net.send_failures",
            (after.send_failures - self.send_failures) as f64,
        );
        r.set(
            "margo.handler_queue_wait_us",
            ratio(
                after.pool_queue_wait_ns - self.pool_queue_wait_ns,
                after.pool_completed - self.pool_completed,
            ) / 1e3,
        );
        r.set("margo.pool_depth_hwm", after.pool_depth_hwm as f64);
        r.set("margo.shed_total", (after.shed - self.shed) as f64);

        let (a, b) = (&after.store, &self.store);
        let puts = a.wal_records - b.wal_records;
        r.set("store.fsyncs_per_put", ratio(a.fsyncs - b.fsyncs, puts));
        r.set(
            "store.mean_group_size",
            ratio(
                a.group_committed_records - b.group_committed_records,
                a.group_commits - b.group_commits,
            ),
        );
        r.set(
            "store.wal_bytes_per_user_byte",
            ratio(a.wal_bytes - b.wal_bytes, user_put_bytes),
        );
        r.set(
            "store.memtable_flushes",
            (a.memtable_flushes - b.memtable_flushes) as f64,
        );
        r.set("store.compactions", (a.compactions - b.compactions) as f64);
        r.set(
            "store.compaction_ms",
            (a.compaction_ms - b.compaction_ms) as f64,
        );
    }
}
