//! Closed loops issue `forward_many` batches; the batch is the unit a
//! caller waits on, so it is the unit whose latency they report.

use crate::run::SUBWINDOWS;
use crate::stats::{subwindow_rate, FAILED_NS};

pub struct BatchRec {
    pub start_ns: u64,
    pub done_ns: u64,
    pub ok: u64,
    pub failed: u64,
}

/// Of the batches started in `[lo, hi)`: operations per second (median
/// sub-window), `(start, latency)` of each batch (a batch with a failed
/// operation counts as never finishing), operations attempted, operations
/// failed.
pub fn stretch(recs: &[BatchRec], lo: u64, hi: u64) -> (f64, Vec<(u64, u64)>, u64, u64) {
    let inside: Vec<&BatchRec> = recs
        .iter()
        .filter(|b| (lo..hi).contains(&b.start_ns))
        .collect();
    let done: Vec<(u64, u64, u64)> = inside
        .iter()
        .map(|b| (b.start_ns, b.done_ns, b.ok))
        .collect();
    let lat = inside
        .iter()
        .map(|b| {
            let took = if b.failed == 0 {
                b.done_ns - b.start_ns
            } else {
                FAILED_NS
            };
            (b.start_ns, took)
        })
        .collect();
    (
        subwindow_rate(&done, lo, hi.saturating_sub(lo).max(1), SUBWINDOWS),
        lat,
        inside.iter().map(|b| b.ok + b.failed).sum(),
        inside.iter().map(|b| b.failed).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_fails_its_batch() {
        let recs = [
            BatchRec {
                start_ns: 10,
                done_ns: 20,
                ok: 4,
                failed: 0,
            },
            BatchRec {
                start_ns: 20,
                done_ns: 35,
                ok: 3,
                failed: 1,
            },
            BatchRec {
                start_ns: 99,
                done_ns: 120,
                ok: 4,
                failed: 0,
            },
        ];
        let (_, lat, attempted, failed) = stretch(&recs, 0, 50);
        assert_eq!(lat, vec![(10, 10), (20, FAILED_NS)]);
        assert_eq!((attempted, failed), (8, 1));
    }
}
