//! Shared timing helpers: the multi-GPU synchronization overhead and scatter
//! contention.

use embeddings::TableBag;
use memsim::SimTime;

/// Effective throughput of *conflicting* atomic row updates during the
/// GPU's gradient scatter, in bytes/second. When many duplicated gradients
/// target the same hot row, the hardware serializes them; ~750 MB/s per
/// conflict chain corresponds to ≈0.7 µs per conflicting 512 B row — the
/// calibration that reproduces Table I's ≈2.4 ms locality-dependent
/// slowdown of the multi-GPU system.
pub const ATOMIC_CONFLICT_BW: f64 = 750.0e6;

/// Fixed per-iteration synchronization overhead of an 8-GPU node, in
/// milliseconds: NCCL all-to-all / all-reduce launch latencies, stream
/// synchronization and straggler imbalance across 8 workers. Shared by the
/// GPU-only comparator and multi-GPU ScratchPipe. Fitted to Table I's
/// 16–19 ms band (`EXPERIMENTS.md`, "Constants").
pub const SYNC_OVERHEAD_MS: f64 = 8.0;

/// The largest number of times any single row is referenced in `bag` —
/// the length of the worst serialized atomic-update chain (0 for an empty
/// bag).
///
/// The count [`TableBag::unique_ids_into`] returns, into throw-away
/// buffers. The systems themselves do not call this: they take the count
/// from the dedup they already run (a pipeline's
/// `PipelineReport::max_dup`, or their own `unique_ids_into`), so each
/// bag is sorted once.
pub fn max_dup_count(bag: &TableBag) -> u64 {
    bag.unique_ids_into(&mut Vec::new(), &mut Vec::new())
}

/// Extra GPU time for hot-row scatter contention: the worst chain of
/// `max_dup` conflicting updates to one `dim`-wide row serializes at
/// [`ATOMIC_CONFLICT_BW`].
pub fn contention_time(max_dup: u64, dim: usize) -> SimTime {
    if max_dup <= 1 {
        return SimTime::ZERO;
    }
    SimTime::from_secs((max_dup - 1) as f64 * dim as f64 * 4.0 / ATOMIC_CONFLICT_BW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_dup_counts_repetitions() {
        let bag = TableBag::from_samples(&[vec![1, 2, 1], vec![1, 3]]);
        assert_eq!(max_dup_count(&bag), 3);
        let bag = TableBag::from_samples(&[vec![1, 2, 3]]);
        assert_eq!(max_dup_count(&bag), 1);
        let bag = TableBag::from_samples(&[vec![]]);
        assert_eq!(max_dup_count(&bag), 0);
    }

    #[test]
    fn contention_grows_with_duplicates() {
        assert_eq!(contention_time(0, 128), SimTime::ZERO);
        assert_eq!(contention_time(1, 128), SimTime::ZERO);
        let a = contention_time(10, 128);
        let b = contention_time(100, 128);
        assert!(b > a * 9.0);
        // ~2000 conflicts on a 512 B row ≈ 1.4 ms (order of the Table I
        // locality delta).
        let c = contention_time(2000, 128);
        assert!((c.as_millis() - 1.36).abs() < 0.2, "{c}");
    }
}
