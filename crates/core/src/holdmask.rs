//! Hold masks — the sliding-window hazard-elimination mechanism.
//!
//! Paper §IV-D, Algorithm 1: every scratchpad slot carries a small bitmask.
//! Bit `k`, set when a mini-batch claims the slot at plan-cycle `c`,
//! means *"this slot is referenced by the batch whose \[Plan\] runs `k`
//! cycles from now (relative to claim time)"* and therefore protects the
//! slot from eviction through plan-cycle `c + k`. The \[Plan\] stage may
//! only evict slots whose mask is all-zero.
//!
//! Two implementations are provided:
//!
//! * [`NaiveHoldMask`] — the paper's Algorithm 1 verbatim: every plan cycle
//!   shifts **every** slot's mask right by one (`O(slots)` per cycle).
//! * [`HoldMask`] — an equivalent *stamped* representation: each slot
//!   stores `(mask, stamp)` and the shift happens lazily at query time
//!   (`mask >> (now − stamp)`), making `advance` O(1). A property test
//!   proves both implementations agree on random schedules.

/// The paper's Algorithm-1 bitmask array with an explicit global shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveHoldMask {
    masks: Vec<u32>,
    width: u32,
}

impl NaiveHoldMask {
    /// Creates all-clear masks for `slots` slots with `width` window bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 31.
    pub fn new(slots: usize, width: u32) -> Self {
        assert!(width > 0 && width <= 31, "width must be in 1..=31");
        NaiveHoldMask {
            masks: vec![0; slots],
            width,
        }
    }

    /// Algorithm 1 step B: advance the window by one plan cycle
    /// (`HoldMask[i] >>= 1` for every slot).
    pub fn advance(&mut self) {
        for m in &mut self.masks {
            *m >>= 1;
        }
    }

    /// Sets protection bit `k` on `slot` (protects through the `k`-th
    /// upcoming plan cycle, inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `k >= width`.
    pub fn set_bit(&mut self, slot: u32, k: u32) {
        assert!(
            k < self.width,
            "bit {k} outside window width {}",
            self.width
        );
        self.masks[slot as usize] |= 1 << k;
    }

    /// True if `slot` may be evicted (mask all-zero).
    pub fn is_clear(&self, slot: u32) -> bool {
        self.masks[slot as usize] == 0
    }

    /// Raw mask value (for diagnostics and differential tests).
    pub fn raw(&self, slot: u32) -> u32 {
        self.masks[slot as usize]
    }
}

/// One slot's stamped mask: `mask` as it stood at cycle `stamp`. Mask and
/// stamp are always read and written together, so they share a record
/// (one cache line per slot touched, not two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stamped {
    stamp: u64,
    mask: u32,
}

/// Lazily-shifted Hold mask: O(1) `advance`, same observable behavior as
/// [`NaiveHoldMask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldMask {
    slots: Vec<Stamped>,
    cycle: u64,
    width: u32,
}

impl HoldMask {
    /// Creates all-clear masks for `slots` slots with `width` window bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 31.
    pub fn new(slots: usize, width: u32) -> Self {
        assert!(width > 0 && width <= 31, "width must be in 1..=31");
        HoldMask {
            slots: vec![Stamped::default(); slots],
            cycle: 0,
            width,
        }
    }

    /// Current plan cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the window by one plan cycle — O(1).
    pub fn advance(&mut self) {
        self.cycle += 1;
    }

    /// The mask of `slot` as it stands at the current cycle.
    pub fn effective(&self, slot: u32) -> u32 {
        let Stamped { stamp, mask } = self.slots[slot as usize];
        let age = self.cycle - stamp;
        if age >= 32 {
            0
        } else {
            mask >> age
        }
    }

    /// Sets protection bit `k` on `slot` at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `k >= width`.
    pub fn set_bit(&mut self, slot: u32, k: u32) {
        let _ = self.extend(slot, k);
    }

    /// [`HoldMask::set_bit`] that also reports whether the protection
    /// horizon moved: `Some(first_clear_cycle)` if bit `k` lies beyond
    /// every bit already set (the slot is now held longer than before),
    /// `None` if the slot was already held at least that long. The
    /// manager queues an expiry only in the first case, so a slot has one
    /// queue entry per horizon it ever reached, not one per protection.
    ///
    /// # Panics
    ///
    /// Panics if `k >= width`.
    pub fn extend(&mut self, slot: u32, k: u32) -> Option<u64> {
        assert!(
            k < self.width,
            "bit {k} outside window width {}",
            self.width
        );
        let before = self.effective(slot);
        self.slots[slot as usize] = Stamped {
            stamp: self.cycle,
            mask: before | (1 << k),
        };
        ((1u32 << k) > before).then_some(self.cycle + u64::from(k) + 1)
    }

    /// True if `slot` may be evicted (effective mask all-zero).
    pub fn is_clear(&self, slot: u32) -> bool {
        self.effective(slot) == 0
    }

    /// The first plan cycle at which `slot` becomes evictable, assuming no
    /// further protection — what the manager's expiry buckets are keyed by.
    pub fn first_clear_cycle(&self, slot: u32) -> u64 {
        let eff = self.effective(slot);
        self.cycle + (32 - eff.leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_k_protects_exactly_k_plus_one_cycles() {
        // Paper: a bit set at cycle c with offset k holds the slot through
        // plan cycle c + k and frees it at c + k + 1.
        for k in 0..6u32 {
            let mut m = HoldMask::new(1, 6);
            m.set_bit(0, k);
            for step in 0..=k {
                assert!(!m.is_clear(0), "k={k}: held at +{step}");
                m.advance();
            }
            assert!(m.is_clear(0), "k={k}: clear at +{}", k + 1);
        }
    }

    #[test]
    fn naive_matches_paper_figure11_decay() {
        let mut m = NaiveHoldMask::new(3, 3);
        // Figure 11(b): after batch 1 plans {slot 2, slot 3} the masks read
        // "10" (past view). Model: set current bit (bit 2 of width 3).
        m.set_bit(2, 2);
        m.advance();
        assert_eq!(m.raw(2), 0b10);
        m.advance();
        assert_eq!(m.raw(2), 0b01);
        m.advance();
        assert!(m.is_clear(2));
    }

    #[test]
    fn first_clear_cycle_predicts_expiry() {
        let mut m = HoldMask::new(2, 6);
        m.set_bit(0, 3);
        assert_eq!(m.first_clear_cycle(0), 4);
        m.advance();
        assert_eq!(m.first_clear_cycle(0), 4);
        // Re-protection extends expiry.
        m.set_bit(0, 5);
        assert_eq!(m.first_clear_cycle(0), 1 + 6);
        // Untouched slot is clear now.
        assert_eq!(m.first_clear_cycle(1), m.cycle());
    }

    #[test]
    fn extend_reports_exactly_the_horizon_growth() {
        let mut m = HoldMask::new(1, 6);
        assert_eq!(m.extend(0, 3), Some(4), "clear slot: any bit grows it");
        assert_eq!(m.extend(0, 3), None, "same bit again");
        assert_eq!(m.extend(0, 1), None, "shorter protection");
        m.advance();
        // Bit 3 set at cycle 0 now reads as bit 2: bit 3 is new growth.
        assert_eq!(m.extend(0, 3), Some(1 + 4));
        assert_eq!(m.first_clear_cycle(0), 5);
    }

    #[test]
    fn overlapping_protections_take_the_max() {
        let mut m = HoldMask::new(1, 6);
        m.set_bit(0, 5); // future registration
        m.advance();
        m.set_bit(0, 3); // becomes current batch
                         // Held through max(0+5, 1+3) = cycle 5; clear at 6.
        for _ in 1..=4 {
            m.advance();
            assert!(!m.is_clear(0), "cycle {}", m.cycle());
        }
        m.advance();
        assert!(m.is_clear(0));
    }

    #[test]
    fn lazy_shift_survives_long_idle_gaps() {
        let mut m = HoldMask::new(1, 6);
        m.set_bit(0, 5);
        for _ in 0..100 {
            m.advance();
        }
        assert!(m.is_clear(0));
        assert_eq!(m.effective(0), 0);
        // Re-protect after the gap.
        m.set_bit(0, 2);
        assert!(!m.is_clear(0));
    }

    #[test]
    #[should_panic(expected = "outside window width")]
    fn bit_beyond_width_rejected() {
        let mut m = HoldMask::new(1, 3);
        m.set_bit(0, 3);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=31")]
    fn oversized_width_rejected() {
        let _ = NaiveHoldMask::new(1, 32);
    }

    proptest::proptest! {
        /// Differential test: the stamped implementation is observationally
        /// equivalent to the paper's Algorithm-1 global-shift masks under
        /// arbitrary interleavings of advances and bit-sets.
        #[test]
        fn stamped_equals_naive(ops in proptest::collection::vec(
            (0u32..8, 0u32..6, proptest::bool::ANY), 1..200)
        ) {
            let mut naive = NaiveHoldMask::new(8, 6);
            let mut fast = HoldMask::new(8, 6);
            for (slot, bit, advance) in ops {
                if advance {
                    naive.advance();
                    fast.advance();
                } else {
                    naive.set_bit(slot, bit);
                    // `extend` is `set_bit` plus a growth report that must
                    // agree with the horizon before and after.
                    let before = fast.first_clear_cycle(slot);
                    let grew = fast.extend(slot, bit);
                    let after = fast.first_clear_cycle(slot);
                    proptest::prop_assert_eq!(grew, (after > before).then_some(after));
                }
                for s in 0..8u32 {
                    proptest::prop_assert_eq!(
                        naive.is_clear(s), fast.is_clear(s),
                        "slot {} diverged (naive raw {:b}, fast eff {:b})",
                        s, naive.raw(s), fast.effective(s)
                    );
                    proptest::prop_assert_eq!(naive.raw(s), fast.effective(s));
                }
            }
        }
    }
}
