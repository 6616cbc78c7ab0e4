//! Hold masks — the sliding-window hazard-elimination mechanism.
//!
//! Paper §IV-D, Algorithm 1: every scratchpad slot carries a small bitmask.
//! Bit `k`, set when a mini-batch claims the slot at plan-cycle `c`,
//! means *"this slot is referenced by the batch whose \[Plan\] runs `k`
//! cycles from now (relative to claim time)"* and therefore protects the
//! slot from eviction through plan-cycle `c + k`. The \[Plan\] stage may
//! only evict slots whose mask is all-zero.
//!
//! # The mask is one number, written in unary
//!
//! \[Plan\] asks a mask two things: *is it all-zero* (may the slot be
//! evicted?) and *did this protection reach further than every earlier
//! one* (must a new expiry be queued?). Both are functions of the mask's
//! **highest set bit** alone. Call `h` the number of cycles until the mask
//! reads zero — the position of the highest set bit plus one, 0 for an
//! empty mask — and follow it through Algorithm 1's two operations:
//!
//! * setting bit `k` gives `h' = max(h, k + 1)`, whatever the lower bits;
//! * the per-cycle shift gives `h' = h - 1`, stopping at 0.
//!
//! So `h` evolves as a function of `h` only, and the bits below the top
//! one are never read. Stored as an absolute cycle, `clear_at = cycle +
//! h`, the shift disappears as well: advancing `cycle` by one *is* `h -
//! 1`, and "stopping at 0" is the comparison `clear_at <= cycle`. That is
//! all [`HoldMask`] keeps — one `u64` per slot:
//!
//! * [`NaiveHoldMask`] — the paper's Algorithm 1 verbatim: every plan cycle
//!   shifts **every** slot's mask right by one (`O(slots)` per cycle). It
//!   is the reference the tests and the `scratchpad` bench compare against.
//! * [`HoldMask`] — the horizon: `extend(slot, k)` is `clear_at =
//!   max(clear_at, cycle + k + 1)`, `is_clear` is `clear_at <= cycle`,
//!   `advance` is `cycle += 1`. The differential property test below steps
//!   both under arbitrary interleavings and checks, after every operation
//!   and for every slot, that they agree on `is_clear` and that
//!   `first_clear_cycle - cycle` equals the naive mask's `h`.

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
    #[cfg(test)]
    pub(crate) fn raw(&self, slot: u32) -> u32 {
        self.masks[slot as usize]
    }
}

/// The Hold mask as a per-slot protection horizon: O(1) `advance`, same
/// observable behavior as [`NaiveHoldMask`] (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldMask {
    /// First plan cycle at which each slot is evictable again.
    clear_at: Vec<u64>,
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
            clear_at: vec![0; slots],
            cycle: 0,
            width,
        }
    }

    /// Current plan cycle.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the window by one plan cycle — O(1).
    pub fn advance(&mut self) {
        self.cycle += 1;
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
    pub(crate) fn extend(&mut self, slot: u32, k: u32) -> Option<u64> {
        assert!(
            k < self.width,
            "bit {k} outside window width {}",
            self.width
        );
        let horizon = self.cycle + u64::from(k) + 1;
        let clear_at = &mut self.clear_at[slot as usize];
        (horizon > *clear_at).then(|| {
            *clear_at = horizon;
            horizon
        })
    }

    /// Starts loading `slot`'s horizon into the cache (see
    /// [`crate::index::prefetch`]).
    #[inline]
    pub(crate) fn prefetch(&self, slot: u32) {
        crate::index::prefetch(&self.clear_at[slot as usize]);
    }

    /// True if `slot` may be evicted (its horizon has passed).
    pub(crate) fn is_clear(&self, slot: u32) -> bool {
        self.clear_at[slot as usize] <= self.cycle
    }

    /// The first plan cycle at which `slot` becomes evictable, assuming no
    /// further protection — what the manager's expiry buckets are keyed by.
    #[cfg(test)]
    pub(crate) fn first_clear_cycle(&self, slot: u32) -> u64 {
        self.clear_at[slot as usize].max(self.cycle)
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
        assert_eq!(m.first_clear_cycle(0), m.cycle());
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
        /// Differential test: the horizon is observationally equivalent to
        /// the paper's Algorithm-1 global-shift masks under arbitrary
        /// interleavings of advances and bit-sets.
        #[test]
        fn horizon_equals_naive(ops in proptest::collection::vec(
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
                        "slot {} diverged (naive raw {:b}, horizon {})",
                        s, naive.raw(s), fast.first_clear_cycle(s)
                    );
                    proptest::prop_assert_eq!(
                        u64::from(32 - naive.raw(s).leading_zeros()),
                        fast.first_clear_cycle(s) - fast.cycle()
                    );
                }
            }
        }
    }
}
