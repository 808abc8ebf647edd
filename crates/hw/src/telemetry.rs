//! Always-on fault telemetry: per-unit injection and bit-flip counters.
//!
//! The paper's central empirical claim is statistical — QoS degradation
//! under stochastic fault injection — so a misbehaving trial must be
//! attributable to a fault *source*, not just a scalar error. This module
//! keeps O(1)-per-event counters of every injected fault, split by
//! [`FaultKind`]: how many injections each unit performed and how many bits
//! they flipped in total. The counters are always on (they cost two integer
//! additions per fault and nothing per non-faulting operation), never touch
//! the fault PRNG, and therefore cannot perturb simulation results.
//!
//! The opt-in event *log* (an unbounded [`FaultEvent`](crate::trace::FaultEvent) stream, exported as
//! NDJSON by the campaign runner) lives on [`Hardware`](crate::Hardware);
//! this module only defines the cheap summary layer.

use crate::trace::FaultKind;
use std::fmt;

/// Counters for one fault kind: injections and total bits flipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCount {
    /// Number of fault injections by this kind's model.
    pub injections: u64,
    /// Total Hamming distance introduced by those injections (a
    /// value-replacement fault that happens to reproduce the raw value
    /// contributes an injection with zero flipped bits).
    pub bits_flipped: u64,
}

/// Per-[`FaultKind`] fault counters for one simulation run.
///
/// # Examples
///
/// ```
/// use enerj_hw::telemetry::FaultCounters;
/// use enerj_hw::trace::FaultKind;
///
/// let mut c = FaultCounters::new();
/// c.record(FaultKind::SramReadUpset, 3);
/// c.record(FaultKind::SramReadUpset, 1);
/// assert_eq!(c.count(FaultKind::SramReadUpset).injections, 2);
/// assert_eq!(c.count(FaultKind::SramReadUpset).bits_flipped, 4);
/// assert_eq!(c.total_injections(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    counts: [KindCount; FaultKind::ALL.len()],
}

impl FaultCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        FaultCounters::default()
    }

    /// A counter set holding `counts`, in [`FaultKind::ALL`] order: the
    /// inverse of [`per_kind`](Self::per_kind).
    pub fn from_counts(counts: [KindCount; FaultKind::ALL.len()]) -> Self {
        FaultCounters { counts }
    }

    /// Records one injection of `kind` that flipped `bits_flipped` bits.
    #[inline]
    pub fn record(&mut self, kind: FaultKind, bits_flipped: u32) {
        let c = &mut self.counts[kind.index()];
        c.injections += 1;
        c.bits_flipped += u64::from(bits_flipped);
    }

    /// The counters for one kind.
    pub fn count(&self, kind: FaultKind) -> KindCount {
        self.counts[kind.index()]
    }

    /// Total injections across all kinds.
    pub fn total_injections(&self) -> u64 {
        self.counts.iter().map(|c| c.injections).sum()
    }

    /// Total bits flipped across all kinds.
    pub fn total_bits_flipped(&self) -> u64 {
        self.counts.iter().map(|c| c.bits_flipped).sum()
    }

    /// Whether no fault has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| c.injections == 0)
    }

    /// Iterates `(kind, count)` pairs in [`FaultKind::ALL`] order.
    pub fn per_kind(&self) -> impl Iterator<Item = (FaultKind, KindCount)> + '_ {
        FaultKind::ALL.iter().map(move |&k| (k, self.counts[k.index()]))
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            mine.injections += theirs.injections;
            mine.bits_flipped += theirs.bits_flipped;
        }
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, c) in self.per_kind() {
            if c.injections == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{kind}: {} ({} bits)", c.injections, c.bits_flipped)?;
            first = false;
        }
        if first {
            write!(f, "no faults")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_merges_per_kind() {
        let mut a = FaultCounters::new();
        assert!(a.is_empty());
        a.record(FaultKind::IntTiming, 0);
        a.record(FaultKind::IntTiming, 7);
        a.record(FaultKind::DramDecay, 2);
        let mut b = FaultCounters::new();
        b.record(FaultKind::IntTiming, 1);
        a.merge(&b);
        assert_eq!(a.count(FaultKind::IntTiming), KindCount { injections: 3, bits_flipped: 8 });
        assert_eq!(a.count(FaultKind::DramDecay), KindCount { injections: 1, bits_flipped: 2 });
        assert_eq!(a.count(FaultKind::FpTiming), KindCount::default());
        assert_eq!(a.total_injections(), 4);
        assert_eq!(a.total_bits_flipped(), 10);
        assert!(!a.is_empty());
    }

    #[test]
    fn per_kind_iterates_in_all_order() {
        let mut c = FaultCounters::new();
        c.record(FaultKind::FpTiming, 1);
        let kinds: Vec<FaultKind> = c.per_kind().map(|(k, _)| k).collect();
        assert_eq!(kinds, FaultKind::ALL);
    }

    #[test]
    fn display_summarizes_nonzero_kinds() {
        let mut c = FaultCounters::new();
        assert_eq!(c.to_string(), "no faults");
        c.record(FaultKind::SramWriteFailure, 2);
        c.record(FaultKind::SramWriteFailure, 1);
        assert_eq!(c.to_string(), "sram-write-failure: 2 (3 bits)");
    }
}
