//! Fault-event vocabulary.
//!
//! A [`FaultEvent`] says which unit faulted, when, and how many bits
//! changed. The simulator keeps per-[`FaultKind`] counters always and, once
//! [`Hardware::enable_event_log`](crate::Hardware::enable_event_log) is
//! called, every event in time order. This is the debugging facility the
//! paper's authors would have wanted when an annotated application
//! misbehaves: it answers "*which* approximation bit me?" without rerunning
//! under a different mask.
//!
//! The event log is off by default and costs nothing when disabled.

use std::fmt;

/// Which fault model injected the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// SRAM read upset (bit flipped while being read).
    SramReadUpset,
    /// SRAM write failure (wrong bit stored).
    SramWriteFailure,
    /// DRAM refresh decay.
    DramDecay,
    /// Functional-unit timing error (integer unit).
    IntTiming,
    /// Functional-unit timing error (floating-point unit).
    FpTiming,
}

impl FaultKind {
    /// Every fault kind, in a fixed order (the index order of
    /// [`FaultKind::index`], used by telemetry counters and reports).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::SramReadUpset,
        FaultKind::SramWriteFailure,
        FaultKind::DramDecay,
        FaultKind::IntTiming,
        FaultKind::FpTiming,
    ];

    /// This kind's position in [`FaultKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultKind::SramReadUpset => 0,
            FaultKind::SramWriteFailure => 1,
            FaultKind::DramDecay => 2,
            FaultKind::IntTiming => 3,
            FaultKind::FpTiming => 4,
        }
    }

    /// The kind's name: its [`Display`](fmt::Display) rendering and the
    /// `unit` of a fault-log line.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SramReadUpset => "sram-read-upset",
            FaultKind::SramWriteFailure => "sram-write-failure",
            FaultKind::DramDecay => "dram-decay",
            FaultKind::IntTiming => "int-timing",
            FaultKind::FpTiming => "fp-timing",
        }
    }

    /// Parses a [`name`](FaultKind::name) back into a kind.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The injecting model.
    pub kind: FaultKind,
    /// Simulated time of injection, in seconds.
    pub time: f64,
    /// Bit width of the affected value.
    pub width: u32,
    /// Number of bits that changed — the real Hamming distance between the
    /// correct and observed values within `width` bits, for every fault
    /// model (value-replacement models included; a replacement that happens
    /// to reproduce the raw value counts as 0 flipped bits).
    pub bits_flipped: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_the_display_and_parse_back() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.name(), kind.to_string());
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("warp-core"), None);
    }
}
