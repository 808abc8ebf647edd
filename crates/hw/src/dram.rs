//! Approximate DRAM: main memory under reduced refresh rate (section 4.2,
//! "DRAM refresh rate").
//!
//! Following Liu et al.'s Flikker (cited in the paper), lines holding
//! approximate data are refreshed at 1 Hz instead of the usual rate; a cell
//! then flips with a per-second, per-bit probability (Table 2). Each bit's
//! decay clock starts at its last access — any read or write of an element
//! effectively refreshes it.
//!
//! [`DramArray`] is the storage substrate for approximate heap arrays. It
//! honours the cache-line layout of section 4.1: the header line(s) are
//! precise, so the first few elements of an approximate array may land in
//! precise storage and neither decay nor save energy.

use crate::fault;
use crate::layout::{self, FieldSpec, Layout};
use crate::quanta::EnergyQuanta;
use crate::stats::MemKind;
use crate::Hardware;

impl Hardware {
    /// Per-bit decay hazard (`-ln(1-p)`) for a refresh gap of `dt_ticks`
    /// op-ticks, memoized on the most recent distinct gap. Application
    /// loops touch elements with a near-constant per-iteration stride, so
    /// the last-value cache hits almost always and the steady-state cost is
    /// one integer compare instead of `exp()` + `ln()` per read.
    fn dram_hazard(&mut self, dt_ticks: u64) -> f64 {
        if self.decay_cache.0 != dt_ticks {
            let dt = dt_ticks as f64 * self.hot.seconds_per_op;
            let p = fault::decay_probability(self.hot.dram_rate, dt);
            self.decay_cache = (dt_ticks, fault::hazard(p));
        }
        self.decay_cache.1
    }

    /// Applies refresh decay to `width` bits last refreshed `dt_ticks` ago,
    /// via the amortized hazard countdown. Returns the observed pattern and
    /// records a fault if any bit flipped.
    #[inline]
    fn dram_decay(&mut self, bits: u64, width: u32, dt_ticks: u64) -> u64 {
        if self.hot.dram_rate <= 0.0 || dt_ticks == 0 {
            return bits;
        }
        let h = self.dram_hazard(dt_ticks);
        if h <= 0.0 || self.sched.dram.pass(f64::from(width) * h) {
            return bits;
        }
        self.dram_decay_fault(bits, width, h)
    }

    /// [`Hardware::dram_decay`] over a run of elements sharing one refresh
    /// gap: the rate/gap guards, the hazard lookup and the exposure
    /// multiply are hoisted out of the loop, which then consumes the
    /// hazard countdown element by element exactly as a scalar
    /// `dram_decay` sequence would — the same f64 subtractions in the same
    /// order, the same RNG stream when a fault fires — so the observed
    /// patterns are bit-identical to per-element calls.
    fn dram_decay_run(&mut self, words: &mut [u64], width: u32, dt_ticks: u64) {
        if self.hot.dram_rate <= 0.0 || dt_ticks == 0 {
            return;
        }
        let h = self.dram_hazard(dt_ticks);
        if h <= 0.0 {
            return;
        }
        let exposure = f64::from(width) * h;
        for w in words.iter_mut() {
            if !self.sched.dram.pass(exposure) {
                *w = self.dram_decay_fault(*w, width, h);
            }
        }
    }

    /// Fault payload of a decay event; out of line so the fault-free read
    /// carries none of the bit-walking machinery.
    #[cold]
    #[inline(never)]
    fn dram_decay_fault(&mut self, bits: u64, width: u32, h: f64) -> u64 {
        let out = self.sched.dram.flip_bits(bits, width, h, &mut self.rng);
        if out != bits {
            self.note_fault(crate::trace::FaultKind::DramDecay, width, (out ^ bits).count_ones());
        }
        out
    }
}

/// A simulated DRAM-resident array of fixed-width elements.
///
/// Elements are bit patterns of `elem_width` bits (at most 64). Approximate
/// arrays decay over simulated time; precise arrays are reliable. Storage
/// byte-seconds are accounted when the array is retired via
/// [`DramArray::retire`] (higher layers call this from their `Drop`).
///
/// # Examples
///
/// ```
/// use enerj_hw::config::{HwConfig, Level};
/// use enerj_hw::{DramArray, Hardware};
///
/// let mut hw = Hardware::new(HwConfig::for_level(Level::Medium), 1);
/// let mut arr = DramArray::new(&mut hw, 128, 32, true);
/// arr.write(&mut hw, 5, 0xCAFE);
/// let observed = arr.read(&mut hw, 5);
/// // Decay over microseconds at 1e-5/s per bit is overwhelmingly unlikely.
/// assert_eq!(observed, 0xCAFE);
/// arr.retire(&mut hw);
/// ```
#[derive(Debug, Clone)]
pub struct DramArray {
    words: Vec<u64>,
    /// Op-tick of each element's last access (its refresh point). Integer
    /// ticks make the refresh gap an exact integer, which is what the
    /// memoized decay lookup keys on.
    last_access: Vec<u64>,
    elem_width: u32,
    approx: bool,
    alloc_tick: u64,
    layout: Layout,
    /// Index of the first element stored on an approximate line.
    first_approx_elem: usize,
    retired: bool,
}

impl DramArray {
    /// Allocates an array of `len` elements of `elem_width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `elem_width` is zero, exceeds 64, or is not a multiple of 8.
    pub fn new(hw: &mut Hardware, len: usize, elem_width: u32, approx: bool) -> Self {
        assert!(
            (8..=64).contains(&elem_width) && elem_width.is_multiple_of(8),
            "element width {elem_width} must be a multiple of 8 in 8..=64"
        );
        let elem_bytes = (elem_width / 8) as usize;
        let l = layout::layout_array(
            elem_bytes,
            len,
            approx,
            layout::DEFAULT_LINE_SIZE,
            layout::ARRAY_HEADER_BYTES,
        );
        let first_approx_elem =
            if approx { l.approx_bytes_on_precise_lines.div_ceil(elem_bytes.max(1)) } else { len };
        let now = hw.op_ticks();
        DramArray {
            words: vec![0; len],
            last_access: vec![now; len],
            elem_width,
            approx,
            alloc_tick: now,
            layout: l,
            first_approx_elem,
            retired: false,
        }
    }

    /// Number of elements. Array lengths are always precise (section 2.6).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Element width in bits.
    pub fn elem_width(&self) -> u32 {
        self.elem_width
    }

    /// The cache-line layout computed at allocation.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Index of the first element whose storage is approximate. Elements
    /// below this index share precise cache lines with the header (§4.1)
    /// and never decay; for precise arrays this is `len()`.
    pub fn first_approx_elem(&self) -> usize {
        self.first_approx_elem
    }

    /// Reads element `i`, applying refresh decay if it lives on an
    /// approximate line. The read refreshes the element.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds — array indices must be precise, and
    /// bounds are always enforced (section 2.6).
    pub fn read(&mut self, hw: &mut Hardware, i: usize) -> u64 {
        hw.tick();
        let now = hw.op_ticks();
        let stored = self.words[i];
        let out = if self.approx && i >= self.first_approx_elem {
            hw.dram_decay(stored, self.elem_width, now - self.last_access[i])
        } else {
            stored
        };
        self.words[i] = out;
        self.last_access[i] = now;
        out
    }

    /// Writes element `i`, refreshing its decay clock. DRAM writes store
    /// reliably; transient corruption enters via the SRAM and FU models.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn write(&mut self, hw: &mut Hardware, i: usize, bits: u64) {
        hw.tick();
        self.words[i] = bits & fault::low_mask(self.elem_width);
        self.last_access[i] = hw.op_ticks();
    }

    /// Batched [`DramArray::read`]: reads `out.len()` consecutive elements
    /// starting at `start` into `out`, applying refresh decay per element.
    ///
    /// The clock advances by the batch length in one addition, but each
    /// element's refresh point is reconstructed by index (element `j` reads
    /// at tick `base + j + 1`), so decay exposure, the hazard countdown walk
    /// and the RNG stream are bit-identical to a scalar `read` loop. The
    /// amortization is in the borrow, bounds and accounting overhead — and
    /// in decay dispatch: elements whose refresh gaps are equal (the common
    /// case, when the slice was last touched by another slice op, which
    /// stamps consecutive ticks) are handed to `Hardware::dram_decay_run`
    /// as one maximal run, hoisting the per-read guards, hazard lookup and
    /// exposure multiply while keeping the per-element countdown walk. The
    /// fault model is untouched either way.
    ///
    /// # Panics
    ///
    /// Panics if `start + out.len()` exceeds the array length.
    pub fn read_slice(&mut self, hw: &mut Hardware, start: usize, out: &mut [u64]) {
        let base = hw.op_ticks();
        hw.tick_batch(out.len() as u64);
        let n = out.len();
        let mut j = 0;
        while j < n {
            let i = start + j;
            let now = base + j as u64 + 1;
            if !(self.approx && i >= self.first_approx_elem) {
                // Precise storage: no decay, just the refresh stamp.
                out[j] = self.words[i];
                self.last_access[i] = now;
                j += 1;
                continue;
            }
            // Maximal run of equal refresh gaps: element `j + k` reads at
            // tick `now + k`, so its gap equals `dt` iff its last access
            // was exactly `k` ticks after element `j`'s.
            let dt = now - self.last_access[i];
            let mut end = j + 1;
            while end < n
                && base + end as u64 + 1 >= self.last_access[start + end]
                && base + end as u64 + 1 - self.last_access[start + end] == dt
            {
                end += 1;
            }
            hw.dram_decay_run(&mut self.words[start + j..start + end], self.elem_width, dt);
            for (k, slot) in out.iter_mut().enumerate().take(end).skip(j) {
                self.last_access[start + k] = base + k as u64 + 1;
                *slot = self.words[start + k];
            }
            j = end;
        }
    }

    /// Batched [`DramArray::write`]: stores `vals` into consecutive elements
    /// starting at `start`, refreshing their decay clocks. Bit-identical to
    /// a scalar `write` loop (element `j` refreshes at tick `base + j + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `start + vals.len()` exceeds the array length.
    pub fn write_slice(&mut self, hw: &mut Hardware, start: usize, vals: &[u64]) {
        let base = hw.op_ticks();
        hw.tick_batch(vals.len() as u64);
        let mask = fault::low_mask(self.elem_width);
        for (j, &v) in vals.iter().enumerate() {
            let i = start + j;
            self.words[i] = v & mask;
            self.last_access[i] = base + j as u64 + 1;
        }
    }

    /// Accounts this array's storage quanta and marks it retired.
    ///
    /// Idempotent: a second call does nothing. Higher layers call this from
    /// `Drop`; benchmarks may call it eagerly before reading statistics.
    /// The charge is an exact widening multiply of bits held by op-ticks
    /// held — no floats, so retire order cannot perturb the totals.
    pub fn retire(&mut self, hw: &mut Hardware) {
        if self.retired {
            return;
        }
        self.retired = true;
        let held_ticks = hw.op_ticks() - self.alloc_tick;
        let precise_bits =
            8 * (self.layout.precise_bytes + self.layout.approx_bytes_on_precise_lines) as u64;
        let approx_bits = 8 * self.layout.approx_bytes_on_approx_lines as u64;
        let stats = hw.stats_mut();
        stats.record_storage_quanta(
            MemKind::Dram,
            false,
            EnergyQuanta::from_bits_quanta(precise_bits, held_ticks),
        );
        stats.record_storage_quanta(
            MemKind::Dram,
            true,
            EnergyQuanta::from_bits_quanta(approx_bits, held_ticks),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HwConfig, Level};
    use crate::stats::MemKind;

    fn hw(level: Level) -> Hardware {
        Hardware::new(HwConfig::for_level(level), 11)
    }

    #[test]
    fn write_then_read_roundtrips_without_decay_time() {
        let mut hw = hw(Level::Aggressive);
        let mut arr = DramArray::new(&mut hw, 64, 64, true);
        for i in 0..64 {
            arr.write(&mut hw, i, i as u64 * 0x0101_0101);
        }
        for i in 0..64 {
            // dt is microseconds; p ~ 1e-9 per bit: reads are clean.
            assert_eq!(arr.read(&mut hw, i), i as u64 * 0x0101_0101);
        }
    }

    #[test]
    fn long_idle_time_decays_aggressive_data() {
        let mut hw = hw(Level::Aggressive);
        let mut arr = DramArray::new(&mut hw, 1024, 64, true);
        for i in 0..1024 {
            arr.write(&mut hw, i, u64::MAX);
        }
        // Simulate 100 seconds of idleness: p = 1 - exp(-0.1) ~ 0.095.
        for _ in 0..100_000_000 / 1000 {
            // Cheaper: advance clock directly through many ticks is slow;
            // use a run of precise ops to advance time.
            hw.precise_op(crate::stats::OpKind::Int);
        }
        // 1e5 ops * 1e-6 s = 0.1 s. Not enough; crank the decay rate instead
        // by reading after constructing a high-rate config.
        let mut cfg = *hw.config();
        cfg.params.dram_flip_per_second = 1.0;
        let mut hw2 = Hardware::new(cfg, 3);
        let mut arr2 = DramArray::new(&mut hw2, 1024, 64, true);
        for i in 0..1024 {
            arr2.write(&mut hw2, i, u64::MAX);
        }
        // Advance ~2 simulated seconds.
        for _ in 0..2_000_000 / 1000 {
            for _ in 0..1000 {
                hw2.precise_op(crate::stats::OpKind::Int);
            }
        }
        let mut flipped = 0u32;
        for i in 0..1024 {
            flipped += (!arr2.read(&mut hw2, i)).count_ones();
        }
        // Decay probability saturates at 0.5 per bit, so of the ~65k bits on
        // approximate lines roughly half should have flipped.
        assert!(flipped > 25_000, "flipped = {flipped}");
        let _ = arr; // silence unused in the first phase
    }

    #[test]
    fn header_line_elements_do_not_decay() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.dram_flip_per_second = 1e6; // instant decay for anything eligible
        let mut hw = Hardware::new(cfg, 7);
        let mut arr = DramArray::new(&mut hw, 256, 32, true);
        // Element 0 shares the header's precise line (header 16B, line 64B,
        // so elements 0..12 are precise for 4-byte elements).
        arr.write(&mut hw, 0, 0xDEAD);
        for _ in 0..1000 {
            hw.precise_op(crate::stats::OpKind::Int);
        }
        assert_eq!(arr.read(&mut hw, 0), 0xDEAD);
        // A later element decays to noise under the same idle time.
        arr.write(&mut hw, 200, 0xFFFF_FFFF);
        for _ in 0..1_000_000 / 100 {
            for _ in 0..100 {
                hw.precise_op(crate::stats::OpKind::Int);
            }
        }
        let v = arr.read(&mut hw, 200);
        assert_ne!(v, 0xFFFF_FFFF, "element on approximate line should decay");
    }

    #[test]
    fn precise_array_never_decays() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.dram_flip_per_second = 1e6;
        let mut hw = Hardware::new(cfg, 7);
        let mut arr = DramArray::new(&mut hw, 64, 64, false);
        arr.write(&mut hw, 32, 0x1234_5678_9ABC_DEF0);
        for _ in 0..10_000 {
            hw.precise_op(crate::stats::OpKind::Int);
        }
        assert_eq!(arr.read(&mut hw, 32), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn retire_accounts_byte_seconds_once() {
        let mut hw = hw(Level::Medium);
        let mut arr = DramArray::new(&mut hw, 1000, 64, true);
        for _ in 0..1000 {
            hw.precise_op(crate::stats::OpKind::Int);
        }
        arr.retire(&mut hw);
        let after_first = hw.stats();
        arr.retire(&mut hw);
        assert_eq!(after_first, hw.stats(), "retire must be idempotent");
        assert!(after_first.dram_approx_quanta > EnergyQuanta::ZERO);
        assert!(after_first.dram_precise_quanta > EnergyQuanta::ZERO); // header line
        let frac = after_first.approx_storage_fraction(MemKind::Dram);
        assert!(frac > 0.95, "8000-byte array should be almost all approximate");
    }

    #[test]
    fn writes_mask_to_element_width() {
        let mut hw = hw(Level::Mild);
        let mut arr = DramArray::new(&mut hw, 4, 16, true);
        arr.write(&mut hw, 0, 0xABCDEF);
        assert_eq!(arr.read(&mut hw, 0), 0xCDEF);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut hw = hw(Level::Mild);
        let mut arr = DramArray::new(&mut hw, 4, 32, true);
        let _ = arr.read(&mut hw, 4);
    }

    #[test]
    #[should_panic(expected = "element width")]
    fn bad_element_width_rejected() {
        let mut hw = hw(Level::Mild);
        let _ = DramArray::new(&mut hw, 4, 12, true);
    }
}

/// A simulated DRAM-resident object with mixed precise and approximate
/// fields, laid out per section 4.1: header and precise fields first, then
/// approximate fields, with any approximate field that shares a cache line
/// with precise data *effectively precise* (it neither decays nor saves
/// memory energy — but is still approximate when operated on).
///
/// Each field occupies one 64-bit slot; the layout arithmetic uses the
/// declared byte sizes.
#[derive(Debug, Clone)]
pub struct DramRecord {
    words: Vec<u64>,
    /// Op-tick of each field's last access (its refresh point).
    last_access: Vec<u64>,
    widths: Vec<u32>,
    /// Whether each field's *storage* is approximate after layout.
    effective_approx: Vec<bool>,
    layout: Layout,
    alloc_tick: u64,
    retired: bool,
}

impl DramRecord {
    /// Lays out and allocates a record. Returns the record; query
    /// [`DramRecord::field_storage_approx`] for the per-field outcome.
    ///
    /// # Panics
    ///
    /// Panics if any field size is zero or exceeds 8 bytes.
    pub fn new(hw: &mut Hardware, fields: &[FieldSpec]) -> Self {
        for f in fields {
            assert!(
                f.size >= 1 && f.size <= 8,
                "field `{}` has unsupported size {}",
                f.name,
                f.size
            );
        }
        let line = layout::DEFAULT_LINE_SIZE;
        let l = layout::layout_object(fields, line, layout::OBJECT_HEADER_BYTES);
        // Precise prefix: header plus every precise field; the first line
        // boundary at or after it separates precise from approximate
        // storage.
        let precise_total: usize = layout::OBJECT_HEADER_BYTES
            + fields.iter().filter(|f| !f.approx).map(|f| f.size).sum::<usize>();
        let boundary = precise_total.div_ceil(line) * line;
        let mut offset = precise_total;
        let mut effective_approx = Vec::with_capacity(fields.len());
        for f in fields {
            if f.approx {
                effective_approx.push(offset >= boundary);
                offset += f.size;
            } else {
                effective_approx.push(false);
            }
        }
        let now = hw.op_ticks();
        DramRecord {
            words: vec![0; fields.len()],
            last_access: vec![now; fields.len()],
            widths: fields.iter().map(|f| (f.size * 8) as u32).collect(),
            effective_approx,
            layout: l,
            alloc_tick: now,
            retired: false,
        }
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.words.len()
    }

    /// Whether field `i`'s storage ended up approximate after layout.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn field_storage_approx(&self, i: usize) -> bool {
        self.effective_approx[i]
    }

    /// The computed cache-line layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Reads field `i`, applying refresh decay if its storage is
    /// approximate; the read refreshes the field.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn read(&mut self, hw: &mut Hardware, i: usize) -> u64 {
        hw.tick();
        let now = hw.op_ticks();
        let stored = self.words[i];
        let out = if self.effective_approx[i] {
            hw.dram_decay(stored, self.widths[i], now - self.last_access[i])
        } else {
            stored
        };
        self.words[i] = out;
        self.last_access[i] = now;
        out
    }

    /// Writes field `i`, refreshing its decay clock.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn write(&mut self, hw: &mut Hardware, i: usize, bits: u64) {
        hw.tick();
        self.words[i] = bits & fault::low_mask(self.widths[i]);
        self.last_access[i] = hw.op_ticks();
    }

    /// Accounts the record's storage quanta once (exact integer charge,
    /// like [`DramArray::retire`]).
    pub fn retire(&mut self, hw: &mut Hardware) {
        if self.retired {
            return;
        }
        self.retired = true;
        let held_ticks = hw.op_ticks() - self.alloc_tick;
        let precise_bits =
            8 * (self.layout.precise_bytes + self.layout.approx_bytes_on_precise_lines) as u64;
        let approx_bits = 8 * self.layout.approx_bytes_on_approx_lines as u64;
        let stats = hw.stats_mut();
        stats.record_storage_quanta(
            MemKind::Dram,
            false,
            EnergyQuanta::from_bits_quanta(precise_bits, held_ticks),
        );
        stats.record_storage_quanta(
            MemKind::Dram,
            true,
            EnergyQuanta::from_bits_quanta(approx_bits, held_ticks),
        );
    }
}

#[cfg(test)]
mod record_tests {
    use super::*;
    use crate::config::{HwConfig, Level};
    use crate::layout::FieldSpec;

    fn hw() -> Hardware {
        Hardware::new(HwConfig::for_level(Level::Aggressive), 3)
    }

    #[test]
    fn small_approx_fields_share_the_precise_line() {
        let mut hw = hw();
        // Header 8 + 8 precise = 16 bytes; two approximate 8-byte fields
        // fit inside the first 64-byte line: no approximate storage.
        let fields = [
            FieldSpec::new("id", 8, false),
            FieldSpec::new("a", 8, true),
            FieldSpec::new("b", 8, true),
        ];
        let rec = DramRecord::new(&mut hw, &fields);
        assert!(!rec.field_storage_approx(0));
        assert!(!rec.field_storage_approx(1));
        assert!(!rec.field_storage_approx(2));
        assert_eq!(rec.layout().approx_bytes_on_approx_lines, 0);
    }

    #[test]
    fn approx_fields_beyond_the_boundary_get_approx_storage() {
        let mut hw = hw();
        // Header 8 + 8 precise = 16; 64-16 = 48 bytes shared; fields 1..6
        // (48 bytes) stay precise, the rest go approximate.
        let mut fields = vec![FieldSpec::new("id", 8, false)];
        for _ in 0..10 {
            fields.push(FieldSpec::new("a", 8, true));
        }
        let rec = DramRecord::new(&mut hw, &fields);
        let approx_count = (0..rec.field_count()).filter(|&i| rec.field_storage_approx(i)).count();
        assert_eq!(approx_count, 4, "10 approx fields, 6 absorbed by the precise line");
    }

    #[test]
    fn shared_line_fields_do_not_decay() {
        let mut cfg = HwConfig::for_level(Level::Aggressive);
        cfg.params.dram_flip_per_second = 1e6;
        let mut hw = Hardware::new(cfg, 1);
        let mut fields = vec![FieldSpec::new("id", 8, false)];
        for _ in 0..10 {
            fields.push(FieldSpec::new("a", 8, true));
        }
        let mut rec = DramRecord::new(&mut hw, &fields);
        rec.write(&mut hw, 1, 0xAAAA); // on the precise line
        rec.write(&mut hw, 10, 0xBBBB); // on an approximate line
        for _ in 0..10_000 {
            hw.precise_op(crate::stats::OpKind::Int);
        }
        assert_eq!(rec.read(&mut hw, 1), 0xAAAA, "shared-line field is reliable");
        assert_ne!(rec.read(&mut hw, 10), 0xBBBB, "approximate-line field decays");
    }

    #[test]
    fn retire_accounts_split_storage() {
        let mut hw = hw();
        let mut fields = vec![FieldSpec::new("id", 8, false)];
        for _ in 0..32 {
            fields.push(FieldSpec::new("a", 8, true));
        }
        let mut rec = DramRecord::new(&mut hw, &fields);
        for _ in 0..100 {
            hw.precise_op(crate::stats::OpKind::Int);
        }
        rec.retire(&mut hw);
        let s = hw.stats();
        assert!(s.dram_approx_quanta > EnergyQuanta::ZERO);
        assert!(s.dram_precise_quanta > EnergyQuanta::ZERO);
        rec.retire(&mut hw); // idempotent
        assert_eq!(s, hw.stats());
    }

    #[test]
    #[should_panic(expected = "unsupported size")]
    fn oversized_fields_rejected() {
        let mut hw = hw();
        let _ = DramRecord::new(&mut hw, &[FieldSpec::new("big", 16, true)]);
    }
}
