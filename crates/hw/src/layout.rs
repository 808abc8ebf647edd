//! Cache-line-granularity layout of approximate data (section 4.1).
//!
//! The proposed hardware marks whole cache lines as approximate or precise.
//! The runtime therefore has to segregate data: an object's precise fields
//! (and its vtable pointer) are laid out first, and every line containing at
//! least one precise byte must be kept precise. Approximate fields are
//! appended; those that land in the last precise line get no energy savings,
//! and only the remainder is stored in approximate lines. For arrays of
//! approximate primitives the first line (length and type information) is
//! precise and all remaining lines are approximate.
//!
//! This module computes how many bytes of a given object or array actually
//! end up approximable, which feeds both the DRAM byte-second accounting and
//! the layout ablation benchmark.

/// A field in an object layout request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name (for diagnostics only).
    pub name: &'static str,
    /// Size in bytes.
    pub size: usize,
    /// Whether the field has approximate type.
    pub approx: bool,
}

impl FieldSpec {
    /// Convenience constructor.
    pub fn new(name: &'static str, size: usize, approx: bool) -> Self {
        FieldSpec { name, size, approx }
    }
}

/// Result of laying out an object or array onto cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Layout {
    /// Bytes of precise data (including headers and padding counted against
    /// precise lines).
    pub precise_bytes: usize,
    /// Bytes of approximate data that ended up on precise lines and thus
    /// save no memory energy (but are still approximate when operated on).
    pub approx_bytes_on_precise_lines: usize,
    /// Bytes of approximate data stored on approximate lines.
    pub approx_bytes_on_approx_lines: usize,
    /// Total cache lines occupied.
    pub lines: usize,
}

impl Layout {
    /// Total bytes accounted (data only, not line padding).
    pub fn total_bytes(&self) -> usize {
        self.precise_bytes + self.approx_bytes_on_precise_lines + self.approx_bytes_on_approx_lines
    }

    /// Fraction of the object's bytes that enjoy approximate storage.
    pub fn approx_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.approx_bytes_on_approx_lines as f64 / total as f64
        }
    }
}

/// Default object header size: one vtable pointer, as in the paper's scheme.
pub(crate) const OBJECT_HEADER_BYTES: usize = 8;

/// Default array header size: length plus type information.
pub const ARRAY_HEADER_BYTES: usize = 16;

/// Default cache line size used throughout the evaluation (section 4.1).
pub const DEFAULT_LINE_SIZE: usize = 64;

/// Lays out an object's fields onto cache lines of `line_size` bytes.
///
/// Precise fields (preceded by a `header_bytes` header, which is always
/// precise) are placed contiguously first, then approximate fields. Any
/// approximate bytes sharing a line with precise data remain in precise
/// storage, per the paper's scheme: "wasting space in the precise line in
/// order to place the data in an approximate line would use more memory and
/// thus more energy."
///
/// # Panics
///
/// Panics if `line_size` is zero.
///
/// # Examples
///
/// ```
/// use enerj_hw::layout::{layout_object, FieldSpec};
///
/// // An object with one precise word and a large approximate payload.
/// let fields = [
///     FieldSpec::new("id", 8, false),
///     FieldSpec::new("pixels", 256, true),
/// ];
/// // An 8-byte header: one vtable pointer.
/// let l = layout_object(&fields, 64, 8);
/// // Header + id occupy the first (precise) line; 48 approximate bytes share
/// // it, and the remaining 208 land on approximate lines.
/// assert_eq!(l.approx_bytes_on_approx_lines, 208);
/// ```
pub fn layout_object(fields: &[FieldSpec], line_size: usize, header_bytes: usize) -> Layout {
    assert!(line_size > 0, "cache line size must be positive");
    let precise_data: usize =
        header_bytes + fields.iter().filter(|f| !f.approx).map(|f| f.size).sum::<usize>();
    let approx_data: usize = fields.iter().filter(|f| f.approx).map(|f| f.size).sum();
    split_after_precise_prefix(precise_data, approx_data, line_size)
}

/// Lays out an array of `len` elements of `elem_size` bytes.
///
/// The header line(s) are precise. If `elem_approx` is false the whole array
/// is precise; otherwise element bytes sharing the last header line stay
/// precise and the rest are approximate.
///
/// # Panics
///
/// Panics if `line_size` is zero.
pub fn layout_array(
    elem_size: usize,
    len: usize,
    elem_approx: bool,
    line_size: usize,
    header_bytes: usize,
) -> Layout {
    assert!(line_size > 0, "cache line size must be positive");
    let data = elem_size * len;
    if elem_approx {
        split_after_precise_prefix(header_bytes, data, line_size)
    } else {
        let total = header_bytes + data;
        Layout {
            precise_bytes: total,
            approx_bytes_on_precise_lines: 0,
            approx_bytes_on_approx_lines: 0,
            lines: total.div_ceil(line_size).max(1),
        }
    }
}

/// Core of both layouts: `precise` bytes followed by `approx` bytes; the
/// line containing the precise/approximate boundary is precise.
fn split_after_precise_prefix(precise: usize, approx: usize, line_size: usize) -> Layout {
    let total = precise + approx;
    let lines = total.div_ceil(line_size).max(1);
    if approx == 0 {
        return Layout {
            precise_bytes: precise,
            approx_bytes_on_precise_lines: 0,
            approx_bytes_on_approx_lines: 0,
            lines,
        };
    }
    // First line boundary at or after the end of the precise prefix.
    let boundary = precise.div_ceil(line_size) * line_size;
    let shared = boundary.saturating_sub(precise).min(approx);
    Layout {
        precise_bytes: precise,
        approx_bytes_on_precise_lines: shared,
        approx_bytes_on_approx_lines: approx - shared,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_precise_object() {
        let fields = [FieldSpec::new("a", 8, false), FieldSpec::new("b", 8, false)];
        let l = layout_object(&fields, 64, OBJECT_HEADER_BYTES);
        assert_eq!(l.precise_bytes, 24);
        assert_eq!(l.approx_bytes_on_approx_lines, 0);
        assert_eq!(l.lines, 1);
        assert_eq!(l.approx_fraction(), 0.0);
    }

    #[test]
    fn small_approx_fields_stay_on_precise_line() {
        // Header (8) + 8 precise + 16 approx = 32 bytes, all on one 64-byte
        // line, so the approximate fields save nothing.
        let fields = [FieldSpec::new("p", 8, false), FieldSpec::new("a", 16, true)];
        let l = layout_object(&fields, 64, OBJECT_HEADER_BYTES);
        assert_eq!(l.approx_bytes_on_precise_lines, 16);
        assert_eq!(l.approx_bytes_on_approx_lines, 0);
    }

    #[test]
    fn large_approx_payload_spills_to_approx_lines() {
        let fields = [FieldSpec::new("p", 8, false), FieldSpec::new("a", 256, true)];
        let l = layout_object(&fields, 64, OBJECT_HEADER_BYTES);
        // Precise prefix 16 bytes; boundary at 64; 48 approx bytes shared.
        assert_eq!(l.approx_bytes_on_precise_lines, 48);
        assert_eq!(l.approx_bytes_on_approx_lines, 208);
        assert_eq!(l.total_bytes(), 272);
        assert_eq!(l.lines, 5);
    }

    #[test]
    fn approx_exactly_at_line_boundary_shares_nothing() {
        // 64 precise bytes end exactly at the boundary: no sharing.
        let fields = [FieldSpec::new("p", 56, false), FieldSpec::new("a", 64, true)];
        let l = layout_object(&fields, 64, OBJECT_HEADER_BYTES);
        assert_eq!(l.precise_bytes, 64);
        assert_eq!(l.approx_bytes_on_precise_lines, 0);
        assert_eq!(l.approx_bytes_on_approx_lines, 64);
    }

    #[test]
    fn array_first_line_precise_rest_approx() {
        let l = layout_array(8, 100, true, 64, ARRAY_HEADER_BYTES);
        // 16-byte header; 48 element bytes share line 0; 752 approx.
        assert_eq!(l.precise_bytes, 16);
        assert_eq!(l.approx_bytes_on_precise_lines, 48);
        assert_eq!(l.approx_bytes_on_approx_lines, 752);
    }

    #[test]
    fn precise_array_is_all_precise() {
        let l = layout_array(8, 100, false, 64, ARRAY_HEADER_BYTES);
        assert_eq!(l.precise_bytes, 816);
        assert_eq!(l.approx_fraction(), 0.0);
    }

    #[test]
    fn finer_lines_increase_approx_fraction() {
        let coarse = layout_array(4, 64, true, 128, ARRAY_HEADER_BYTES);
        let fine = layout_array(4, 64, true, 16, ARRAY_HEADER_BYTES);
        assert!(fine.approx_fraction() >= coarse.approx_fraction());
    }

    #[test]
    fn empty_array_occupies_header_line() {
        let l = layout_array(8, 0, true, 64, ARRAY_HEADER_BYTES);
        assert_eq!(l.lines, 1);
        assert_eq!(l.approx_bytes_on_approx_lines, 0);
    }

    #[test]
    #[should_panic(expected = "cache line size")]
    fn zero_line_size_rejected() {
        let _ = layout_array(8, 8, true, 0, ARRAY_HEADER_BYTES);
    }

    #[test]
    fn byte_conservation() {
        for &(p, a) in &[(0usize, 0usize), (1, 1), (13, 200), (64, 64), (100, 3)] {
            let fields = [FieldSpec::new("p", p, false), FieldSpec::new("a", a, true)];
            let l = layout_object(&fields, 64, 0);
            assert_eq!(l.total_bytes(), p + a);
        }
    }
}
