//! Heap objects with mixed precise and approximate fields (section 4.1).
//!
//! EnerJ objects can mix `@Precise` and `@Approx` fields; the runtime lays
//! them out so that whole cache lines are either precise or approximate —
//! precise fields (and the vtable header) first, approximate fields after,
//! with approximate fields that share the last precise line getting *no*
//! storage savings (they are "effectively precise" at rest, though still
//! approximate when operated on).
//!
//! [`ApproxRecord`] is the embedded-API rendering: declare a
//! [`RecordSchema`] once, instantiate records under a
//! [`Runtime`](crate::Runtime), and read/write fields with the precision
//! the schema declares. The type system keeps the isolation guarantee:
//! approximate fields come back as [`Approx<T>`] and precise fields as
//! plain `T`.
//!
//! # Examples
//!
//! ```
//! use enerj_core::{endorse, Approx, ApproxRecord, RecordSchema, Runtime};
//! use enerj_hw::config::Level;
//!
//! // @Approximable class Particle { int id; @Approx double x, y; }
//! let schema = RecordSchema::builder("Particle")
//!     .precise_field::<i64>("id")
//!     .approx_field::<f64>("x")
//!     .approx_field::<f64>("y")
//!     .build();
//!
//! let rt = Runtime::new(Level::Mild, 0);
//! rt.run(|| {
//!     let mut p = ApproxRecord::new(&schema);
//!     p.set_precise("id", 7i64);
//!     p.set_approx("x", Approx::new(1.5f64));
//!     assert_eq!(p.get_precise::<i64>("id"), 7);
//!     let x: f64 = endorse(p.get_approx::<f64>("x"));
//!     assert!((x - 1.5).abs() < 0.01);
//! });
//! ```

use std::marker::PhantomData;
use std::rc::Rc;

use crate::approx::Approx;
use crate::prim::ApproxPrim;
use crate::runtime::{installed_home, Home};
use enerj_hw::dram::DramRecord;
use enerj_hw::layout::FieldSpec;

/// One declared field: name, precision, and primitive width.
#[derive(Debug, Clone)]
struct FieldDecl {
    name: &'static str,
    approx: bool,
    width: u32,
}

/// An immutable description of a record type's fields, in declaration
/// order. Build once with [`RecordSchema::builder`], share across
/// instances.
#[derive(Debug, Clone)]
pub struct RecordSchema {
    name: &'static str,
    fields: Vec<FieldDecl>,
}

/// Builder for [`RecordSchema`].
#[derive(Debug)]
pub struct RecordSchemaBuilder {
    name: &'static str,
    fields: Vec<FieldDecl>,
}

impl RecordSchema {
    /// Starts a schema for a record type called `name`.
    pub fn builder(name: &'static str) -> RecordSchemaBuilder {
        RecordSchemaBuilder { name, fields: Vec::new() }
    }

    fn index_of(&self, field: &str) -> usize {
        self.fields
            .iter()
            .position(|f| f.name == field)
            .unwrap_or_else(|| panic!("record `{}` has no field `{field}`", self.name))
    }

    fn specs(&self) -> Vec<FieldSpec> {
        self.fields
            .iter()
            .map(|f| FieldSpec::new(f.name, (f.width / 8).max(1) as usize, f.approx))
            .collect()
    }
}

impl RecordSchemaBuilder {
    /// Declares a precise field of primitive type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the name duplicates an earlier field.
    pub fn precise_field<T: ApproxPrim>(self, name: &'static str) -> Self {
        self.push(name, false, T::WIDTH)
    }

    /// Declares an approximate field of primitive type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the name duplicates an earlier field.
    pub fn approx_field<T: ApproxPrim>(self, name: &'static str) -> Self {
        self.push(name, true, T::WIDTH)
    }

    fn push(mut self, name: &'static str, approx: bool, width: u32) -> Self {
        assert!(
            self.fields.iter().all(|f| f.name != name),
            "duplicate field `{name}` on record `{}`",
            self.name
        );
        self.fields.push(FieldDecl { name, approx, width: width.max(8) });
        self
    }

    /// Finalizes the schema.
    pub fn build(self) -> RecordSchema {
        RecordSchema { name: self.name, fields: self.fields }
    }
}

/// A DRAM-resident record instance with the section 4.1 field layout.
#[derive(Debug)]
pub struct ApproxRecord {
    schema: RecordSchema,
    rec: DramRecord,
    home: Home,
    _not_send: PhantomData<Rc<()>>,
}

impl ApproxRecord {
    /// Allocates a zeroed record in simulated DRAM.
    ///
    /// # Panics
    ///
    /// Panics if no [`Runtime`](crate::Runtime) is installed.
    pub fn new(schema: &RecordSchema) -> Self {
        let home = installed_home("ApproxRecord");
        let rec = home.with(|hw| DramRecord::new(hw, &schema.specs()));
        ApproxRecord { schema: schema.clone(), rec, home, _not_send: PhantomData }
    }

    /// Whether `field`'s *storage* ended up on an approximate cache line
    /// (approximate fields absorbed by the last precise line are stored
    /// reliably and save no memory energy — the paper's layout rule).
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist.
    pub fn field_storage_approx(&self, field: &str) -> bool {
        self.rec.field_storage_approx(self.schema.index_of(field))
    }

    /// Reads an approximate field.
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist, is precise, or has a different
    /// primitive type.
    pub fn get_approx<T: ApproxPrim>(&mut self, field: &str) -> Approx<T> {
        let i = self.check::<T>(field, true);
        let bits = self.home.with(|hw| self.rec.read(hw, i));
        Approx::from_raw(T::from_bits64(bits))
    }

    /// Writes an approximate field.
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist, is precise, or has a different
    /// primitive type.
    pub fn set_approx<T: ApproxPrim>(&mut self, field: &str, value: Approx<T>) {
        let i = self.check::<T>(field, true);
        self.home.with(|hw| self.rec.write(hw, i, value.raw().to_bits64()));
    }

    /// Reads a precise field.
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist, is approximate, or has a
    /// different primitive type.
    pub fn get_precise<T: ApproxPrim>(&mut self, field: &str) -> T {
        let i = self.check::<T>(field, false);
        T::from_bits64(self.home.with(|hw| self.rec.read(hw, i)))
    }

    /// Writes a precise field.
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist, is approximate, or has a
    /// different primitive type.
    pub fn set_precise<T: ApproxPrim>(&mut self, field: &str, value: T) {
        let i = self.check::<T>(field, false);
        self.home.with(|hw| self.rec.write(hw, i, value.to_bits64()));
    }

    fn check<T: ApproxPrim>(&self, field: &str, want_approx: bool) -> usize {
        let i = self.schema.index_of(field);
        let decl = &self.schema.fields[i];
        assert_eq!(
            decl.approx,
            want_approx,
            "field `{}.{field}` is {}; use the matching accessor",
            self.schema.name,
            if decl.approx { "approximate" } else { "precise" }
        );
        assert_eq!(
            decl.width,
            T::WIDTH.max(8),
            "field `{}.{field}` has width {}, not {}",
            self.schema.name,
            decl.width,
            T::WIDTH
        );
        i
    }
}

impl Drop for ApproxRecord {
    fn drop(&mut self) {
        self.home.with(|hw| self.rec.retire(hw));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endorse;
    use crate::runtime::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact_rt() -> Runtime {
        Runtime::with_config(
            HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE),
            0,
        )
    }

    fn particle() -> RecordSchema {
        RecordSchema::builder("Particle")
            .precise_field::<i64>("id")
            .approx_field::<f64>("x")
            .approx_field::<f64>("y")
            .approx_field::<f64>("vx")
            .approx_field::<f64>("vy")
            .build()
    }

    #[test]
    fn roundtrips_both_precisions() {
        let rt = exact_rt();
        rt.run(|| {
            let schema = particle();
            let mut p = ApproxRecord::new(&schema);
            p.set_precise("id", 42i64);
            p.set_approx("x", Approx::new(1.5f64));
            p.set_approx("vy", Approx::new(-9.81f64));
            assert_eq!(p.get_precise::<i64>("id"), 42);
            assert_eq!(endorse(p.get_approx::<f64>("x")), 1.5);
            assert_eq!(endorse(p.get_approx::<f64>("vy")), -9.81);
        });
    }

    #[test]
    fn small_records_get_no_approximate_storage() {
        // Header 8 + id 8 = 16 precise bytes; 4 approximate doubles fit in
        // the remaining 48 bytes of the first line: all effectively precise.
        let rt = exact_rt();
        rt.run(|| {
            let schema = particle();
            let p = ApproxRecord::new(&schema);
            for f in ["x", "y", "vx", "vy"] {
                assert!(!p.field_storage_approx(f), "{f} should share the precise line");
            }
        });
    }

    #[test]
    fn large_records_split_across_lines() {
        let rt = exact_rt();
        rt.run(|| {
            let mut builder = RecordSchema::builder("Big").precise_field::<i64>("id");
            for name in ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"] {
                builder = builder.approx_field::<f64>(name);
            }
            let schema = builder.build();
            let p = ApproxRecord::new(&schema);
            let approx_fields = (0..10)
                .filter(|i| {
                    p.field_storage_approx(
                        ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"][*i],
                    )
                })
                .count();
            assert_eq!(approx_fields, 4, "6 of 10 absorbed by the precise line");
        });
    }

    #[test]
    fn storage_accounting_happens_on_drop() {
        let rt = exact_rt();
        rt.run(|| {
            let mut builder = RecordSchema::builder("Big").precise_field::<i64>("id");
            for name in ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"] {
                builder = builder.approx_field::<f64>(name);
            }
            let schema = builder.build();
            let mut p = ApproxRecord::new(&schema);
            p.set_precise("id", 1i64);
            drop(p);
        });
        let s = rt.stats();
        assert!(!s.dram_approx_quanta.is_zero());
        assert!(!s.dram_precise_quanta.is_zero());
    }

    #[test]
    #[should_panic(expected = "is approximate")]
    fn precision_mismatch_is_a_static_like_error() {
        let rt = exact_rt();
        rt.run(|| {
            let schema = particle();
            let mut p = ApproxRecord::new(&schema);
            // Reading an approximate field precisely is the forbidden flow.
            let _ = p.get_precise::<f64>("x");
        });
    }

    #[test]
    #[should_panic(expected = "no field")]
    fn unknown_fields_are_rejected() {
        let rt = exact_rt();
        rt.run(|| {
            let schema = particle();
            let mut p = ApproxRecord::new(&schema);
            let _ = p.get_precise::<i64>("nope");
        });
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_fields_are_rejected() {
        let _ = RecordSchema::builder("Bad").precise_field::<i64>("x").approx_field::<f64>("x");
    }
}
