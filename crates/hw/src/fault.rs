//! Bit-level fault-injection primitives.
//!
//! All fault models in the paper bottom out in per-bit Bernoulli trials:
//! SRAM read upsets and write failures flip each bit with a constant
//! probability, and DRAM refresh reduction flips each bit with a probability
//! proportional to the time since the bit was last accessed (section 5.3).
//! This module provides those trials over `u64` bit patterns, with a
//! geometric-skip sampler so that the very low probabilities of the Mild
//! configuration cost almost nothing.

use rand::Rng;

/// Flips each of the low `width` bits of `bits` independently with
/// probability `p`. Returns the perturbed pattern.
///
/// Bits at positions `width..64` are left untouched. For small `p` the
/// implementation samples the gap to the next flipped bit from a geometric
/// distribution instead of performing `width` Bernoulli trials.
///
/// # Panics
///
/// Panics if `width > 64` or `p` is not in `[0, 1]`.
pub fn flip_bits<R: Rng + ?Sized>(bits: u64, width: u32, p: f64, rng: &mut R) -> u64 {
    assert!(width <= 64, "bit width {width} exceeds u64");
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    if p <= 0.0 || width == 0 {
        return bits;
    }
    if p >= 1.0 {
        return bits ^ low_mask(width);
    }
    let mut out = bits;
    // Geometric skip: the index of the next flipped bit after position i-1 is
    // i + floor(ln(U) / ln(1-p)). For p around 1e-3 and below this loop body
    // almost never executes. ln_1p keeps the denominator exact for the tiny
    // probabilities of the Mild configuration, where 1.0 - p rounds to 1.0.
    let denom = (-p).ln_1p();
    let mut i: u64 = skip(rng, denom);
    while i < u64::from(width) {
        out ^= 1u64 << i;
        i += 1 + skip(rng, denom);
    }
    out
}

/// Draws a geometric gap: `floor(ln(U) / ln(1-p))` with `denom = ln(1-p)`.
fn skip<R: Rng + ?Sized>(rng: &mut R, denom: f64) -> u64 {
    // U in (0, 1]; ln(U) <= 0 and denom < 0, so the quotient is >= 0 or
    // -0.0, and the saturating, truncating cast is its floor clamped at
    // u64::MAX.
    let u: f64 = 1.0 - rng.gen::<f64>();
    (u.ln() / denom) as u64
}

/// Draws a unit-rate exponential: `-ln(U)` with `U` in `(0, 1]`.
fn exp1<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln()
}

/// A cross-access geometric countdown over a fixed-probability Bernoulli
/// fault stream (SRAM read upsets, SRAM write failures, FU timing errors).
///
/// Instead of running a Bernoulli trial per bit per access, the countdown
/// draws the gap to the next flipped trial *once* and carries the remainder
/// across accesses. Because the geometric distribution is memoryless, the
/// leftover countdown after an access is itself geometric, so the stream of
/// flipped trials is distributed exactly as per-access sampling with
/// [`flip_bits`] — see the equivalence tests and DESIGN.md, "Amortized
/// fault scheduling". Steady-state cost between faults is one integer
/// comparison and subtraction per access: no RNG draws, no `ln()`, no
/// branch into fault code.
#[derive(Debug, Clone)]
pub struct GeomCountdown {
    /// Per-trial flip probability.
    p: f64,
    /// `ln(1 - p)`, negative; meaningful only for `p` strictly in `(0, 1)`.
    denom: f64,
    /// Bernoulli trials that will pass before the next flipped trial.
    remaining: u64,
}

impl GeomCountdown {
    /// Creates a countdown for per-trial probability `p`, drawing the first
    /// gap. `p == 0` (including a masked-off strategy) never draws from the
    /// RNG and never fires; `p == 1` fires on every trial.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new<R: Rng + ?Sized>(p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let denom = (-p).ln_1p();
        let remaining = if p <= 0.0 {
            u64::MAX
        } else if p >= 1.0 {
            0
        } else {
            skip(rng, denom)
        };
        GeomCountdown { p, denom, remaining }
    }

    /// Fast path: consumes `trials` Bernoulli trials. Returns `true` when
    /// none of them flips (the overwhelmingly common case); `false` when the
    /// countdown runs out inside this batch and the caller must take the
    /// slow path ([`GeomCountdown::flip_bits`]).
    #[inline]
    pub fn pass(&mut self, trials: u32) -> bool {
        let t = u64::from(trials);
        if self.remaining >= t {
            self.remaining -= t;
            true
        } else {
            false
        }
    }

    /// Per-operation stream: consumes one trial and reports whether it
    /// fires. Equivalent to `gen_bool(p)` per operation, amortized.
    #[inline]
    pub fn fire<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            return false;
        }
        if self.p <= 0.0 {
            // Only reachable after 2^64 trials drained a never-fires stream.
            self.remaining = u64::MAX;
            return false;
        }
        self.remaining = if self.p >= 1.0 { 0 } else { skip(rng, self.denom) };
        true
    }

    /// Slow path for bit-pattern streams, called when [`GeomCountdown::pass`]
    /// returned `false`: flips the bit the countdown landed on, then keeps
    /// drawing geometric gaps until one escapes the access; the overshoot is
    /// carried into subsequent accesses. The caller is responsible for the
    /// fast path — invoking this directly with a live countdown would skew
    /// the stream.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn flip_bits<R: Rng + ?Sized>(&mut self, bits: u64, width: u32, rng: &mut R) -> u64 {
        assert!(width <= 64, "bit width {width} exceeds u64");
        if self.p <= 0.0 {
            self.remaining = u64::MAX;
            return bits;
        }
        if self.p >= 1.0 {
            // `remaining` stays 0: every bit of every access flips.
            return bits ^ low_mask(width);
        }
        let w = u64::from(width);
        debug_assert!(self.remaining < w, "slow path entered with a live countdown");
        let mut out = bits;
        let mut i = self.remaining;
        while i < w {
            out ^= 1u64 << i;
            i = i.saturating_add(1).saturating_add(skip(rng, self.denom));
        }
        self.remaining = i - w;
        out
    }

    /// Batch fast path for bit-pattern streams: consumes up to `accesses`
    /// whole accesses of `width` bits each and returns how many pass before
    /// the countdown lands inside one, or `None` when all of them pass.
    ///
    /// After `Some(k)`, the countdown has consumed exactly `k` accesses and
    /// sits inside access `k` (its `remaining` is below `width`): the caller
    /// must run [`GeomCountdown::flip_bits`] on that access next, then may
    /// call this again with the accesses left after it. Walking a slice this
    /// way performs the *identical* state-machine steps (and RNG draws) as a
    /// per-access `pass`/`flip_bits` loop, so batched and scalar streams are
    /// bit-for-bit the same — see the batched equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64 (a zero-width access
    /// consumes no trials, so the loop below could never terminate).
    #[inline]
    pub(crate) fn pass_accesses(&mut self, accesses: u64, width: u32) -> Option<u64> {
        assert!((1..=64).contains(&width), "bit width {width} out of range");
        let w = u64::from(width);
        // `accesses * width` can exceed u64 only when `remaining` already
        // covers it (remaining is itself a u64), so compare in u128.
        let total = u128::from(accesses) * u128::from(w);
        if u128::from(self.remaining) >= total {
            self.remaining -= total as u64;
            return None;
        }
        let k = self.remaining / w;
        self.remaining -= k * w;
        Some(k)
    }

    /// Batch fast path for per-operation streams: consumes up to `trials`
    /// operations and returns the zero-based index of the first one that
    /// fires, or `None` when none does.
    ///
    /// On a fire the gap to the next fault is redrawn (exactly as
    /// [`GeomCountdown::fire`] does), so the caller applies the error payload
    /// at that index and calls this again with the operations left after it.
    /// The RNG draw sequence matches a scalar `fire` loop exactly.
    #[inline]
    pub(crate) fn next_fire<R: Rng + ?Sized>(&mut self, trials: u64, rng: &mut R) -> Option<u64> {
        if self.remaining >= trials {
            self.remaining -= trials;
            return None;
        }
        let idx = self.remaining;
        if self.p <= 0.0 {
            // Only reachable after 2^64 trials drained a never-fires stream.
            self.remaining = u64::MAX;
            return None;
        }
        self.remaining = if self.p >= 1.0 { 0 } else { skip(rng, self.denom) };
        Some(idx)
    }
}

/// Converts a per-bit flip probability into exponential hazard `-ln(1-p)`:
/// the units [`HazardCountdown`] counts in.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)`. (`p == 1` would be infinite hazard;
/// [`decay_probability`] saturates at 0.5, so DRAM never produces it.)
pub fn hazard(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "probability {p} out of range for hazard");
    -(-p).ln_1p()
}

/// A cross-access countdown for per-bit Bernoulli streams whose probability
/// varies between accesses — DRAM refresh decay, where `p` depends on the
/// time since the element was last refreshed.
///
/// The countdown works in *hazard* units: a bit that flips with probability
/// `p` consumes `h = -ln(1-p)` of hazard ([`hazard`]), and a unit-rate
/// exponential alarm `R ~ Exp(1)` rings inside the bit that pushes the
/// cumulative hazard past `R`. Survival of `k` whole bits has probability
/// `e^{-k·h} = (1-p)^k`, exactly the geometric law — and because the
/// exponential is memoryless in hazard, carrying leftover hazard across
/// accesses stays exact even when each access contributes a different `p`.
#[derive(Debug, Clone)]
pub struct HazardCountdown {
    /// Remaining Exp(1) hazard before the next flip.
    remaining: f64,
}

impl HazardCountdown {
    /// Creates a countdown, drawing the first exponential alarm.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        HazardCountdown { remaining: exp1(rng) }
    }

    /// Fast path: consumes `exposure` hazard (typically `width * hazard(p)`
    /// for one access). Returns `true` when no bit flips.
    #[inline]
    pub fn pass(&mut self, exposure: f64) -> bool {
        if self.remaining > exposure {
            self.remaining -= exposure;
            true
        } else {
            false
        }
    }

    /// Slow path, called when [`HazardCountdown::pass`] returned `false`
    /// for an access of `width` bits at `per_bit` hazard per bit: flips the
    /// bit the alarm landed in, redraws, and repeats until an alarm escapes
    /// the access; the overshoot carries into subsequent accesses.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`; `per_bit` must be positive (callers gate
    /// zero-hazard accesses on the fast path).
    pub fn flip_bits<R: Rng + ?Sized>(
        &mut self,
        bits: u64,
        width: u32,
        per_bit: f64,
        rng: &mut R,
    ) -> u64 {
        assert!(width <= 64, "bit width {width} exceeds u64");
        debug_assert!(per_bit > 0.0, "slow path needs positive per-bit hazard");
        let mut out = bits;
        let mut base: u64 = 0;
        let mut left = u64::from(width);
        loop {
            // Whole bits the remaining hazard survives: the alarm rings in
            // the bit whose cumulative hazard first reaches `remaining`.
            let gap = ((self.remaining / per_bit).ceil() - 1.0).max(0.0);
            if gap >= left as f64 {
                self.remaining -= left as f64 * per_bit;
                return out;
            }
            let g = gap as u64;
            out ^= 1u64 << (base + g);
            base += g + 1;
            left -= g + 1;
            self.remaining = exp1(rng);
        }
    }
}

/// Flips exactly one uniformly-chosen bit among the low `width` bits.
///
/// This is the `single-bit-flip` functional-unit error model.
///
/// # Panics
///
/// Panics if `width` is zero or greater than 64.
pub fn flip_one_bit<R: Rng + ?Sized>(bits: u64, width: u32, rng: &mut R) -> u64 {
    assert!((1..=64).contains(&width), "bit width {width} out of range");
    let pos = rng.gen_range(0..width);
    bits ^ (1u64 << pos)
}

/// A uniformly random pattern over the low `width` bits.
///
/// This is the `random-value` functional-unit error model.
pub(crate) fn random_bits<R: Rng + ?Sized>(width: u32, rng: &mut R) -> u64 {
    rng.gen::<u64>() & low_mask(width)
}

/// A mask with the low `width` bits set.
pub fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The per-bit flip probability after `dt` seconds without refresh, for a
/// per-second flip rate `rate`: `1 - exp(-rate * dt)`.
///
/// Saturates at 0.5 — a fully decayed DRAM cell carries no information, not
/// an inverted bit (see DESIGN.md, "Simulation-model decisions").
///
/// # Panics
///
/// Panics if `rate` or `dt` is negative or NaN. This is a real assert, not
/// a `debug_assert`: a negative product would silently yield a negative
/// "probability" (and NaN would propagate) in release builds otherwise.
pub fn decay_probability(rate: f64, dt: f64) -> f64 {
    assert!(rate >= 0.0 && dt >= 0.0, "decay rate {rate} and dt {dt} must be non-negative");
    let p = 1.0 - (-rate * dt).exp();
    p.min(0.5)
}

/// The per-bit decay hazard after `dt` without refresh at rate `rate`, in
/// closed form: `min(rate * dt, ln 2)`, which is
/// `hazard(decay_probability(rate, dt))` in exact arithmetic (the 0.5
/// saturation is hazard `ln 2`). The units only need to agree: the DRAM
/// model passes a per-op-tick rate and a gap in op-ticks.
///
/// Unlike the reference pair it never forms `1 - exp(-rate * dt)`, which
/// cancels catastrophically for the tiny products of the Mild level, and it
/// does not check its inputs: [`crate::Hardware::new`] rejects a negative
/// or NaN rate once per machine.
#[inline]
pub fn decay_hazard(rate: f64, dt: f64) -> f64 {
    (rate * dt).min(std::f64::consts::LN_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn zero_probability_never_flips() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(flip_bits(0xDEAD_BEEF, 32, 0.0, &mut r), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn unit_probability_flips_everything_in_width() {
        let mut r = rng();
        assert_eq!(flip_bits(0, 8, 1.0, &mut r), 0xFF);
        assert_eq!(flip_bits(0xFF, 8, 1.0, &mut r), 0);
        // Bits beyond the width are untouched.
        assert_eq!(flip_bits(0xF00, 8, 1.0, &mut r), 0xFFF);
    }

    #[test]
    fn width_zero_is_identity() {
        let mut r = rng();
        assert_eq!(flip_bits(42, 0, 0.5, &mut r), 42);
    }

    #[test]
    fn flip_rate_matches_probability_statistically() {
        let mut r = rng();
        let p = 0.01;
        let trials = 20_000u64;
        let mut flips = 0u64;
        for _ in 0..trials {
            flips += u64::from(flip_bits(0, 64, p, &mut r).count_ones());
        }
        let expected = trials as f64 * 64.0 * p;
        let observed = flips as f64;
        // 5-sigma band for a binomial count.
        let sigma = (trials as f64 * 64.0 * p * (1.0 - p)).sqrt();
        assert!(
            (observed - expected).abs() < 5.0 * sigma,
            "observed {observed}, expected {expected} +/- {}",
            5.0 * sigma
        );
    }

    #[test]
    fn low_probability_rarely_flips() {
        let mut r = rng();
        let mut flips = 0u32;
        for _ in 0..10_000 {
            flips += flip_bits(0, 64, 1e-9, &mut r).count_ones();
        }
        // Expected flips: 10_000 * 64 * 1e-9 = 6.4e-4; seeing more than a few
        // would indicate a broken sampler.
        assert!(flips <= 2, "too many flips at p=1e-9: {flips}");
    }

    #[test]
    fn flip_one_bit_changes_exactly_one() {
        let mut r = rng();
        for _ in 0..200 {
            let x = r.gen::<u64>();
            let y = flip_one_bit(x, 32, &mut r);
            assert_eq!((x ^ y).count_ones(), 1);
            assert!((x ^ y).trailing_zeros() < 32);
        }
    }

    #[test]
    fn random_bits_respects_width() {
        let mut r = rng();
        for _ in 0..200 {
            assert_eq!(random_bits(12, &mut r) & !0xFFF, 0);
        }
        // Sanity: the full width eventually exercises high bits.
        let any_high = (0..50).any(|_| random_bits(64, &mut r) >> 60 != 0);
        assert!(any_high);
    }

    #[test]
    fn low_mask_edges() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn decay_probability_monotone_and_saturating() {
        let rate = 1e-3;
        assert_eq!(decay_probability(rate, 0.0), 0.0);
        let p1 = decay_probability(rate, 1.0);
        let p10 = decay_probability(rate, 10.0);
        assert!(p1 > 0.0 && p10 > p1);
        // Very long decay saturates at 0.5.
        assert_eq!(decay_probability(1.0, 1e9), 0.5);
        // Short decay approximates rate * dt.
        assert!((p1 - rate).abs() / rate < 1e-3);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn flip_bits_rejects_bad_probability() {
        let mut r = rng();
        let _ = flip_bits(0, 8, 1.5, &mut r);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn decay_probability_rejects_negative_rate() {
        let _ = decay_probability(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn decay_probability_rejects_nan_dt() {
        let _ = decay_probability(1.0, f64::NAN);
    }

    fn countdown_run(p: f64, width: u32, accesses: u64, seed: u64) -> u64 {
        let mut r = StdRng::seed_from_u64(seed);
        let mut cd = GeomCountdown::new(p, &mut r);
        let mut flips = 0u64;
        for _ in 0..accesses {
            if !cd.pass(width) {
                flips += u64::from(cd.flip_bits(0, width, &mut r).count_ones());
            }
        }
        flips
    }

    #[test]
    fn countdown_zero_probability_never_fires_or_draws() {
        let mut r = rng();
        let mut untouched = rng();
        let mut cd = GeomCountdown::new(0.0, &mut r);
        for _ in 0..10_000 {
            assert!(cd.pass(64));
            assert!(!cd.fire(&mut r));
        }
        // A p = 0 stream must never consume RNG state.
        assert_eq!(r.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn countdown_unit_probability_flips_every_bit() {
        let mut r = rng();
        let mut cd = GeomCountdown::new(1.0, &mut r);
        for _ in 0..100 {
            assert!(!cd.pass(8));
            assert_eq!(cd.flip_bits(0, 8, &mut r), 0xFF);
            assert!(cd.fire(&mut r));
        }
    }

    #[test]
    fn countdown_flip_rate_matches_probability() {
        let p = 0.01;
        let accesses = 20_000u64;
        let flips = countdown_run(p, 64, accesses, 0x5EED) as f64;
        let trials = accesses as f64 * 64.0;
        let sigma = (trials * p * (1.0 - p)).sqrt();
        assert!(
            (flips - trials * p).abs() < 5.0 * sigma,
            "flips {flips}, expected {} +/- {}",
            trials * p,
            5.0 * sigma
        );
    }

    #[test]
    fn countdown_per_op_rate_matches_gen_bool() {
        let p = 0.05;
        let n = 50_000u64;
        let mut r = rng();
        let mut cd = GeomCountdown::new(p, &mut r);
        let fired = (0..n).filter(|_| cd.fire(&mut r)).count() as f64;
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        assert!((fired - n as f64 * p).abs() < 5.0 * sigma, "fired {fired}");
    }

    #[test]
    fn hazard_of_zero_is_zero_and_grows_with_p() {
        assert_eq!(hazard(0.0), 0.0);
        assert!(hazard(0.5) > hazard(0.1));
        assert!((hazard(0.5) - std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn hazard_countdown_matches_fixed_probability() {
        let p = 0.02;
        let h = hazard(p);
        let accesses = 20_000u64;
        let mut r = rng();
        let mut cd = HazardCountdown::new(&mut r);
        let mut flips = 0u64;
        for _ in 0..accesses {
            if !cd.pass(64.0 * h) {
                flips += u64::from(cd.flip_bits(0, 64, h, &mut r).count_ones());
            }
        }
        let trials = accesses as f64 * 64.0;
        let sigma = (trials * p * (1.0 - p)).sqrt();
        assert!(
            (flips as f64 - trials * p).abs() < 5.0 * sigma,
            "flips {flips}, expected {} +/- {}",
            trials * p,
            5.0 * sigma
        );
    }

    #[test]
    fn hazard_countdown_exact_under_varying_probability() {
        // Alternate two probabilities per access; the expected flip count is
        // the sum of the per-access expectations. A plain geometric counter
        // in trial units would be biased here; the hazard clock is not.
        let (p1, p2) = (0.001, 0.08);
        let (h1, h2) = (hazard(p1), hazard(p2));
        let accesses = 40_000u64;
        let mut r = rng();
        let mut cd = HazardCountdown::new(&mut r);
        let mut flips = 0u64;
        for i in 0..accesses {
            let h = if i % 2 == 0 { h1 } else { h2 };
            if !cd.pass(64.0 * h) {
                flips += u64::from(cd.flip_bits(0, 64, h, &mut r).count_ones());
            }
        }
        let n_each = accesses as f64 / 2.0 * 64.0;
        let expected = n_each * (p1 + p2);
        let var = n_each * (p1 * (1.0 - p1) + p2 * (1.0 - p2));
        let sigma = var.sqrt();
        assert!(
            (flips as f64 - expected).abs() < 5.0 * sigma,
            "flips {flips}, expected {expected} +/- {}",
            5.0 * sigma
        );
    }

    /// An RNG whose every word is the same: `gen::<f64>()` is then
    /// `(word >> 11) / 2^53`, so `skip` sees `U = 1 - that`.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn skip_is_the_saturating_floor_at_its_edges() {
        // The explicit floor-and-clamp form `skip` reduces to.
        fn reference(u: f64, denom: f64) -> u64 {
            let g = (u.ln() / denom).floor();
            if g >= u64::MAX as f64 {
                u64::MAX
            } else {
                g as u64
            }
        }
        let u_of = |word: u64| 1.0 - (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let smallest = u64::MAX; // U = 2^-53, the smallest the sampler draws
        for word in [0, 1 << 11, 1 << 62, 3 << 62, smallest] {
            for denom in [(-0.5f64).ln_1p(), (-1e-3f64).ln_1p(), (-1e-12f64).ln_1p(), -1e-300] {
                let got = skip(&mut Fixed(word), denom);
                assert_eq!(got, reference(u_of(word), denom), "word {word:#x}, denom {denom:e}");
            }
        }
        // U = 1: ln(U) = 0 and the quotient is -0.0, a zero gap.
        assert_eq!(skip(&mut Fixed(0), -1e-3), 0);
        // The smallest U over a tiny denominator saturates.
        assert_eq!(skip(&mut Fixed(smallest), -1e-300), u64::MAX);
        assert_eq!(skip(&mut Fixed(smallest), -f64::MIN_POSITIVE), u64::MAX);
        // Just below saturation the floor is exact: ln(2^-53) / -1 = 53 ln 2.
        assert_eq!(skip(&mut Fixed(smallest), -1.0), (53.0 * std::f64::consts::LN_2) as u64);
        // A NaN quotient (0 / 0, unreachable from a live stream) is 0 both ways.
        assert_eq!(skip(&mut Fixed(0), 0.0), reference(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn flip_one_bit_rejects_zero_width() {
        let mut r = rng();
        let _ = flip_one_bit(0, 0, &mut r);
    }

    /// `pass_accesses` + `flip_bits` over a slice must replay the identical
    /// countdown states and RNG draws as a per-access `pass` + `flip_bits`
    /// loop.
    #[test]
    fn pass_accesses_is_bit_identical_to_scalar_pass_loop() {
        for &(p, n) in &[(0.0, 1000u64), (1e-3, 50_000), (0.3, 2_000), (1.0, 100)] {
            for &width in &[1u32, 8, 32, 64] {
                let mut r_s = StdRng::seed_from_u64(0xBA7C);
                let mut cd_s = GeomCountdown::new(p, &mut r_s);
                let mut scalar = vec![0u64; n as usize];
                for word in scalar.iter_mut() {
                    if !cd_s.pass(width) {
                        *word = cd_s.flip_bits(*word, width, &mut r_s);
                    }
                }

                let mut r_b = StdRng::seed_from_u64(0xBA7C);
                let mut cd_b = GeomCountdown::new(p, &mut r_b);
                let mut batched = vec![0u64; n as usize];
                let mut idx = 0u64;
                while idx < n {
                    match cd_b.pass_accesses(n - idx, width) {
                        None => break,
                        Some(k) => {
                            idx += k;
                            let w = &mut batched[idx as usize];
                            *w = cd_b.flip_bits(*w, width, &mut r_b);
                            idx += 1;
                        }
                    }
                }

                assert_eq!(scalar, batched, "p={p} width={width}");
                assert_eq!(cd_s.remaining, cd_b.remaining, "p={p} width={width}");
                assert_eq!(r_s.gen::<u64>(), r_b.gen::<u64>(), "p={p} width={width}");
            }
        }
    }

    /// `next_fire` over a batch must fire at the same indices, with the same
    /// RNG draws, as a scalar `fire` loop.
    #[test]
    fn next_fire_is_bit_identical_to_scalar_fire_loop() {
        for &(p, n) in &[(0.0, 1000u64), (1e-3, 50_000), (0.3, 2_000), (1.0, 100)] {
            let mut r_s = StdRng::seed_from_u64(0xF14E);
            let mut cd_s = GeomCountdown::new(p, &mut r_s);
            let scalar: Vec<u64> = (0..n).filter(|_| cd_s.fire(&mut r_s)).collect();

            let mut r_b = StdRng::seed_from_u64(0xF14E);
            let mut cd_b = GeomCountdown::new(p, &mut r_b);
            let mut batched = Vec::new();
            let mut idx = 0u64;
            while idx < n {
                match cd_b.next_fire(n - idx, &mut r_b) {
                    None => break,
                    Some(k) => {
                        idx += k;
                        batched.push(idx);
                        idx += 1;
                    }
                }
            }

            assert_eq!(scalar, batched, "p={p}");
            assert_eq!(cd_s.remaining, cd_b.remaining, "p={p}");
            assert_eq!(r_s.gen::<u64>(), r_b.gen::<u64>(), "p={p}");
        }
    }

    #[test]
    fn pass_accesses_handles_huge_batches_without_overflow() {
        let mut r = rng();
        // `accesses * width` overflows u64; the u128 compare must stay exact.
        let mut cd = GeomCountdown::new(0.5, &mut r);
        assert!(cd.pass_accesses(u64::MAX, 64).is_some());
        // A p = 0 stream drains exactly like 2^64 scalar `pass` trials
        // would; its `flip_bits` then resets without flipping anything.
        let mut cd0 = GeomCountdown::new(0.0, &mut r);
        let landed = cd0.pass_accesses(u64::MAX, 64).expect("u64::MAX trials drain the stream");
        assert_eq!(landed, u64::MAX / 64);
        assert_eq!(cd0.flip_bits(0xABCD, 64, &mut r), 0xABCD);
    }
}
