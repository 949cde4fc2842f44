//! Counter-based random number generation for reproducible, parallel sampling.
//!
//! The motion model needs three Gaussian samples per particle per update (one
//! paired Box–Muller draw for the translation, one more for the heading, four
//! uniforms in all) and the resampler needs a single uniform draw per update.
//! On the GAP9 cluster the particles are split across eight worker cores; a
//! shared sequential RNG would either serialize the workers or make results
//! depend on the scheduling order. The paper's implementation sidesteps this
//! by giving every particle its own deterministic stream; we do the same with
//! a counter-based generator: the random numbers for particle `i` at update
//! `t` are a pure function of `(seed, t, i)`, so sequential and parallel
//! execution produce bit-identical particle sets (a property the test-suite
//! checks).

/// A counter-based pseudo random number generator (SplitMix64 over a hashed
/// counter), giving an independent stream per `(seed, update, particle)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Creates the stream for `(seed, update_index, particle_index)`.
    #[inline]
    pub fn for_particle(seed: u64, update_index: u64, particle_index: u64) -> Self {
        // Mix the three inputs with distinct large odd constants before the
        // SplitMix64 scrambler so neighbouring particles get unrelated streams.
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(update_index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(particle_index.wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        CounterRng { state: mixed }
    }

    /// Creates the stream for a per-update (not per-particle) draw, such as the
    /// single random offset of the systematic resampling wheel.
    pub fn for_update(seed: u64, update_index: u64) -> Self {
        Self::for_particle(seed, update_index, u64::MAX)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// The next 24 random bits: the integer `k` behind a [`CounterRng::uniform`]
    /// draw `k / 2²⁴`.
    #[inline]
    fn next_u24(&mut self) -> u32 {
        (self.next_u64() >> 40) as u32
    }

    /// Two independent samples from `N(0, 1)` out of one uniform pair: both
    /// outputs `(r·cos φ, r·sin φ)` of the Box–Muller transform.
    ///
    /// Unlike [`CounterRng::standard_normal`] this calls no libm function:
    /// `r = √(−2 ln u₁)` uses the polynomial [`mcl_num::poly::ln`] and the
    /// angle `φ = 2π·k/2²⁴` of the second draw's 24 bits goes through the
    /// exactly reduced [`mcl_num::poly::turn_sin_cos`]. The body is
    /// branch-free single-rounding arithmetic, so the motion kernel's lane
    /// groups vectorize it and every backend draws the same bits.
    #[inline(always)]
    pub(crate) fn normal_pair(&mut self) -> (f32, f32) {
        // 1 − k/2²⁴ ∈ [2⁻²⁴, 1], exact and never zero, so ln is finite.
        let u = (16_777_216 - self.next_u24() as i32) as f32 * (1.0 / 16_777_216.0);
        let radius = (-2.0 * mcl_num::poly::ln(u)).sqrt();
        let (s, c) = mcl_num::poly::turn_sin_cos(self.next_u24());
        (radius * c, radius * s)
    }

    /// Uniform `f32` in `[low, high)`.
    pub fn uniform_range(&mut self, low: f32, high: f32) -> f32 {
        low + (high - low) * self.uniform()
    }

    /// One sample from `N(0, 1)` via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f32 {
        let u1 = (1.0 - self.uniform()).max(f32::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f32::consts::TAU * u2).cos()
    }

    /// One sample from `N(mean, std²)`; `std == 0` returns `mean` exactly.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        if std <= 0.0 {
            mean
        } else {
            mean + std * self.standard_normal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_num::RunningStats;

    #[test]
    fn streams_are_deterministic() {
        let mut a = CounterRng::for_particle(1, 2, 3);
        let mut b = CounterRng::for_particle(1, 2, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_particles_get_different_streams() {
        let mut a = CounterRng::for_particle(1, 2, 3);
        let mut b = CounterRng::for_particle(1, 2, 4);
        let mut c = CounterRng::for_particle(1, 3, 3);
        let mut d = CounterRng::for_particle(2, 2, 3);
        let a0 = a.next_u64();
        assert_ne!(a0, b.next_u64());
        assert_ne!(a0, c.next_u64());
        assert_ne!(a0, d.next_u64());
    }

    #[test]
    fn uniform_is_in_range_and_roughly_uniform() {
        let mut stats = RunningStats::new();
        for i in 0..4000u64 {
            let mut rng = CounterRng::for_particle(7, 0, i);
            let v = rng.uniform();
            assert!((0.0..1.0).contains(&v));
            stats.push(f64::from(v));
        }
        assert!((stats.mean() - 0.5).abs() < 0.02);
        // Variance of U(0,1) is 1/12 ≈ 0.0833.
        assert!((stats.sample_variance() - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn normal_has_requested_moments() {
        let mut stats = RunningStats::new();
        for i in 0..8000u64 {
            let mut rng = CounterRng::for_particle(11, 1, i);
            stats.push(f64::from(rng.normal(2.0, 0.3)));
        }
        assert!((stats.mean() - 2.0).abs() < 0.02);
        assert!((stats.stddev() - 0.3).abs() < 0.02);
    }

    #[test]
    fn zero_std_normal_is_exact() {
        let mut rng = CounterRng::for_particle(0, 0, 0);
        assert_eq!(rng.normal(1.25, 0.0), 1.25);
    }

    #[test]
    fn uniform_range_spans_the_interval() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..2000u64 {
            let mut rng = CounterRng::for_particle(3, 5, i);
            let v = rng.uniform_range(-2.0, 4.0);
            assert!((-2.0..4.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(
            lo < -1.5 && hi > 3.5,
            "samples should cover most of the range"
        );
    }

    #[test]
    fn update_stream_differs_from_particle_streams() {
        let mut u = CounterRng::for_update(5, 9);
        let mut p = CounterRng::for_particle(5, 9, 0);
        assert_ne!(u.next_u64(), p.next_u64());
    }
}
