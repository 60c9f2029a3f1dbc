//! Download-count model.
//!
//! Fig. 11 of the paper shows that most release attempts accumulate 0–1
//! downloads before removal, a minority reach 10–40, and a handful of
//! outliers — malicious versions of *popular* packages — reach millions.
//! Table VIII ranks the top increases (IDN up to 66,092,932). The model:
//!
//! * ordinary attempts: Poisson with rate proportional to persistence
//!   (the registry removes malware fast, so counts stay tiny);
//! * trojan attempts: a popularity base that grows with every release as
//!   the attacker "continues to camouflage it as a popular package".

use rand::Rng;
use rand_distr::{Distribution, LogNormal, Poisson};

/// Expected downloads per hour of persistence for an ordinary malicious
/// package nobody is steering traffic to.
const BASE_RATE_PER_HOUR: f64 = 0.02;

/// Samples the download count of an ordinary (non-trojan) release that
/// stayed up for `persistence_hours`.
pub fn ordinary_downloads(persistence_hours: f64, rng: &mut impl Rng) -> u64 {
    let lambda = (persistence_hours.max(0.0) * BASE_RATE_PER_HOUR).max(1e-9);
    // An occasional release gets briefly promoted (spam, typosquat luck)
    // and lands in the 10–40 band.
    let boosted = if rng.gen_bool(0.06) {
        lambda + rng.gen_range(8.0..40.0)
    } else {
        lambda
    };
    Poisson::new(boosted)
        .expect("lambda is positive and finite")
        .sample(rng) as u64
}

/// Popularity base (downloads of version 1) for a trojan campaign:
/// log-normal spanning ~10³ to ~10⁷, matching the Table VIII outliers.
pub fn trojan_base_downloads(rng: &mut impl Rng) -> u64 {
    // Mixture: most trojans target mid-popularity packages, but a few
    // hijack truly popular ones — those are the 10⁷-scale IDN rows of
    // Table VIII.
    if rng.gen_bool(0.15) {
        return rng.gen_range(8_000_000..60_000_000);
    }
    let ln = LogNormal::new(11.5, 2.0).expect("valid parameters");
    (ln.sample(rng) as u64).clamp(1_000, 120_000_000)
}

/// Downloads of trojan release-attempt `attempt` (0-based): the package
/// keeps gaining users while it masquerades as legitimate, so each
/// version multiplies the base.
pub fn trojan_downloads(base: u64, attempt: usize, rng: &mut impl Rng) -> u64 {
    let growth: f64 = rng.gen_range(1.3..2.4);
    // Clamp the exponent *before* the i32 cast: a huge `attempt` would
    // otherwise wrap negative (turning growth into decay) or push the
    // power to `inf` ahead of the band clamp below. 64 is already past
    // saturation — 1.3⁶⁴ alone exceeds the download cap for any base ≥ 9.
    const MAX_EXPONENT: usize = 64;
    let scaled = (base as f64) * growth.powi(attempt.min(MAX_EXPONENT) as i32);
    // Even the most popular hijacked packages sit in the 10⁷–10⁸ band
    // (the paper's top IDN is 66,092,932).
    scaled.min(1.6e8) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ordinary_downloads_are_mostly_zero_or_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0usize;
        const N: usize = 2000;
        for _ in 0..N {
            // Median persistence ~1 day.
            if ordinary_downloads(24.0, &mut rng) <= 1 {
                low += 1;
            }
        }
        let frac = low as f64 / N as f64;
        assert!(
            frac > 0.75,
            "Fig. 11: most attempts have 0–1 downloads, got {frac}"
        );
    }

    #[test]
    fn some_ordinary_attempts_land_in_the_10_40_band() {
        let mut rng = StdRng::seed_from_u64(2);
        let count = (0..2000)
            .map(|_| ordinary_downloads(24.0, &mut rng))
            .filter(|&d| (10..=60).contains(&d))
            .count();
        assert!(count > 20, "expected a 10–40 minority band, got {count}");
    }

    #[test]
    fn zero_persistence_means_zero_ish_downloads() {
        let mut rng = StdRng::seed_from_u64(3);
        let total: u64 = (0..500).map(|_| ordinary_downloads(0.0, &mut rng)).sum();
        // Only the 6% boost branch can produce downloads.
        assert!(total < 500 * 40);
        let unboosted = (0..500)
            .map(|_| ordinary_downloads(0.0, &mut rng))
            .filter(|&d| d == 0)
            .count();
        assert!(unboosted > 400);
    }

    #[test]
    fn trojan_bases_span_orders_of_magnitude() {
        let mut rng = StdRng::seed_from_u64(4);
        let bases: Vec<u64> = (0..300).map(|_| trojan_base_downloads(&mut rng)).collect();
        assert!(bases.iter().any(|&b| b < 100_000));
        assert!(
            bases.iter().any(|&b| b > 5_000_000),
            "need Table-VIII-scale outliers"
        );
    }

    #[test]
    fn trojan_downloads_grow_with_attempts() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = 10_000;
        let v0 = trojan_downloads(base, 0, &mut rng);
        let v3 = trojan_downloads(base, 3, &mut rng);
        assert!(v3 > v0, "attempt 3 ({v3}) should exceed attempt 0 ({v0})");
        assert!(trojan_downloads(100_000_000, 9, &mut rng) <= 160_000_000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Extreme attempt counts (up to `usize::MAX`) must neither
            /// overflow past the band clamp nor wrap the exponent
            /// negative and invert growth into decay.
            #[test]
            fn trojan_downloads_extreme_attempts_stay_in_band(
                seed in any::<u64>(),
                base in 0u64..200_000_000,
                attempt in any::<usize>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let d = trojan_downloads(base, attempt, &mut rng);
                prop_assert!(d <= 160_000_000, "band clamp violated: {d}");
                // Same seed ⇒ same growth draw ⇒ growth never inverts:
                // any later attempt is at least attempt 0's count.
                let mut rng0 = StdRng::seed_from_u64(seed);
                let d0 = trojan_downloads(base, 0, &mut rng0);
                prop_assert!(
                    d >= d0,
                    "attempt {attempt} ({d}) fell below attempt 0 ({d0})"
                );
            }
        }
    }
}
