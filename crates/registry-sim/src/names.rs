//! Package-name generation.
//!
//! Campaign packages need realistic registry names, and the dominant
//! changing operation is CN — releasing the same malware under a fresh
//! name (paper Fig. 12, 98.92%). Attackers draw names from three styles
//! observed in the report corpus: *typosquats* of popular packages,
//! *theme-and-suffix* sequences (`colorslib`, `httpslib`, `libhttps`…),
//! and *scoped-sounding* combinations (`mall-front-babel-directive`).

use oss_types::PackageName;
use rand::seq::SliceRandom;
use rand::Rng;

/// Popular legitimate package names that typosquats target.
pub const POPULAR_TARGETS: [&str; 20] = [
    "requests",
    "numpy",
    "pandas",
    "django",
    "flask",
    "lodash",
    "express",
    "react",
    "axios",
    "moment",
    "chalk",
    "commander",
    "webpack",
    "babel",
    "rails",
    "devise",
    "nokogiri",
    "rspec",
    "urllib3",
    "setuptools",
];

const THEMES: [&str; 24] = [
    "color", "http", "log", "json", "crypto", "cloud", "web", "net", "data", "file", "sys", "util",
    "core", "api", "auth", "cache", "db", "mail", "test", "time", "url", "xml", "yaml", "zip",
];

const AFFIXES: [&str; 16] = [
    "lib", "utils", "tools", "kit", "js", "py", "helper", "modules", "plus", "pro", "x", "io",
    "dev", "sdk", "min", "ng",
];

const SCOPE_WORDS: [&str; 16] = [
    "mall",
    "front",
    "babel",
    "directive",
    "remote",
    "layout",
    "hardware",
    "widget",
    "mobile",
    "admin",
    "portal",
    "vendor",
    "legacy",
    "bridge",
    "proxy",
    "runtime",
];

/// Generates package names for one campaign or as one-off loners.
#[derive(Debug, Clone)]
pub struct NameGenerator {
    /// Serial counter guaranteeing global uniqueness across the world.
    serial: u64,
}

impl NameGenerator {
    /// Creates a generator; `serial_start` offsets the uniqueness counter
    /// so several generators can coexist.
    pub fn new(serial_start: u64) -> Self {
        NameGenerator {
            serial: serial_start,
        }
    }

    /// A fresh unique name in one of the three attacker styles.
    pub fn fresh(&mut self, rng: &mut impl Rng) -> PackageName {
        let style = rng.gen_range(0..3);
        let base = match style {
            0 => self.typosquat(rng),
            1 => self.themed(rng),
            _ => self.scoped(rng),
        };
        self.uniquify(base)
    }

    /// A typosquat of a popular package: drop, double or swap one char.
    pub fn typosquat(&mut self, rng: &mut impl Rng) -> String {
        let target = POPULAR_TARGETS.choose(rng).expect("non-empty");
        let chars: Vec<char> = target.chars().collect();
        let pos = rng.gen_range(0..chars.len());
        match rng.gen_range(0..3) {
            0 if chars.len() > 2 => {
                // Drop a character.
                let mut s: String = chars[..pos].iter().collect();
                s.extend(&chars[pos + 1..]);
                s
            }
            1 => {
                // Double a character.
                let mut s: String = chars[..=pos].iter().collect();
                s.push(chars[pos]);
                s.extend(&chars[pos + 1..]);
                s
            }
            _ => {
                // Append a plausible suffix.
                format!("{target}-{}", AFFIXES.choose(rng).expect("non-empty"))
            }
        }
    }

    fn themed(&mut self, rng: &mut impl Rng) -> String {
        let theme = THEMES.choose(rng).expect("non-empty");
        let affix = AFFIXES.choose(rng).expect("non-empty");
        if rng.gen_bool(0.5) {
            format!("{theme}{affix}")
        } else {
            format!("{affix}{theme}")
        }
    }

    fn scoped(&mut self, rng: &mut impl Rng) -> String {
        let n = rng.gen_range(2..=3);
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(*SCOPE_WORDS.choose(rng).expect("non-empty"));
        }
        parts.join("-")
    }

    /// A *sibling* name for the next release attempt of a campaign: keeps
    /// the campaign theme recognizable while differing from `prev`
    /// (`colorslib` → `colorslib2`, `colors-lib`, `libcolors`…).
    pub fn sibling(&mut self, prev: &PackageName, rng: &mut impl Rng) -> PackageName {
        // Keep at most the first two segments as the campaign stem so the
        // theme stays recognizable without names growing unboundedly.
        let trimmed = prev.as_str().trim_end_matches(|c: char| c.is_ascii_digit());
        let mut segments = trimmed.split('-');
        let base = match (segments.next(), segments.next()) {
            (Some(a), Some(b)) if !b.is_empty() => format!("{a}-{b}"),
            (Some(a), _) => a.to_string(),
            _ => trimmed.to_string(),
        };
        let base = base.as_str();
        let candidate = match rng.gen_range(0..3) {
            0 => format!("{base}{}", rng.gen_range(2..99)),
            1 => format!("{base}-{}", AFFIXES.choose(rng).expect("non-empty")),
            _ => {
                let affix = AFFIXES.choose(rng).expect("non-empty");
                format!("{affix}-{base}")
            }
        };
        self.uniquify(candidate)
    }

    fn uniquify(&mut self, base: String) -> PackageName {
        self.serial += 1;
        // The serial suffix guarantees global uniqueness without altering
        // the name's campaign-recognizable stem.
        let name = format!("{base}-{}", radix36(self.serial));
        PackageName::new(&name).unwrap_or_else(|_| {
            PackageName::new(&format!("pkg-{}", radix36(self.serial)))
                .expect("fallback name is always valid")
        })
    }
}

fn radix36(mut n: u64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    if n == 0 {
        return "0".into();
    }
    let mut out = Vec::new();
    while n > 0 {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
    }
    out.reverse();
    String::from_utf8(out).expect("ascii digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn fresh_names_are_valid_and_unique() {
        let mut gen = NameGenerator::new(0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let name = gen.fresh(&mut rng);
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
    }

    #[test]
    fn siblings_share_a_stem() {
        let mut gen = NameGenerator::new(100);
        let mut rng = StdRng::seed_from_u64(2);
        let first = gen.fresh(&mut rng);
        let next = gen.sibling(&first, &mut rng);
        assert_ne!(first, next);
        // Small edit distance relative to fresh names is the point of CN.
        let stem: String = first.as_str().chars().take(4).collect();
        assert!(
            next.as_str().contains(&stem)
                || first
                    .as_str()
                    .contains(&next.as_str().chars().take(4).collect::<String>()),
            "sibling {next} lost the stem of {first}"
        );
    }

    #[test]
    fn generators_with_disjoint_serials_dont_collide() {
        let mut a = NameGenerator::new(0);
        let mut b = NameGenerator::new(1_000_000);
        let mut rng = StdRng::seed_from_u64(3);
        let na: HashSet<_> = (0..200).map(|_| a.fresh(&mut rng)).collect();
        let nb: HashSet<_> = (0..200).map(|_| b.fresh(&mut rng)).collect();
        assert!(na.is_disjoint(&nb));
    }

    #[test]
    fn typosquats_are_near_popular_targets() {
        let mut gen = NameGenerator::new(0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let squat = gen.typosquat(&mut rng);
            // Drop/double squats are within a few edits; suffix squats
            // (`chalk-modules`) keep the full target as a prefix.
            let near = POPULAR_TARGETS.iter().any(|t| {
                squat.starts_with(t) || oss_types::name::levenshtein(&squat, t) <= t.len().max(3)
            });
            assert!(near, "{squat} is not near any popular target");
        }
    }

    #[test]
    fn radix36_round_trip_samples() {
        assert_eq!(radix36(0), "0");
        assert_eq!(radix36(35), "z");
        assert_eq!(radix36(36), "10");
    }
}
