//! Golden identity of the language front end: lexer, parser and
//! embedder.
//!
//! Both digests were recorded with the string-building front end: a
//! lexer that copied every identifier into its own `String`, and an
//! embedder that built one `String` per feature and hashed it twice.
//! The inputs are the distinct sources of `WorldConfig::small(77)`,
//! plus damaged copies of each that reach every lexer error and most
//! parser errors:
//!
//! * six truncations at char boundaries;
//! * one insertion each of `@`, a tab, `é`, `→`, `'`, `\q`, `"abc\`
//!   and an integer literal past `i64`, at a position drawn from a
//!   fixed mixing function.
//!
//! * The parse digest hashes `format!("{:?}", parse(s))` for every
//!   input: the whole AST, or the error's line, message and kind.
//! * The embedding digest hashes `embed_sparse` of every undamaged
//!   source at four dimensions: indices, value bits and norm bits.
//!
//! Any change to the lexer, the parser or the embedder must reproduce
//! both byte for byte.

use malgraph::embed::Embedder;
use malgraph::minilang::parse;
use malgraph::oss_types::hash::Sha256Hasher;
use malgraph::registry_sim::{World, WorldConfig};
use std::collections::HashSet;
use std::sync::OnceLock;

const SOURCES: usize = 731;
const PARSE_SHA256: &str = "9fe37bddf5120634fb50d3937f11f734d6245b80c4264f98e0512a2fd84b6f5f";
const EMBED_SHA256: &str = "e03cc0d43805014aa19603c20eaadccfd0a20384f2aec7ac5d61aff0ad83862d";

const TRUNCATIONS: usize = 6;
const INSERTIONS: [&str; 8] = [
    "@",
    "\t",
    "é",
    "→",
    "'",
    "\\q",
    "\"abc\\",
    "99999999999999999999",
];
const DIMS: [usize; 4] = [1, 61, 1024, 3072];

/// Every lexer error message, by its fixed prefix. The inputs must
/// reach each one, so the parse digest covers every lexer error path.
const LEX_ERRORS: [&str; 7] = [
    "tab indentation is not allowed",
    "inconsistent dedent to column ",
    "dangling escape at end of line",
    "unknown escape \\",
    "unterminated string literal",
    "integer literal out of range: ",
    "unexpected character ",
];

/// The world's distinct sources in first-seen order, generated once
/// for both tests.
fn sources() -> &'static [String] {
    static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let world = World::generate(WorldConfig::small(77));
        let mut seen = HashSet::new();
        world
            .packages
            .iter()
            .filter(|pkg| seen.insert(pkg.source_text.as_str()))
            .map(|pkg| pkg.source_text.clone())
            .collect()
    })
}

/// SplitMix64: a fixed, seedless position picker.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Each source, its truncations and its insertions.
fn inputs(sources: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        let bounds: Vec<usize> = src
            .char_indices()
            .map(|(b, _)| b)
            .chain(std::iter::once(src.len()))
            .collect();
        let chars = bounds.len() - 1;
        out.push(src.clone());
        for k in 1..=TRUNCATIONS {
            out.push(src[..bounds[chars * k / (TRUNCATIONS + 1)]].to_owned());
        }
        for (j, insert) in INSERTIONS.iter().enumerate() {
            let pick = mix((i * INSERTIONS.len() + j) as u64) % bounds.len() as u64;
            let at = bounds[pick as usize];
            out.push(format!("{}{insert}{}", &src[..at], &src[at..]));
        }
    }
    out
}

#[test]
fn parses_match_the_recorded_digest() {
    let sources = sources();
    assert_eq!(sources.len(), SOURCES);
    let inputs = inputs(sources);
    assert_eq!(inputs.len(), SOURCES * (1 + TRUNCATIONS + INSERTIONS.len()));
    let mut hasher = Sha256Hasher::new();
    let mut reached = HashSet::new();
    for input in &inputs {
        let parsed = parse(input);
        if let Err(err) = &parsed {
            if let Some(prefix) = LEX_ERRORS.iter().find(|p| err.message.starts_with(*p)) {
                reached.insert(*prefix);
            }
        }
        hasher.update(format!("{parsed:?}\n").as_bytes());
    }
    let missed: Vec<_> = LEX_ERRORS
        .iter()
        .filter(|p| !reached.contains(*p))
        .collect();
    assert!(missed.is_empty(), "lexer errors never reached: {missed:?}");
    assert_eq!(hasher.finalize().to_string(), PARSE_SHA256);
}

#[test]
fn embeddings_match_the_recorded_digest() {
    let sources = sources();
    assert_eq!(sources.len(), SOURCES);
    let mut hasher = Sha256Hasher::new();
    for src in sources {
        let module = parse(src).expect("world sources parse");
        for dim in DIMS {
            let embedding = Embedder::new(dim).embed_sparse(&module);
            hasher.update(&(embedding.nnz() as u64).to_le_bytes());
            for &index in embedding.indices() {
                hasher.update(&index.to_le_bytes());
            }
            for value in embedding.values() {
                hasher.update(&value.to_bits().to_le_bytes());
            }
            hasher.update(&embedding.norm().to_bits().to_le_bytes());
        }
    }
    assert_eq!(hasher.finalize().to_string(), EMBED_SHA256);
}
