//! SHA-256 artifact signatures, implemented from scratch.
//!
//! The paper's prototype computes package signatures with Python's
//! `hashlib` (§III-C) and uses them for the *duplicated* edge: two nodes
//! with the same signature are the same package seen through different
//! sources. No hashing crate is on the approved dependency list, so this
//! module carries a self-contained FIPS 180-4 SHA-256. The checkpoint
//! envelopes of `malgraph_core::checkpoint` are sealed with it too.
//!
//! # Two block functions, one digest
//!
//! [`Sha256Hasher`] hands whole 64-byte blocks, in place, to one block
//! function. On an x86-64 CPU that has the SHA extensions (detected at
//! run time) it runs a kernel built on `sha256rnds2`, `sha256msg1` and
//! `sha256msg2`, two rounds per instruction; on any other CPU or target
//! it runs the portable compressor, the FIPS 180-4 rounds in plain Rust.
//! Both compute the same function, so no digest, signature or checkpoint
//! byte depends on the host. The portable compressor stays for two
//! reasons: it is the fallback, and it is the reference the tests check
//! the kernel against, since on a host with the extensions no digest
//! runs it otherwise.

use std::fmt;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 256-bit SHA-256 digest used as a package signature.
///
/// # Examples
///
/// ```
/// use oss_types::Sha256;
///
/// let d = Sha256::digest(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sha256([u8; 32]);

impl Sha256 {
    /// Hashes `data` in one shot.
    pub fn digest(data: &[u8]) -> Self {
        let mut hasher = Sha256Hasher::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Hashes the UTF-8 bytes of a string.
    pub fn digest_str(data: &str) -> Self {
        Self::digest(data.as_bytes())
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Constructs a digest from raw bytes (e.g. parsed from a report).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Sha256(bytes)
    }

    /// A short 8-hex-character prefix, convenient for log lines and the
    /// DOT renderings of graph nodes.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use oss_types::hash::Sha256Hasher;
/// use oss_types::Sha256;
///
/// let mut h = Sha256Hasher::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256Hasher {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha256Hasher {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256Hasher {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len += data.len() as u64;
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Sha256 {
        // The padded tail: the buffered bytes, 0x80, zeros, and the
        // message length in bits as a big-endian u64 closing the last
        // block. It takes a second block when fewer than 9 bytes are left
        // after the buffered ones.
        let mut tail = [[0u8; 64]; 2];
        let blocks = if self.buffer_len < 56 { 1 } else { 2 };
        let bytes = tail.as_flattened_mut();
        bytes[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        bytes[self.buffer_len] = 0x80;
        let bit_len = self.total_len.wrapping_mul(8);
        bytes[blocks * 64 - 8..blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..blocks]);
        digest_of(&self.state)
    }
}

/// The digest a final hash state spells: its words, big-endian.
fn digest_of(state: &[u32; 8]) -> Sha256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    Sha256(out)
}

/// Runs the compression function over `blocks`, in order: the SHA
/// extensions' kernel where the CPU has it, else the portable rounds.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if sha_extensions() {
        // SAFETY: `sha_extensions` has just detected on this CPU every
        // feature the kernel is compiled for: sha, sse2, ssse3, sse4.1.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        unsafe {
            compress_sha_ni(state, blocks)
        };
    } else {
        compress_portable(state, blocks);
    }
}

/// Whether this CPU can run the SHA extensions' kernel.
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The compression function on the x86 SHA extensions. Each
/// `sha256rnds2` runs two rounds over the working variables held as two
/// vectors, A B E F and C D G H (lane 3 first); after two rounds the old
/// A B E F is the new C D G H, so the two vectors swap roles.
///
/// Keep closures out of the body: in a release build with several
/// codegen units, LLVM left one out of line, and the call made the state
/// vectors round-trip through the stack on every round, at a third of
/// the throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes([f, e, b, a]);
    let mut cdgh = lanes([h, g, d, c]);
    for block in blocks {
        let (abef_save, cdgh_save) = (abef, cdgh);
        let mut m = [0u32; 16];
        for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        // The schedule's latest sixteen words, four to a vector, oldest
        // first: round group `i` uses `w0`, then retires it.
        let mut w0 = lanes([m[0], m[1], m[2], m[3]]);
        let mut w1 = lanes([m[4], m[5], m[6], m[7]]);
        let mut w2 = lanes([m[8], m[9], m[10], m[11]]);
        let mut w3 = lanes([m[12], m[13], m[14], m[15]]);
        for (i, k) in K.as_chunks::<4>().0.iter().enumerate() {
            if i >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let w9_12 = _mm_alignr_epi8::<4>(w3, w2);
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w9_12);
                w0 = _mm_sha256msg2_epu32(sum, w3);
            }
            let wk = _mm_add_epi32(w0, lanes(*k));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            [w0, w1, w2, w3] = [w1, w2, w3, w0];
        }
        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);
    }
    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

/// A vector of four words, `w[0]` in lane 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn lanes(w: [u32; 4]) -> std::arch::x86_64::__m128i {
    std::arch::x86_64::_mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// The compression function in plain Rust, FIPS 180-4 §6.2.2 as written.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Default for Sha256Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: Sha256) -> String {
        d.to_string()
    }

    /// SHA-256 through the portable compressor alone, the message padded
    /// the plain way: the reference for the dispatching hasher, its
    /// buffering and its padding.
    fn portable_digest(data: &[u8]) -> Sha256 {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, padded.as_chunks::<64>().0);
        digest_of(&state)
    }

    #[test]
    fn fips_180_4_vectors() {
        if !sha_extensions() {
            eprintln!(
                "no SHA extensions on this CPU: both paths below run the portable compressor"
            );
        }
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (message, expected) in vectors {
            assert_eq!(hex(Sha256::digest(message)), expected);
            assert_eq!(hex(portable_digest(message)), expected);
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex(Sha256::digest(&data)), expected);
        assert_eq!(hex(portable_digest(&data)), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn hasher_matches_the_portable_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4200),
            cuts in proptest::collection::vec(any::<usize>(), 0..24),
        ) {
            // Feed `data` in pieces that end at the sorted cut points.
            let mut ends: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            ends.sort_unstable();
            ends.push(data.len());
            let mut hasher = Sha256Hasher::new();
            let mut start = 0;
            for end in ends {
                hasher.update(&data[start..end]);
                start = end;
            }
            prop_assert_eq!(hasher.finalize(), portable_digest(&data));
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55, 56 and 64 bytes exercise the padding edge cases.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let one = Sha256::digest(&data);
            let mut inc = Sha256Hasher::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(inc.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn short_prefix() {
        let d = Sha256::digest(b"abc");
        assert_eq!(d.short(), "ba7816bf");
        assert_eq!(d.short().len(), 8);
    }

    #[test]
    fn digest_str_matches_bytes() {
        assert_eq!(Sha256::digest_str("abc"), Sha256::digest(b"abc"));
    }

    #[test]
    fn from_bytes_round_trips() {
        let d = Sha256::digest(b"roundtrip");
        assert_eq!(Sha256::from_bytes(*d.as_bytes()), d);
    }
}
