//! Streaming SHA-256 (FIPS 180-4): the hash behind the journal's
//! chain, snapshot digests and the audit's file fingerprints.
//!
//! It sits on the latency path of every forwarded request — one digest
//! per journal record on the write side, one more per record on every
//! verify, recover, tail and audit pass — and it is the largest single
//! share of a replayed record. So the hasher streams: [`Sha256::update`]
//! compresses whole 64-byte blocks straight from the caller's slice,
//! buffers only the ragged tail in a fixed block, and never touches the
//! heap. [`sha256`] and [`sha256_hex`] are one-shot wrappers over the
//! same state machine.
//!
//! Two block kernels, one digest. `compress` is safe scalar Rust with a
//! rolling 16-word message schedule: it runs everywhere and is the
//! oracle the tests hold the other kernel to. On x86-64 CPUs with the
//! SHA extensions, `ni::compress_blocks` runs the rounds in hardware
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`), about 5× faster on a
//! record-sized message. `Kernel::detect` picks one when a hasher is
//! made, not per piece or per block. The workspace takes no registry
//! dependencies, so `sha2` is not available; the hardware kernel is a
//! `#[target_feature]` function whose intrinsics are safe to call
//! inside it, and the one `unsafe` in the workspace's non-test code is
//! the call into it, made after `is_x86_feature_detected!` has
//! confirmed the features it enables. `sha256.blocks` counts the blocks
//! compressed, one relaxed add per digest.

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Folds one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        if i >= 16 {
            // Rolling schedule: w[i & 15] still holds W[i-16].
            let w15 = w[(i + 1) & 15];
            let w2 = w[(i + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[i & 15] = w[i & 15]
                .wrapping_add(s0)
                .wrapping_add(w[(i + 9) & 15])
                .wrapping_add(s1);
        }
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i & 15]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(s0.wrapping_add(maj));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The block kernel a digest runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// [`compress`], on any CPU.
    Portable,
    /// `ni::compress_blocks`. Only [`Kernel::detect`] builds it, and
    /// only after the CPU reported every feature that kernel enables.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs. `is_x86_feature_detected!`
    /// reads a cached word, but a record is hashed in ten pieces, so a
    /// hasher asks once, when it is made, not per piece or per block.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    /// Folds `blocks`, a whole number of 64-byte blocks, into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => {
                for block in blocks.chunks_exact(64) {
                    compress(
                        state,
                        block.try_into().expect("chunks_exact(64) yields 64 bytes"),
                    );
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => {
                // SAFETY: `ShaNi` is built only by `detect`, after
                // `is_x86_feature_detected!` confirmed sha, sse2, ssse3
                // and sse4.1, the features `ni::compress_blocks` enables.
                #[allow(unsafe_code)]
                unsafe {
                    ni::compress_blocks(state, blocks)
                }
            }
        }
    }
}

/// The x86-64 SHA-extensions kernel. The intrinsics it calls are safe
/// inside a function that enables their features; vectors are built
/// from integers (`_mm_set_epi32`, `_mm_set_epi64x`) and read back lane
/// by lane (`_mm_extract_epi32`), never through a pointer, so nothing
/// here is `unsafe` but the call into it.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// Four big-endian message words, word `i` in lane `i`: the 16
    /// bytes as they lie, then each lane's bytes reversed.
    #[target_feature(enable = "sse2,ssse3")]
    fn words(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        let lanes = _mm_set_epi64x((v >> 64) as i64, v as i64);
        _mm_shuffle_epi8(
            lanes,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }

    /// Message words W[t..t+4] from the four vectors before them:
    /// W[t-16] + σ0(W[t-15]) (msg1), plus W[t-7] (the byte shift), plus
    /// σ1(W[t-2]) (msg2).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds 4j..4j+4 on message words `w`: two on the low two words,
    /// two on the high two.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, j: usize) {
        let k = |i: usize| K[4 * j + i] as i32;
        let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// Folds `blocks`, a whole number of 64-byte blocks, into `state`.
    /// The hardware rounds keep the working variables as two vectors,
    /// (a, b, e, f) and (c, d, g, h), high lane first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let word = |i: usize| words(block[16 * i..16 * i + 16].try_into().expect("16 bytes"));
            let [mut w0, mut w1, mut w2, mut w3] = [word(0), word(1), word(2), word(3)];
            rounds(&mut abef, &mut cdgh, w0, 0);
            rounds(&mut abef, &mut cdgh, w1, 1);
            rounds(&mut abef, &mut cdgh, w2, 2);
            rounds(&mut abef, &mut cdgh, w3, 3);
            for j in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds(&mut abef, &mut cdgh, w0, j);
                w1 = schedule(w1, w2, w3, w0);
                rounds(&mut abef, &mut cdgh, w1, j + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds(&mut abef, &mut cdgh, w2, j + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds(&mut abef, &mut cdgh, w3, j + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// Incremental SHA-256: feed the message in any number of pieces, then
/// take the digest. Fixed size, no heap use.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The ragged tail: bytes fed so far that do not fill a block.
    block: [u8; 64],
    /// Total message bytes fed so far; `len % 64` of them sit in `block`.
    len: u64,
    /// The block kernel, picked when the hasher is made.
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            len: 0,
            kernel,
        }
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        let fill = (self.len % 64) as usize;
        self.len = self.len.wrapping_add(data.len() as u64);
        if fill > 0 {
            let take = data.len().min(64 - fill);
            self.block[fill..fill + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if fill + take < 64 {
                return;
            }
            self.kernel.compress(&mut self.state, &self.block);
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
    }

    /// Pads the message (0x80, zeros, the bit length as a big-endian
    /// `u64`, to a multiple of 64 bytes) and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Every block this digest compressed: the message, the 0x80 and
        // the 8-byte length, rounded up to whole blocks.
        crate::counter!("sha256.blocks").add((self.len + 9).div_ceil(64));
        let bit_len = self.len.wrapping_mul(8);
        let fill = (self.len % 64) as usize;
        self.block[fill] = 0x80;
        self.block[fill + 1..].fill(0);
        if fill >= 56 {
            // No room left for the length: it goes in a block of its own.
            self.kernel.compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.block);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Digest of `data`, as 32 raw bytes.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// A digest as 64 lowercase hex digits, held on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexDigest([u8; 64]);

impl HexDigest {
    /// Hex-encodes `digest`.
    pub fn of(digest: &[u8; 32]) -> Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 64];
        for (pair, byte) in out.chunks_exact_mut(2).zip(digest) {
            pair[0] = HEX[(byte >> 4) as usize];
            pair[1] = HEX[(byte & 0x0f) as usize];
        }
        HexDigest(out)
    }

    /// The 64 hex digits.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// Digest of `data` as a lowercase hex string (64 chars).
pub fn sha256_hex(data: &[u8]) -> String {
    HexDigest::of(&sha256(data)).as_str().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data`'s digest on `kernel`, fed in one piece.
    fn digest(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::with_kernel(kernel);
        hasher.update(data);
        hasher.finalize()
    }

    /// The hardware kernel, or `None` (said on stdout) on a CPU without
    /// the SHA extensions: the tests that need it then return early.
    fn hardware() -> Option<Kernel> {
        let kernel = Kernel::detect();
        if kernel == Kernel::Portable {
            println!("this CPU has no SHA extensions: the hardware kernel is not tested");
            return None;
        }
        Some(kernel)
    }

    /// The portable kernel, then the hardware one where the CPU has it.
    fn kernels() -> Vec<Kernel> {
        std::iter::once(Kernel::Portable)
            .chain(hardware())
            .collect()
    }

    /// A deterministic byte stream (SplitMix64), so every run checks the
    /// same messages.
    struct Bytes(u64);

    impl Bytes {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn fill(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    // FIPS 180-4 / NIST CAVP vectors, on every kernel this CPU runs.
    #[test]
    fn fips_vectors() {
        for kernel in kernels() {
            for (message, want) in [
                (
                    &b""[..],
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
            ] {
                assert_eq!(
                    HexDigest::of(&digest(kernel, message)).as_str(),
                    want,
                    "{kernel:?}, {} bytes",
                    message.len()
                );
            }
        }
    }

    #[test]
    fn million_a() {
        // Fed in uneven pieces so the vector also crosses every
        // buffer/direct-block seam thousands of times.
        for kernel in kernels() {
            let mut hasher = Sha256::with_kernel(kernel);
            let chunk = [b'a'; 1000];
            let mut left = 1_000_000usize;
            let mut step = 1usize;
            while left > 0 {
                let take = step.min(left);
                hasher.update(&chunk[..take]);
                left -= take;
                step = step % 997 + 1;
            }
            assert_eq!(
                HexDigest::of(&hasher.finalize()).as_str(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn every_padding_branch_against_fixed_digests() {
        // Three-block messages of 'x' whose last block holds 55 bytes
        // (length fits after the 0x80), 56 and 63 (length spills into a
        // fourth block), and 64 (the tail is empty again). Digests from
        // `head -c N /dev/zero | tr '\0' x | sha256sum`.
        for kernel in kernels() {
            for (n, want) in [
                (
                    128 + 55,
                    "b95933e340383f43cfb72bb337fbb80bd93b9f54f5b49f5cd9635d2c62e7f386",
                ),
                (
                    128 + 56,
                    "f3936e2eb513e068318995db8ff8a043fe9cbcf079934b8dfd49046c0fca45be",
                ),
                (
                    128 + 63,
                    "a4fd143dcb7cb51d322c1e2252027afce63f54209921b670a1991a535d5c17db",
                ),
                (
                    128 + 64,
                    "f5f3b40552876b425eea612377873720c5ab7b00c002f8ddf8f50417a02209fc",
                ),
            ] {
                assert_eq!(
                    HexDigest::of(&digest(kernel, &vec![b'x'; n])).as_str(),
                    want,
                    "{kernel:?}, {n} bytes"
                );
            }
        }
    }

    /// Every message length 0..=300, fed in two pieces at every split and
    /// in chunks of 1, 7, 63, 64 and 65 bytes, on every kernel: each
    /// digest equals the portable kernel's one-shot digest.
    #[test]
    fn kernels_agree_at_every_length_split_and_chunking() {
        let data = Bytes(0x05ca_1ab1e).fill(300);
        for len in 0..=data.len() {
            let message = &data[..len];
            let want = digest(Kernel::Portable, message);
            for kernel in kernels() {
                assert_eq!(digest(kernel, message), want, "{kernel:?}, len {len}");
                for split in 0..=len {
                    let mut hasher = Sha256::with_kernel(kernel);
                    hasher.update(&message[..split]);
                    hasher.update(&message[split..]);
                    let got = hasher.finalize();
                    assert_eq!(got, want, "{kernel:?}, len {len} split {split}");
                }
                for chunk in [1usize, 7, 63, 64, 65] {
                    let mut hasher = Sha256::with_kernel(kernel);
                    for piece in message.chunks(chunk) {
                        hasher.update(piece);
                    }
                    let got = hasher.finalize();
                    assert_eq!(got, want, "{kernel:?}, len {len} chunk {chunk}");
                }
            }
        }
    }

    /// Seeded random messages up to 4 KiB, fed to the hardware kernel in
    /// random pieces: its digest equals the portable kernel's.
    #[test]
    fn hardware_kernel_matches_portable_on_seeded_messages() {
        let Some(kernel) = hardware() else { return };
        let mut rng = Bytes(0x5eed_5a56);
        for case in 0..2_000 {
            let len = rng.below(4097);
            let message = rng.fill(len);
            let want = digest(Kernel::Portable, &message);
            let mut hasher = Sha256::with_kernel(kernel);
            let mut rest = &message[..];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rng.below(rest.len() + 1).max(1));
                hasher.update(piece);
                rest = tail;
            }
            assert_eq!(hasher.finalize(), want, "case {case}, len {len}");
        }
    }
}
