//! Pure-Rust streaming SHA-256 (FIPS 180-4): the hash behind the
//! journal's chain, snapshot digests and the audit's file fingerprints.
//!
//! The build environment is offline, so `sha2` is not available, and
//! every crate forbids `unsafe`, so neither are the SHA-NI intrinsics:
//! this is safe scalar Rust. It sits on the latency path of every
//! forwarded request — one digest per journal record on the write
//! side, one more per record on every verify, recover, tail and audit
//! pass — and after the record codec stopped copying, it is the
//! largest single share of an append. So the hasher streams:
//! [`Sha256::update`] compresses whole 64-byte blocks straight from the
//! caller's slice, buffers only the ragged tail in a fixed block, and
//! never touches the heap; the message schedule is a rolling 16-word
//! window rather than a 64-word array filled per block. [`sha256`] and
//! [`sha256_hex`] are one-shot wrappers over the same state machine.

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

/// Incremental SHA-256: feed the message in any number of pieces, then
/// take the digest. Fixed size, no heap use.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The ragged tail: bytes fed so far that do not fill a block.
    block: [u8; 64],
    /// Total message bytes fed so far; `len % 64` of them sit in `block`.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            len: 0,
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
            compress(&mut self.state, &self.block);
        }
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact(64) yields 64 bytes"),
            );
        }
        let tail = blocks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
    }

    /// Pads the message (0x80, zeros, the bit length as a big-endian
    /// `u64`, to a multiple of 64 bytes) and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let fill = (self.len % 64) as usize;
        self.block[fill] = 0x80;
        self.block[fill + 1..].fill(0);
        if fill >= 56 {
            // No room left for the length: it goes in a block of its own.
            compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.block);

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

    // FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn empty_input() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        // Fed in uneven pieces so the vector also crosses every
        // buffer/direct-block seam thousands of times.
        let mut hasher = Sha256::new();
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
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn every_padding_branch_against_fixed_digests() {
        // Three-block messages of 'x' whose last block holds 55 bytes
        // (length fits after the 0x80), 56 and 63 (length spills into a
        // fourth block), and 64 (the tail is empty again). Digests from
        // `head -c N /dev/zero | tr '\0' x | sha256sum`.
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
            assert_eq!(sha256_hex(&vec![b'x'; n]), want, "{n} bytes");
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split_and_chunking() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let want = sha256(message);
            for split in 0..=len {
                let mut hasher = Sha256::new();
                hasher.update(&message[..split]);
                hasher.update(&message[split..]);
                assert_eq!(hasher.finalize(), want, "len {len} split {split}");
            }
            for chunk in [1usize, 7, 63, 64, 65] {
                let mut hasher = Sha256::new();
                for piece in message.chunks(chunk) {
                    hasher.update(piece);
                }
                assert_eq!(hasher.finalize(), want, "len {len} chunk {chunk}");
            }
        }
    }
}
