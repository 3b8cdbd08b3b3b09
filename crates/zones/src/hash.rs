//! FNV-1a/64, the workspace's one dependency-free stable hash: request
//! cache keys, the daemon's disk-tier checksum, the `PTEA` artifact
//! checksum and structural digests, contract refinement digests, and
//! the passed-list shard assignment all fold through [`Digest`]. Not
//! cryptographic — everything it keys is a performance artifact or a
//! corruption check, never a security boundary.

/// Streaming FNV-1a/64. Deterministic across processes and
/// platforms (unlike `std`'s `RandomState`), which is the whole point:
/// digests are persisted and compared across daemon restarts.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// A fresh digest (FNV offset basis).
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes, one FNV step each.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(u64::from(b));
        }
    }

    /// Folds one whole word in a single FNV step (xor, then multiply) —
    /// cheaper than [`Digest::write_u64`]'s eight byte steps, for
    /// in-process hashes that are never compared with byte-wise ones.
    pub(crate) fn write_word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a length-prefixed string (prefixing prevents boundary
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// FNV-1a/64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    d.finish()
}
