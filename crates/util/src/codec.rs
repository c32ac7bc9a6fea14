//! Little-endian binary codec primitives shared by every binary format of
//! the workspace (`DQCP`, `DQCW`, `DQRC`, `DQSM`, `DQSR`, `DQSF`).
//!
//! This module provides the field level: the writer/reader pair, the error
//! taxonomy, a table-driven CRC-32 (IEEE polynomial) and an FNV-1a 64-bit
//! hash used to fingerprint simulation parameters. The envelopes around the
//! fields (magic, version, length, checksum) live in [`crate::frame`].
//! Every count read from input is checked against the bytes that remain
//! *before* anything is reserved for it, so a decoder built from these
//! reads is total: malformed bytes give a [`CodecError`], never a panic or
//! an allocation larger than the input justifies.

use std::fmt;

/// Why a decode failed. Every variant is a clean error: no decode path may
/// panic on malformed bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the requested field.
    Truncated {
        /// Bytes requested by the read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The leading magic bytes did not match.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The payload checksum did not match its header.
    BadChecksum {
        /// CRC recorded in the file.
        stored: u32,
        /// CRC recomputed over the payload.
        computed: u32,
    },
    /// A field decoded to a value that violates its invariant.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated stream: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported format version {found} (expected {expected})"
                )
            }
            CodecError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CodecError::Invalid(msg) => write!(f, "invalid field: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// including NaN payloads and signed zero).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u64` length prefix followed by each `f64`.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Writes a flag as one byte, 0 or 1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a `u64` length prefix followed by the bytes.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_bytes(v);
    }

    /// Writes a string as a blob of its UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_blob(s.as_bytes());
    }

    /// Writes a `u64` count followed by each index as a `u64`.
    pub fn put_indices(&mut self, v: &[usize]) {
        self.put_u64(v.len() as u64);
        for &i in v {
            self.put_u64(i as u64);
        }
    }
}

/// Bounds-checked little-endian byte source over a borrowed slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.chunk(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let c = self.chunk(4)?;
        Ok(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let c = self.chunk(8)?;
        Ok(u64::from_le_bytes([
            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.chunk(n)
    }

    /// Reads a `u64` length; one that does not fit a `usize` saturates, and
    /// so fails whatever bounds check the caller applies next.
    fn get_len(&mut self) -> Result<usize, CodecError> {
        Ok(usize::try_from(self.get_u64()?).unwrap_or(usize::MAX))
    }

    /// Reads a `u64` element count and checks that `count` elements of at
    /// least `elem_bytes` each can still follow, so the caller may reserve
    /// for `count` without a corrupt prefix driving the allocation.
    pub fn get_count(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let count = self.get_len()?;
        let needed = count.saturating_mul(elem_bytes);
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads `count` `f64`s (no prefix); the bytes are claimed before the
    /// vector is allocated.
    pub fn get_f64s(&mut self, count: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.chunk(count.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Reads a `u64` length prefix and that many `f64`s.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len()?;
        self.get_f64s(len)
    }

    /// Reads a flag written by [`ByteWriter::put_bool`]; `what` names the
    /// field in the error for any byte other than 0 or 1.
    pub fn get_bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::Invalid(format!(
                "{what} flag must be 0 or 1, found {v}"
            ))),
        }
    }

    /// Reads bytes written by [`ByteWriter::put_blob`], borrowed from the
    /// input.
    pub fn get_blob(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_len()?;
        self.chunk(len)
    }

    /// Reads a string written by [`ByteWriter::put_str`].
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        match std::str::from_utf8(self.get_blob()?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(CodecError::Invalid("string field is not UTF-8".into())),
        }
    }

    /// Reads a list written by [`ByteWriter::put_indices`], which must be
    /// strictly ascending; `what` names the list in the error.
    pub fn get_indices(&mut self, what: &str) -> Result<Vec<usize>, CodecError> {
        let count = self.get_count(8)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.get_u64()? as usize);
        }
        if !out.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Invalid(format!(
                "{what} must be strictly ascending"
            )));
        }
        Ok(out)
    }

    /// Ends a decode: bytes left over after `what` are an error.
    pub fn finish(&self, what: &str) -> Result<(), CodecError> {
        if self.is_exhausted() {
            return Ok(());
        }
        Err(CodecError::Invalid(format!(
            "{} trailing bytes after {what}",
            self.remaining()
        )))
    }
}

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial:
/// `CRC_TABLES[0]` is the classic byte table, `CRC_TABLES[s][b]` the CRC of
/// byte `b` followed by `s` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`, eight bytes per
/// step. Every envelope in [`crate::frame`] pays for this once per image.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Incremental FNV-1a 64-bit hasher (parameter fingerprints).
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Folds an `f64` bit pattern into the hash.
    pub fn update_f64(&mut self, v: f64) {
        self.update_u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64(std::f64::consts::PI);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert!(r.is_exhausted());
    }

    #[test]
    fn round_trip_f64_slice() {
        let v = [1.0, -2.5, 1e-300, f64::INFINITY];
        let mut w = ByteWriter::new();
        w.put_f64_slice(&v);
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).get_f64_vec().unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u64(3);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.get_u64().is_err());
        }
        // A length prefix promising more f64s than remain must not allocate
        // or panic.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).get_f64_vec(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn field_helpers_round_trip() {
        let mut w = ByteWriter::new();
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("grid = 2\u{3b2}");
        w.put_indices(&[0, 3, 7]);
        w.put_blob(&[0xFF, 0]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_bool("a").unwrap());
        assert!(!r.get_bool("b").unwrap());
        assert_eq!(r.get_str().unwrap(), "grid = 2\u{3b2}");
        assert_eq!(r.get_indices("points").unwrap(), vec![0, 3, 7]);
        assert_eq!(r.get_blob().unwrap(), [0xFF, 0]);
        assert_eq!(r.finish("the fields"), Ok(()));
        // Every truncation of every field is a clean error.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let all = (|| {
                r.get_bool("a")?;
                r.get_bool("b")?;
                r.get_str()?;
                r.get_indices("points")?;
                r.get_blob()
            })();
            assert!(all.is_err(), "cut {cut}");
        }
    }

    #[test]
    fn field_helpers_reject_invalid_values() {
        let invalid = |r: Result<_, CodecError>| matches!(r, Err(CodecError::Invalid(_)));
        assert!(invalid(ByteReader::new(&[2]).get_bool("cached").map(drop)));
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0xC3, 0x28]);
        assert!(invalid(
            ByteReader::new(&w.into_bytes()).get_str().map(drop)
        ));
        for bad in [[3usize, 3], [4, 2]] {
            let mut w = ByteWriter::new();
            w.put_indices(&bad);
            let bytes = w.into_bytes();
            assert!(invalid(
                ByteReader::new(&bytes).get_indices("points").map(drop)
            ));
        }
        assert!(invalid(ByteReader::new(&[0]).finish("nothing")));
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left_before_any_reserve() {
        // 16 bytes follow the prefix: two 8-byte elements fit, three do not,
        // and a count whose byte size overflows is just as cleanly refused.
        for (count, elem, ok) in [
            (2u64, 8usize, true),
            (3, 8, false),
            (16, 1, true),
            (17, 1, false),
            (u64::MAX, 8, false),
            (1 << 61, 8, false),
        ] {
            let mut w = ByteWriter::new();
            w.put_u64(count);
            w.put_bytes(&[0; 16]);
            let bytes = w.into_bytes();
            let got = ByteReader::new(&bytes).get_count(elem);
            assert_eq!(got.is_ok(), ok, "count {count} x {elem} bytes: {got:?}");
        }
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_blob().is_err());
        assert!(ByteReader::new(&bytes).get_f64_vec().is_err());
        assert!(ByteReader::new(&bytes).get_indices("points").is_err());
        assert!(ByteReader::new(&bytes).get_f64s(usize::MAX).is_err());
    }

    /// The nibble-table loop `crc32` was before slicing-by-8: the reference.
    fn crc32_nibble(data: &[u8]) -> u32 {
        let mut table = [0u32; 16];
        for (i, t) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..4 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *t = c;
        }
        let mut crc = !0u32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0x0F) as usize] ^ (crc >> 4);
            crc = table[((crc ^ (b as u32 >> 4)) & 0x0F) as usize] ^ (crc >> 4);
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Single-bit sensitivity.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn crc32_matches_the_nibble_reference_at_every_length_and_alignment() {
        let mut rng = crate::Rng::new(0xC5C);
        let data: Vec<u8> = (0..320).map(|_| rng.next_u64() as u8).collect();
        for start in 0..=8 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_nibble(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn fnv_distinguishes_field_order() {
        let mut a = Fnv1a::new();
        a.update_u64(1);
        a.update_u64(2);
        let mut b = Fnv1a::new();
        b.update_u64(2);
        b.update_u64(1);
        assert_ne!(a.finish(), b.finish());
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(Fnv1a::new().finish(), 0xCBF2_9CE4_8422_2325);
    }
}
