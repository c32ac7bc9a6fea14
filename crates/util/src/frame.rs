//! The two envelopes every checksummed binary format of the workspace is an
//! instance of.
//!
//! | envelope | layout | validated in this order | formats |
//! |---|---|---|---|
//! | [`Sealed`] | `magic \| version u32 \| body \| crc32(all of the preceding)` | CRC, magic, version | `DQRC`, `DQSM`, `DQSR` |
//! | [`Framed<T>`] | `magic \| version u32 \| tag [u8; T] \| len u64 \| payload \| crc32(payload)` | magic, version, length, CRC | `DQCP` (`T = 0`), `DQSF` (`T = 1`, the kind byte) |
//!
//! A format is a `const` of one of the two plus a body written and read
//! with [`ByteWriter`] / [`ByteReader`]; this module is the only place
//! where a magic or a version is compared and a checksum computed or
//! checked (lint R11 `hand-framing` holds the last). `Sealed` covers its
//! header with the CRC, so any damage reads as a checksum failure;
//! `Framed` leaves the header outside it, so a tampered version reports
//! [`CodecError::BadVersion`] and the length is validated before the
//! payload is read or allocated for — which is what a stream reader needs.

use crate::codec::{crc32, ByteReader, ByteWriter, CodecError};

/// Splits the trailing CRC-32 off `bytes` and verifies it over the rest.
fn checked(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let Some(at) = bytes.len().checked_sub(4) else {
        return Err(CodecError::Truncated {
            needed: 4,
            remaining: bytes.len(),
        });
    };
    let (body, tail) = bytes.split_at(at);
    let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    Ok(body)
}

/// Appends the CRC-32 of `out[from..]` to `out`.
fn seal(mut out: Vec<u8>, from: usize) -> Vec<u8> {
    let crc = crc32(&out[from..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The `magic | version` prefix both envelopes start with.
#[derive(Clone, Copy, Debug)]
struct Prefix {
    magic: [u8; 4],
    version: u32,
}

impl Prefix {
    fn begin(&self) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_bytes(&self.magic);
        w.put_u32(self.version);
        w
    }

    fn check(&self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.get_bytes(4)? != self.magic {
            return Err(CodecError::BadMagic);
        }
        let found = r.get_u32()?;
        if found != self.version {
            return Err(CodecError::BadVersion {
                found,
                expected: self.version,
            });
        }
        Ok(())
    }
}

/// `magic | version u32 | body | crc32(all of the preceding)`.
#[derive(Clone, Copy, Debug)]
pub struct Sealed(Prefix);

impl Sealed {
    /// The format with this magic and version.
    pub const fn new(magic: [u8; 4], version: u32) -> Self {
        Sealed(Prefix { magic, version })
    }

    /// One image: `body` appends the fields after the version.
    pub fn encode(&self, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = self.0.begin();
        body(&mut w);
        seal(w.into_bytes(), 0)
    }

    /// Checks the CRC, then magic, then version, and returns a reader over
    /// the body. The caller ends its decode with [`ByteReader::finish`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<ByteReader<'a>, CodecError> {
        let mut r = ByteReader::new(checked(bytes)?);
        self.0.check(&mut r)?;
        Ok(r)
    }
}

/// `magic | version u32 | tag [u8; T] | len u64 | payload | crc32(payload)`.
#[derive(Clone, Copy, Debug)]
pub struct Framed<const T: usize>(Prefix);

impl<const T: usize> Framed<T> {
    /// Bytes before the payload: magic, version, tag, length.
    pub const HEADER_LEN: usize = 4 + 4 + T + 8;

    /// The format with this magic and version.
    pub const fn new(magic: [u8; 4], version: u32) -> Self {
        Framed(Prefix { magic, version })
    }

    /// One frame: `payload` appends the payload fields.
    pub fn encode(&self, tag: [u8; T], payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = self.0.begin();
        w.put_bytes(&tag);
        w.put_u64(0);
        payload(&mut w);
        let mut out = w.into_bytes();
        let len = (out.len() - Self::HEADER_LEN) as u64;
        out[Self::HEADER_LEN - 8..Self::HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        seal(out, Self::HEADER_LEN)
    }

    /// Validates the header at the front of `bytes` — magic, then version —
    /// and returns the tag and the payload length it declares. Nothing past
    /// the header is read, so a stream reader can bound the length before
    /// it allocates for the payload.
    pub fn header(&self, bytes: &[u8]) -> Result<([u8; T], u64), CodecError> {
        let head = bytes.get(..Self::HEADER_LEN).ok_or(CodecError::Truncated {
            needed: Self::HEADER_LEN,
            remaining: bytes.len(),
        })?;
        let mut r = ByteReader::new(head);
        self.0.check(&mut r)?;
        let mut tag = [0u8; T];
        tag.copy_from_slice(r.get_bytes(T)?);
        Ok((tag, r.get_u64()?))
    }

    /// Verifies `payload | crc32(payload)` — what follows a header that
    /// declared `payload.len()` — and returns a reader over the payload.
    pub fn payload<'a>(&self, rest: &'a [u8]) -> Result<ByteReader<'a>, CodecError> {
        Ok(ByteReader::new(checked(rest)?))
    }

    /// Opens a frame that must account for the whole of `bytes`, so
    /// truncation and trailing garbage are both refused before the payload
    /// is looked at.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<([u8; T], ByteReader<'a>), CodecError> {
        let overhead = Self::HEADER_LEN + 4;
        let truncated = |needed| CodecError::Truncated {
            needed,
            remaining: bytes.len(),
        };
        if bytes.len() < overhead {
            return Err(truncated(overhead));
        }
        let (tag, len) = self.header(bytes)?;
        if len != (bytes.len() - overhead) as u64 {
            return Err(truncated((len as usize).saturating_add(overhead)));
        }
        Ok((tag, self.payload(&bytes[Self::HEADER_LEN..])?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOX: Sealed = Sealed::new(*b"TSBX", 3);
    const PLAIN: Framed<0> = Framed::new(*b"TSFR", 1);
    const KINDED: Framed<1> = Framed::new(*b"TSFK", 2);

    #[test]
    fn sealed_round_trips_and_checks_crc_then_magic_then_version() {
        let image = BOX.encode(|w| w.put_bytes(b"hello dqmc"));
        assert_eq!(&image[..8], b"TSBX\x03\0\0\0");
        assert_eq!(image.len(), 8 + 10 + 4);
        let mut r = BOX.open(&image).unwrap();
        assert_eq!(r.get_bytes(10).unwrap(), b"hello dqmc");
        assert_eq!(r.finish("the body"), Ok(()));
        // The CRC covers the header: damage anywhere is a checksum failure.
        for at in [0, 4, 12, image.len() - 1] {
            let mut bad = image.clone();
            bad[at] ^= 1;
            assert!(
                matches!(BOX.open(&bad), Err(CodecError::BadChecksum { .. })),
                "byte {at}"
            );
        }
        // Behind a valid CRC the prefix is still compared: another format's
        // image, or another version's, is not this one.
        let other = Sealed::new(*b"TSBY", 3).encode(|_| {});
        assert_eq!(BOX.open(&other).err(), Some(CodecError::BadMagic));
        let newer = Sealed::new(*b"TSBX", 4).encode(|_| {});
        assert_eq!(
            BOX.open(&newer).err(),
            Some(CodecError::BadVersion {
                found: 4,
                expected: 3
            })
        );
        for cut in 0..image.len() {
            assert!(BOX.open(&image[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn framed_round_trips_with_and_without_a_tag() {
        let payload = b"hello dqmc";
        let image = PLAIN.encode([], |w| w.put_bytes(payload));
        assert_eq!(image.len(), Framed::<0>::HEADER_LEN + payload.len() + 4);
        assert_eq!(image[8..16], 10u64.to_le_bytes());
        let ([], mut r) = PLAIN.open(&image).unwrap();
        assert_eq!(r.get_bytes(10).unwrap(), payload);
        assert!(r.is_exhausted());

        let image = KINDED.encode([7], |w| w.put_bytes(payload));
        assert_eq!(Framed::<1>::HEADER_LEN, 17);
        assert_eq!(KINDED.header(&image).unwrap(), ([7], 10));
        let mut r = KINDED.payload(&image[17..]).unwrap();
        assert_eq!(r.get_bytes(10).unwrap(), payload);
        let ([7], _) = KINDED.open(&image).unwrap() else {
            panic!("tag lost");
        };
        // An empty payload is a frame too.
        let empty = KINDED.encode([9], |_| {});
        assert_eq!(empty.len(), 17 + 4);
        assert!(KINDED.open(&empty).unwrap().1.is_exhausted());
    }

    #[test]
    fn framed_rejects_tampering_in_header_order() {
        let framed = PLAIN.encode([], |w| w.put_bytes(b"payload"));
        // Bad magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(PLAIN.open(&bad), Err(CodecError::BadMagic)));
        // Version bump is reported as a version problem, not a checksum one,
        // and magic is looked at first.
        let mut bad = framed.clone();
        bad[4] = 99;
        assert!(matches!(
            PLAIN.open(&bad),
            Err(CodecError::BadVersion { found: 99, .. })
        ));
        bad[0] ^= 0xFF;
        assert!(matches!(PLAIN.open(&bad), Err(CodecError::BadMagic)));
        // A wrong length is refused before the CRC is computed.
        let mut bad = framed.clone();
        bad[8] ^= 1;
        bad[17] ^= 1;
        assert!(matches!(
            PLAIN.open(&bad),
            Err(CodecError::Truncated { .. })
        ));
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            PLAIN.open(&bad),
            Err(CodecError::Truncated { .. })
        ));
        // Any payload byte flip fails the CRC.
        let mut bad = framed.clone();
        bad[17] ^= 0x01;
        assert!(matches!(
            PLAIN.open(&bad),
            Err(CodecError::BadChecksum { .. })
        ));
        // Truncations never panic.
        for cut in 0..framed.len() {
            assert!(PLAIN.open(&framed[..cut]).is_err());
            assert!(PLAIN.header(&framed[..cut]).is_err() || cut >= 16);
        }
        // Trailing garbage is rejected by the length check.
        let mut long = framed.clone();
        long.push(0);
        assert!(PLAIN.open(&long).is_err());
    }

    #[test]
    fn header_reads_nothing_past_itself() {
        // A header alone, declaring a payload that is not there: `header`
        // answers, and the caller decides what the length may be.
        let mut w = ByteWriter::new();
        w.put_bytes(b"TSFK");
        w.put_u32(2);
        w.put_u8(6);
        w.put_u64(u64::MAX);
        assert_eq!(KINDED.header(&w.into_bytes()).unwrap(), ([6], u64::MAX));
    }
}
