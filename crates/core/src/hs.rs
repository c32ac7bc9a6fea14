//! The Hubbard–Stratonovich (HS) auxiliary field.
//!
//! One Ising variable `h_{l,i} = ±1` per (time slice, site) pair decouples
//! the quartic interaction. The Metropolis walk of Algorithm 1 visits and
//! proposes to flip every element once per sweep.

use util::Rng;

/// The discrete HS field `h ∈ {−1, +1}^{L×N}`, stored slice-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HsField {
    nsites: usize,
    slices: usize,
    h: Vec<i8>,
}

impl HsField {
    /// All-up field (deterministic start, useful in tests).
    pub fn ones(nsites: usize, slices: usize) -> Self {
        HsField {
            nsites,
            slices,
            h: vec![1; nsites * slices],
        }
    }

    /// Uniformly random initial configuration.
    pub fn random(nsites: usize, slices: usize, rng: &mut Rng) -> Self {
        let h = (0..nsites * slices).map(|_| rng.next_sign()).collect();
        HsField { nsites, slices, h }
    }

    /// Number of sites `N`.
    pub fn nsites(&self) -> usize {
        self.nsites
    }

    /// Number of time slices `L`.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Value `h_{l,i}` as ±1.0.
    #[inline]
    pub fn get(&self, l: usize, i: usize) -> f64 {
        debug_assert!(l < self.slices && i < self.nsites);
        self.h[l * self.nsites + i] as f64
    }

    /// Flips `h_{l,i}` in place.
    #[inline]
    pub fn flip(&mut self, l: usize, i: usize) {
        debug_assert!(l < self.slices && i < self.nsites);
        let v = &mut self.h[l * self.nsites + i];
        *v = -*v;
    }

    /// Net magnetisation of the field, `Σ h / (LN)` — handy diagnostics.
    pub fn mean(&self) -> f64 {
        self.h.iter().map(|&v| v as i64).sum::<i64>() as f64 / self.h.len() as f64
    }

    /// Serializes the field (dims then one byte per Ising variable) for
    /// checkpointing.
    pub fn encode(&self, w: &mut util::codec::ByteWriter) {
        w.put_u32(self.nsites as u32);
        w.put_u32(self.slices as u32);
        for &v in &self.h {
            w.put_u8(v as u8);
        }
    }

    /// Deserializes a field written by [`HsField::encode`]. Any byte that is
    /// not ±1 decodes to [`util::codec::CodecError::Invalid`] — a corrupt
    /// field must never enter a simulation.
    pub fn decode(r: &mut util::codec::ByteReader<'_>) -> Result<Self, util::codec::CodecError> {
        let nsites = r.get_u32()? as usize;
        let slices = r.get_u32()? as usize;
        let len = nsites.checked_mul(slices).ok_or_else(|| {
            util::codec::CodecError::Invalid("HS field dimensions overflow".into())
        })?;
        let bytes = r.get_bytes(len)?;
        let mut h = Vec::with_capacity(len);
        for (i, &b) in bytes.iter().enumerate() {
            let v = b as i8;
            if v != 1 && v != -1 {
                return Err(util::codec::CodecError::Invalid(format!(
                    "HS field byte {i} is {v}, expected ±1"
                )));
            }
            h.push(v);
        }
        Ok(HsField { nsites, slices, h })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_field() {
        let f = HsField::ones(4, 3);
        assert_eq!(f.nsites(), 4);
        assert_eq!(f.slices(), 3);
        for l in 0..3 {
            for i in 0..4 {
                assert_eq!(f.get(l, i), 1.0);
            }
        }
        assert_eq!(f.mean(), 1.0);
    }

    #[test]
    fn flip_is_involution() {
        let mut f = HsField::ones(4, 2);
        f.flip(1, 2);
        assert_eq!(f.get(1, 2), -1.0);
        assert_eq!(f.get(1, 1), 1.0);
        assert_eq!(f.get(0, 2), 1.0);
        f.flip(1, 2);
        assert_eq!(f, HsField::ones(4, 2));
    }

    #[test]
    fn random_field_is_balanced_and_seeded() {
        let mut rng = util::Rng::new(3);
        let f = HsField::random(50, 40, &mut rng);
        assert!(f.mean().abs() < 0.1);
        let mut rng2 = util::Rng::new(3);
        let f2 = HsField::random(50, 40, &mut rng2);
        assert_eq!(f, f2);
    }

    #[test]
    fn codec_round_trip_and_validation() {
        let mut rng = util::Rng::new(9);
        let f = HsField::random(6, 5, &mut rng);
        let mut w = util::codec::ByteWriter::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let got = HsField::decode(&mut util::codec::ByteReader::new(&bytes)).unwrap();
        assert_eq!(got, f);
        // A non-±1 byte is rejected cleanly.
        let mut bad = bytes.clone();
        bad[8] = 3;
        assert!(HsField::decode(&mut util::codec::ByteReader::new(&bad)).is_err());
        // Truncation is a clean error too.
        assert!(HsField::decode(&mut util::codec::ByteReader::new(&bytes[..10])).is_err());
    }
}
