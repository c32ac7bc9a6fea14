//! R11 fixture: a checksum computed outside the audited envelope code.
//! Exactly one finding — the hand-rolled trailer below; the envelope
//! instance, the pragma'd probe, and the test-scoped reference all stay
//! silent.

fn bad_seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = util::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Routed through the one audited envelope: silent.
fn good_seal(body: &[u8]) -> Vec<u8> {
    util::frame::Sealed::new(*b"FIXT", 1).encode(|w| w.put_bytes(body))
}

/// Times the checksum itself; frames nothing.
// dqmc-lint: allow(hand_framing)
fn audited_probe(bytes: &[u8]) -> u32 {
    util::crc32(bytes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn references_are_fine() {
        assert_eq!(util::crc32(b""), 0);
    }
}
