//! The `DQSF` wire protocol: length-prefixed, CRC-guarded frames.
//!
//! Every message between `dqmc-serve` and its clients is one frame: a
//! [`util::frame::Framed`] envelope whose one-byte tag is the frame kind
//! (DESIGN.md "Binary formats"). The header is validated before the
//! payload is read or allocated for, string lengths are checked against
//! the bytes that remain, and a hard [`MAX_FRAME`] cap applied here means a
//! hostile or corrupt length prefix can neither allocate unboundedly nor
//! stall a reader. No decode path may panic on arbitrary socket bytes — the
//! property tests in `tests/protocol.rs` fuzz exactly that.

use std::io::{Read, Write};
use util::codec::{ByteReader, ByteWriter, CodecError};
use util::frame::Framed;

/// Frame magic: "DQSF" (DQmc Service Frame).
pub const MAGIC: &[u8; 4] = b"DQSF";
/// Protocol version this build speaks.
pub const VERSION: u32 = 1;
/// Hard cap on a frame payload. Grid specs and per-point observable JSON
/// are a few hundred bytes; 4 MiB leaves room for huge grids while bounding
/// what one frame can make a peer allocate.
pub const MAX_FRAME: usize = 1 << 22;
/// Fixed header size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = Framed::<1>::HEADER_LEN;

/// The frame envelope; the tag is [`Frame::kind`].
const DQSF: Framed<1> = Framed::new(*MAGIC, VERSION);

/// Everything that can cross the wire, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: run this grid.
    Submit {
        /// Tenant identity (admission accounting; not authentication).
        tenant: String,
        /// Priority class for the campaign's jobs.
        priority: u8,
        /// The grid-spec text, exactly as a `.sweep` file.
        grid: String,
    },
    /// Server → client: the submission was admitted.
    Accepted {
        /// Server-side request id (diagnostics).
        request: u64,
        /// Points the grid resolves to.
        points: u64,
        /// Points that will be served from the result cache.
        cached: u64,
        /// Jobs enqueued for the remaining points (0 on a full warm hit).
        jobs: u64,
    },
    /// Server → client: the submission was refused; the connection stays
    /// usable.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Server → client: one point's observables, streamed the moment the
    /// point completes (or immediately, for cache hits).
    Point {
        /// Canonical point index within the grid.
        index: u64,
        /// True when served from the result cache.
        cached: bool,
        /// The point's observables-JSON fragment.
        json: String,
    },
    /// Server → client: the campaign is complete.
    Done {
        /// The full observables document — byte-identical to what
        /// `dqmc-run` would have printed for the same grid.
        observables: String,
        /// Jobs actually enqueued (0 proves a warm hit ran nothing).
        jobs_run: u64,
        /// Points served from cache.
        cached_points: u64,
        /// Points computed this request.
        computed_points: u64,
        /// Chains that permanently failed.
        failed_chains: u64,
        /// Recovery-ladder actions over the computed points.
        recovery_events: u64,
    },
    /// Client → server: report service counters.
    StatsRequest,
    /// Server → client: service counters.
    StatsReply {
        /// Jobs enqueued since the service started.
        jobs_submitted: u64,
        /// Campaigns fully completed.
        campaigns_completed: u64,
        /// Campaigns currently in flight.
        active_campaigns: u64,
        /// Result-cache hits.
        cache_hits: u64,
        /// Result-cache misses.
        cache_misses: u64,
        /// Cache entries evicted as corrupt.
        cache_corrupt: u64,
    },
    /// Client → server: drain and exit.
    Shutdown,
    /// Server → client: shutdown acknowledged.
    ShutdownAck,
}

/// Why a wire operation failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The frame bytes were malformed (bad magic/version/crc, truncated or
    /// invalid fields).
    Codec(CodecError),
    /// The payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// Length the header claimed.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The frame kind byte names no known frame.
    UnknownKind(u8),
    /// The server refused the request (client-side convenience).
    Rejected(String),
    /// The peer sent a frame the protocol state does not allow.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Codec(e) => write!(f, "frame decode error: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap {max}")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Rejected(reason) => write!(f, "rejected: {reason}"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl Frame {
    /// The kind byte identifying this frame on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => 1,
            Frame::Accepted { .. } => 2,
            Frame::Rejected { .. } => 3,
            Frame::Point { .. } => 4,
            Frame::Done { .. } => 5,
            Frame::StatsRequest => 6,
            Frame::StatsReply { .. } => 7,
            Frame::Shutdown => 8,
            Frame::ShutdownAck => 9,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Frame::Submit {
                tenant,
                priority,
                grid,
            } => {
                w.put_str(tenant);
                w.put_u8(*priority);
                w.put_str(grid);
            }
            Frame::Accepted {
                request,
                points,
                cached,
                jobs,
            } => {
                w.put_u64(*request);
                w.put_u64(*points);
                w.put_u64(*cached);
                w.put_u64(*jobs);
            }
            Frame::Rejected { reason } => w.put_str(reason),
            Frame::Point {
                index,
                cached,
                json,
            } => {
                w.put_u64(*index);
                w.put_bool(*cached);
                w.put_str(json);
            }
            Frame::Done {
                observables,
                jobs_run,
                cached_points,
                computed_points,
                failed_chains,
                recovery_events,
            } => {
                w.put_str(observables);
                w.put_u64(*jobs_run);
                w.put_u64(*cached_points);
                w.put_u64(*computed_points);
                w.put_u64(*failed_chains);
                w.put_u64(*recovery_events);
            }
            Frame::StatsRequest | Frame::Shutdown | Frame::ShutdownAck => {}
            Frame::StatsReply {
                jobs_submitted,
                campaigns_completed,
                active_campaigns,
                cache_hits,
                cache_misses,
                cache_corrupt,
            } => {
                w.put_u64(*jobs_submitted);
                w.put_u64(*campaigns_completed);
                w.put_u64(*active_campaigns);
                w.put_u64(*cache_hits);
                w.put_u64(*cache_misses);
                w.put_u64(*cache_corrupt);
            }
        }
    }

    fn decode_payload(kind: u8, r: &mut ByteReader<'_>) -> Result<Frame, WireError> {
        let frame = match kind {
            1 => Frame::Submit {
                tenant: r.get_str()?,
                priority: r.get_u8()?,
                grid: r.get_str()?,
            },
            2 => Frame::Accepted {
                request: r.get_u64()?,
                points: r.get_u64()?,
                cached: r.get_u64()?,
                jobs: r.get_u64()?,
            },
            3 => Frame::Rejected {
                reason: r.get_str()?,
            },
            4 => Frame::Point {
                index: r.get_u64()?,
                cached: r.get_bool("cached")?,
                json: r.get_str()?,
            },
            5 => Frame::Done {
                observables: r.get_str()?,
                jobs_run: r.get_u64()?,
                cached_points: r.get_u64()?,
                computed_points: r.get_u64()?,
                failed_chains: r.get_u64()?,
                recovery_events: r.get_u64()?,
            },
            6 => Frame::StatsRequest,
            7 => Frame::StatsReply {
                jobs_submitted: r.get_u64()?,
                campaigns_completed: r.get_u64()?,
                active_campaigns: r.get_u64()?,
                cache_hits: r.get_u64()?,
                cache_misses: r.get_u64()?,
                cache_corrupt: r.get_u64()?,
            },
            8 => Frame::Shutdown,
            9 => Frame::ShutdownAck,
            other => return Err(WireError::UnknownKind(other)),
        };
        Ok(frame)
    }
}

/// Encodes one frame to its wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    DQSF.encode([frame.kind()], |w| frame.encode_payload(w))
}

/// Validates the frame header at the front of `bytes`, returning
/// `(kind, payload_len)` with the length held to [`MAX_FRAME`].
fn parse_header(bytes: &[u8]) -> Result<(u8, usize), WireError> {
    let ([kind], len) = DQSF.header(bytes)?;
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    Ok((kind, len))
}

/// Decodes `payload | crc` — what follows a validated header.
fn parse_payload(kind: u8, rest: &[u8]) -> Result<Frame, WireError> {
    let mut r = DQSF.payload(rest)?;
    let frame = Frame::decode_payload(kind, &mut r)?;
    r.finish("the frame payload")?;
    Ok(frame)
}

/// Decodes one frame from a byte slice, returning the frame and the bytes
/// consumed. Never panics on arbitrary input.
pub fn parse_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    let (kind, len) = parse_header(bytes)?;
    let total = HEADER_LEN + len + 4;
    let rest = bytes.get(HEADER_LEN..total).ok_or(CodecError::Truncated {
        needed: total,
        remaining: bytes.len(),
    })?;
    Ok((parse_payload(kind, rest)?, total))
}

/// Reads exactly one frame from a stream.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = parse_header(&header)?;
    let mut rest = vec![0u8; len + 4];
    r.read_exact(&mut rest)?;
    parse_payload(kind, &rest)
}

/// Writes one frame to a stream and flushes it (streamed points must not
/// sit in a buffer while the next one computes).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let frames = [
            Frame::Submit {
                tenant: "alice".into(),
                priority: 3,
                grid: "lx = 2\nseed = 7\n".into(),
            },
            Frame::Accepted {
                request: 9,
                points: 4,
                cached: 1,
                jobs: 6,
            },
            Frame::Rejected {
                reason: "tenant at campaign capacity".into(),
            },
            Frame::Point {
                index: 2,
                cached: true,
                json: "{\"point\":2}".into(),
            },
            Frame::Done {
                observables: "{}".into(),
                jobs_run: 4,
                cached_points: 1,
                computed_points: 3,
                failed_chains: 0,
                recovery_events: 2,
            },
            Frame::StatsRequest,
            Frame::StatsReply {
                jobs_submitted: 10,
                campaigns_completed: 2,
                active_campaigns: 1,
                cache_hits: 5,
                cache_misses: 3,
                cache_corrupt: 1,
            },
            Frame::Shutdown,
            Frame::ShutdownAck,
        ];
        for f in &frames {
            let bytes = encode_frame(f);
            let (got, used) = parse_frame(&bytes).expect("round trip");
            assert_eq!(&got, f);
            assert_eq!(used, bytes.len());
            // Stream reader agrees with the slice parser.
            let mut cursor = std::io::Cursor::new(&bytes);
            assert_eq!(&read_frame(&mut cursor).expect("stream read"), f);
        }
    }

    #[test]
    fn oversized_length_prefix_is_capped() {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        w.put_u8(6);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            parse_frame(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_kind_is_a_clean_error() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[8] = 200; // kind byte follows magic(4) + version(4)
        assert!(matches!(
            parse_frame(&bytes),
            Err(WireError::UnknownKind(200))
        ));
    }
}
