//! Length-prefixed, CRC-framed message transport.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +--------+---------+--------+-------------+------------+=============+
//! | magic  | version | kind   | payload_len | crc32      | payload     |
//! | u32 LE | u8      | u8     | u32 LE      | u32 LE     | payload_len |
//! | "ORCN" | 6       | 0 / 1  |             | of payload | bytes       |
//! +--------+---------+--------+-------------+------------+=============+
//! ```
//!
//! `kind` distinguishes requests (0) from responses (1) so a confused peer
//! (or a client connected to the wrong port) fails fast instead of
//! misinterpreting bytes. The CRC uses the same polynomial as the epoch WAL
//! (`orchestra_persist::crc`), so a flipped bit anywhere in the payload is
//! rejected before the codec ever sees it. Payloads are encoded with the
//! canonical [`orchestra_persist::codec`] format — the wire and the
//! persistence layer share one binary vocabulary.

use std::io::{Read, Write};

use orchestra_persist::crc::crc32;

use crate::error::NetError;
use crate::Result;

/// Frame magic: `"ORCN"` in little-endian byte order.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ORCN");

/// Wire-format version carried in every frame header: the one vocabulary
/// this crate speaks (see `proto`'s module docs). A frame stamped with any
/// other version is refused on read.
pub const VERSION: u8 = 6;

/// Upper bound on a frame payload (64 MiB): a garbage length prefix must
/// not make the receiver allocate unbounded memory.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 14;

/// Whether a frame carries a request or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            other => Err(NetError::protocol(format!("unknown frame kind {other}"))),
        }
    }
}

/// Write one frame (header + payload) at [`VERSION`] and flush the stream.
pub fn write_frame(stream: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| NetError::protocol("payload exceeds u32 length"))?;
    if len > MAX_PAYLOAD_LEN {
        return Err(NetError::protocol(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit"
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = VERSION;
    header[5] = kind.as_u8();
    header[6..10].copy_from_slice(&len.to_le_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_le_bytes());
    stream
        .write_all(&header)
        .and_then(|()| stream.write_all(payload))
        .and_then(|()| stream.flush())
        .map_err(|e| NetError::io("writing frame", &e))
}

/// On sockets with a read timeout, how many consecutive timed-out reads
/// mid-frame are tolerated before the peer is declared stalled. With the
/// server's 50 ms poll interval this allows ~30 s of stall inside one
/// frame — generous for a slow link, bounded so a wedged client cannot
/// pin a connection thread (or block graceful shutdown) forever.
pub const MAX_MID_FRAME_STALLS: u32 = 600;

/// Fill `buf` from the stream, tolerating transient errors: `Interrupted`
/// retries unconditionally, and timed-out reads (`WouldBlock`/`TimedOut`
/// on sockets with a read timeout) retry up to [`MAX_MID_FRAME_STALLS`]
/// times. `started` says whether earlier bytes of the same frame were
/// already consumed (EOF and the first timeout are reported differently).
fn read_full(stream: &mut impl Read, buf: &mut [u8], started: bool, what: &str) -> Result<()> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        let n = match stream.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle before the first byte of a frame is the caller's
                // poll tick, not a fault.
                if !started && filled == 0 {
                    return Err(NetError::Timeout);
                }
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(NetError::protocol(format!(
                        "peer stalled mid-frame reading {what} ({filled} of {} bytes)",
                        buf.len()
                    )));
                }
                continue;
            }
            Err(e) => return Err(NetError::io(format!("reading {what}"), &e)),
        };
        if n == 0 {
            if !started && filled == 0 {
                return Err(NetError::Disconnected);
            }
            return Err(NetError::protocol(format!(
                "connection closed mid-frame reading {what} ({filled} of {} bytes)",
                buf.len()
            )));
        }
        filled += n;
        stalls = 0;
    }
    Ok(())
}

/// Read one frame, verify its header and CRC, and return `(kind, payload)`.
/// A frame stamped with a version other than [`VERSION`] is refused.
///
/// A clean EOF before the first header byte is reported as
/// [`NetError::Disconnected`]; EOF mid-frame is a protocol violation.
pub fn read_frame(stream: &mut impl Read) -> Result<(FrameKind, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    read_full(stream, &mut header, false, "frame header")?;

    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(NetError::protocol(format!(
            "bad frame magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let version = header[4];
    if version != VERSION {
        return Err(NetError::protocol(format!(
            "unsupported wire version {version} (this build speaks {VERSION})"
        )));
    }
    let kind = FrameKind::from_u8(header[5])?;
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_LEN {
        return Err(NetError::protocol(format!(
            "frame payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte limit"
        )));
    }
    let expected_crc = u32::from_le_bytes(header[10..14].try_into().expect("4 bytes"));

    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload, true, "frame payload")?;
    let actual_crc = crc32(&payload);
    if actual_crc != expected_crc {
        return Err(NetError::protocol(format!(
            "frame CRC mismatch (header {expected_crc:#010x}, payload {actual_crc:#010x})"
        )));
    }
    Ok((kind, payload))
}

/// Read one frame and require it to be of `expected` kind; returns its
/// payload.
pub fn read_frame_expecting(stream: &mut impl Read, expected: FrameKind) -> Result<Vec<u8>> {
    let (kind, payload) = read_frame(stream)?;
    if kind != expected {
        return Err(NetError::protocol(format!(
            "expected a {expected:?} frame, got {kind:?}"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"hello").unwrap();
        write_frame(&mut buf, FrameKind::Response, b"").unwrap();
        let mut cur = Cursor::new(buf);
        let (kind, payload) = read_frame(&mut cur).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(payload, b"hello");
        let (kind, payload) = read_frame(&mut cur).unwrap();
        assert_eq!(kind, FrameKind::Response);
        assert!(payload.is_empty());
        assert_eq!(read_frame(&mut cur).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn corruption_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"payload").unwrap();

        // Flip a payload bit: CRC mismatch.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(NetError::Protocol(m)) if m.contains("CRC")
        ));

        // Break the magic.
        let mut bad = buf.clone();
        bad[0] = 0;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(NetError::Protocol(m)) if m.contains("magic")
        ));

        // Every version but the current one is refused, naming both.
        assert_eq!(buf[4], VERSION);
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut bad = buf.clone();
            bad[4] = version;
            assert_eq!(
                read_frame(&mut Cursor::new(bad)),
                Err(NetError::protocol(format!(
                    "unsupported wire version {version} (this build speaks 6)"
                )))
            );
        }

        // Unknown kind.
        let mut bad = buf.clone();
        bad[5] = 7;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(NetError::Protocol(m)) if m.contains("kind")
        ));

        // Truncated payload: EOF mid-frame is a protocol violation.
        let short = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut Cursor::new(short.to_vec())),
            Err(NetError::Protocol(m)) if m.contains("mid-frame")
        ));

        // Oversized length prefix is rejected before allocation.
        let mut bad = buf;
        bad[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(NetError::Protocol(m)) if m.contains("limit")
        ));
    }

    /// What any byte string read as a frame may yield: an error, or a
    /// payload within the checked length.
    fn read_is_contained(bytes: &[u8]) -> Result<(FrameKind, Vec<u8>)> {
        let read = read_frame(&mut Cursor::new(bytes));
        if let Ok((_, payload)) = &read {
            assert!(payload.len() <= MAX_PAYLOAD_LEN as usize);
        }
        read
    }

    fn frame_of(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    fn any_kind() -> impl Strategy<Value = FrameKind> {
        any::<bool>().prop_map(|r| {
            if r {
                FrameKind::Request
            } else {
                FrameKind::Response
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = read_is_contained(&bytes);
        }

        /// Arbitrary headers that get past the magic and version checks,
        /// length prefixes around the limit included.
        #[test]
        fn arbitrary_headers_never_panic(
            kind in any::<u8>(),
            len in prop_oneof![
                0u32..64,
                MAX_PAYLOAD_LEN - 2..MAX_PAYLOAD_LEN + 3,
                any::<u32>(),
            ],
            crc in any::<u32>(),
            rest in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = MAGIC.to_le_bytes().to_vec();
            bytes.extend([VERSION, kind]);
            bytes.extend(len.to_le_bytes());
            bytes.extend(crc.to_le_bytes());
            bytes.extend(rest);
            let _ = read_is_contained(&bytes);
        }

        #[test]
        fn every_truncation_is_refused(
            kind in any_kind(),
            payload in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let frame = frame_of(kind, &payload);
            prop_assert_eq!(read_is_contained(&frame), Ok((kind, payload)));
            prop_assert_eq!(read_is_contained(&[]), Err(NetError::Disconnected));
            for cut in 1..frame.len() {
                prop_assert!(matches!(
                    read_is_contained(&frame[..cut]),
                    Err(NetError::Protocol(m)) if m.contains("mid-frame")
                ));
            }
        }

        /// A single flipped bit is refused, except in the kind byte's low
        /// bit, which turns a request into a response (the payload is
        /// untouched either way).
        #[test]
        fn single_bit_flips_are_refused(
            kind in any_kind(),
            payload in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let frame = frame_of(kind, &payload);
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                match read_is_contained(&bad) {
                    Err(_) => {}
                    Ok((flipped, read)) => {
                        prop_assert_eq!(bit, 5 * 8, "only the kind bit may flip unseen");
                        prop_assert_ne!(flipped, kind);
                        prop_assert_eq!(read, payload.clone());
                    }
                }
            }
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        assert!(matches!(
            read_frame_expecting(&mut Cursor::new(buf), FrameKind::Response),
            Err(NetError::Protocol(m)) if m.contains("expected")
        ));
    }
}
