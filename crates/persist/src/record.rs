//! WAL record payloads and the checksummed on-disk frame.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! A record is valid only if the full frame is present *and* the checksum
//! matches. Scanning stops at the first invalid frame *of a segment*:
//! with appends going through a single writer and crashes being the only
//! fault model, bytes after a torn frame in the same file can only be
//! garbage from the same interrupted write. Later segment files are a
//! different matter — they were written by later process generations —
//! and the store keeps scanning them (see `store`'s recovery notes).

use crate::command::PersistCommand;
use crate::crc::crc32;
use stem_core::codec::{put_u32, put_u64, put_u8, DecodeError, Reader};

/// Upper bound on a single record payload; anything larger is corrupt.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// One entry of the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed batch's mutating commands.
    Batch {
        /// Owning session id.
        session: u64,
        /// Per-session commit sequence number (1-based, dense).
        seq: u64,
        /// Client-assigned idempotence key (0 = unkeyed). Unlike `seq`,
        /// which counts *committed* batches densely, the key counts the
        /// client's *submitted* mutating batches — a violated-and-rolled-
        /// back batch consumes a key but never a seq. Recovery rebuilds
        /// each session's dedup high-water mark from these so a client
        /// resubmitting after failover cannot double-apply an already
        /// committed batch.
        key: u64,
        /// The batch's mutating commands, in order.
        commands: Vec<PersistCommand>,
    },
    /// The session was closed; recovery must not resurrect it.
    Close {
        /// Closed session id.
        session: u64,
        /// Sequence number of the close (one past the last batch).
        seq: u64,
    },
}

impl WalRecord {
    /// Owning session id.
    pub fn session(&self) -> u64 {
        match self {
            WalRecord::Batch { session, .. } | WalRecord::Close { session, .. } => *session,
        }
    }

    /// Per-session sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Batch { seq, .. } | WalRecord::Close { seq, .. } => *seq,
        }
    }

    /// Encodes the payload (frame not included).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            WalRecord::Batch {
                session,
                seq,
                key,
                commands,
            } => {
                put_u8(&mut buf, 0);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *seq);
                put_u64(&mut buf, *key);
                put_u32(&mut buf, commands.len() as u32);
                for c in commands {
                    c.encode(&mut buf);
                }
            }
            WalRecord::Close { session, seq } => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, *session);
                put_u64(&mut buf, *seq);
            }
        }
        buf
    }

    /// Decodes a payload produced by [`WalRecord::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            0 => {
                let session = r.u64()?;
                let seq = r.u64()?;
                let key = r.u64()?;
                let n = r.len()?;
                let mut commands = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    commands.push(PersistCommand::decode(&mut r)?);
                }
                WalRecord::Batch {
                    session,
                    seq,
                    key,
                    commands,
                }
            }
            1 => WalRecord::Close {
                session: r.u64()?,
                seq: r.u64()?,
            },
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "WalRecord",
                    at: 0,
                })
            }
        };
        if !r.is_empty() {
            // Trailing bytes mean the frame length disagrees with the
            // payload grammar — corrupt either way.
            return Err(DecodeError::Eof { at: r.position() });
        }
        Ok(rec)
    }

    /// Encodes the full on-disk frame: `[len][crc][payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }
}

/// Wraps a payload in the `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Result of pulling one frame off the front of `buf`.
pub enum FrameScan<'a> {
    /// A complete, checksum-valid frame; `rest` is the remaining input.
    Ok {
        /// The verified payload.
        payload: &'a [u8],
        /// Bytes after the frame.
        rest: &'a [u8],
    },
    /// End of useful data: empty input, torn frame, bad length, or bad
    /// checksum. Scanning must stop here.
    End,
}

/// Reads one frame from the front of `buf`, verifying length and checksum.
pub fn scan_frame(buf: &[u8]) -> FrameScan<'_> {
    if buf.len() < 8 {
        return FrameScan::End;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return FrameScan::End;
    }
    let end = 8 + len as usize;
    if buf.len() < end {
        return FrameScan::End;
    }
    let payload = &buf[8..end];
    if crc32(payload) != crc {
        return FrameScan::End;
    }
    FrameScan::Ok {
        payload,
        rest: &buf[end..],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_core::{ConstraintSpec, Source, Value, VarId};

    fn sample() -> WalRecord {
        WalRecord::Batch {
            session: 7,
            seq: 3,
            key: 9,
            commands: vec![
                PersistCommand::AddVariable {
                    name: "width".into(),
                },
                PersistCommand::Set {
                    var: VarId::from_index(0),
                    value: Value::Int(64),
                    source: Source::Application,
                },
                PersistCommand::AddConstraint {
                    spec: ConstraintSpec::LeConst(Value::Int(128)),
                    args: vec![VarId::from_index(0)],
                },
            ],
        }
    }

    #[test]
    fn frame_round_trip() {
        let rec = sample();
        let bytes = rec.encode_frame();
        match scan_frame(&bytes) {
            FrameScan::Ok { payload, rest } => {
                assert!(rest.is_empty());
                assert_eq!(WalRecord::decode_payload(payload).unwrap(), rec);
            }
            FrameScan::End => panic!("frame did not scan"),
        }
    }

    #[test]
    fn every_truncation_reads_as_end() {
        let bytes = sample().encode_frame();
        for cut in 0..bytes.len() {
            assert!(
                matches!(scan_frame(&bytes[..cut]), FrameScan::End),
                "torn frame of {cut} bytes scanned as valid"
            );
        }
    }

    #[test]
    fn every_bitflip_reads_as_end_or_decode_error() {
        let rec = sample();
        let bytes = rec.encode_frame();
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            match scan_frame(&bad) {
                FrameScan::End => {}
                FrameScan::Ok { payload, .. } => {
                    // A flip in the length prefix can still frame-scan if it
                    // shortens into bytes whose crc… no: crc is over the
                    // payload, so any surviving scan means the flip landed
                    // outside this frame's bytes — impossible here. Defend
                    // anyway: the payload must decode to the original.
                    assert_eq!(
                        WalRecord::decode_payload(payload).unwrap(),
                        rec,
                        "bit {i} flip produced a different valid record"
                    );
                }
            }
        }
    }

    #[test]
    fn close_round_trips_and_chains() {
        let a = WalRecord::Batch {
            session: 1,
            seq: 1,
            key: 0,
            commands: vec![PersistCommand::SetValueChangeLimit { limit: 4 }],
        };
        let b = WalRecord::Close { session: 1, seq: 2 };
        let mut bytes = a.encode_frame();
        bytes.extend(b.encode_frame());

        let FrameScan::Ok { payload, rest } = scan_frame(&bytes) else {
            panic!("first frame")
        };
        assert_eq!(WalRecord::decode_payload(payload).unwrap(), a);
        let FrameScan::Ok { payload, rest } = scan_frame(rest) else {
            panic!("second frame")
        };
        assert_eq!(WalRecord::decode_payload(payload).unwrap(), b);
        assert!(rest.is_empty());
        assert_eq!(b.session(), 1);
        assert_eq!(b.seq(), 2);
    }

    /// A batch exercising every domain-flavored spec and value kind.
    fn domain_sample() -> WalRecord {
        use stem_core::{FinSet, Interval};
        WalRecord::Batch {
            session: 11,
            seq: 5,
            key: 2,
            commands: vec![
                PersistCommand::Set {
                    var: VarId::from_index(0),
                    value: Value::Interval(Interval::new(-3, 4096)),
                    source: Source::User,
                },
                PersistCommand::Set {
                    var: VarId::from_index(1),
                    value: Value::FinSet(FinSet::new(0x8000_0000_0000_0101)),
                    source: Source::Update,
                },
                PersistCommand::AddConstraint {
                    spec: ConstraintSpec::DomAdd {
                        views: [(1, 0), (-1, 7), (1, -2)],
                        out: Some(2),
                    },
                    args: vec![
                        VarId::from_index(0),
                        VarId::from_index(1),
                        VarId::from_index(2),
                    ],
                },
                PersistCommand::AddConstraint {
                    spec: ConstraintSpec::DomLe {
                        c: -4,
                        views: [(-1, 0), (-1, 0)],
                        out: None,
                    },
                    args: vec![VarId::from_index(0), VarId::from_index(1)],
                },
                PersistCommand::AddConstraint {
                    spec: ConstraintSpec::DomAllDiff,
                    args: vec![VarId::from_index(1), VarId::from_index(2)],
                },
                PersistCommand::AddConstraint {
                    spec: ConstraintSpec::DomReifLe {
                        c: 9,
                        views: [(1, 1), (1, -1)],
                    },
                    args: vec![
                        VarId::from_index(3),
                        VarId::from_index(0),
                        VarId::from_index(1),
                    ],
                },
            ],
        }
    }

    #[test]
    fn domain_record_round_trips() {
        let rec = domain_sample();
        let bytes = rec.encode_frame();
        let FrameScan::Ok { payload, rest } = scan_frame(&bytes) else {
            panic!("domain frame did not scan")
        };
        assert!(rest.is_empty());
        assert_eq!(WalRecord::decode_payload(payload).unwrap(), rec);
    }

    #[test]
    fn every_truncation_of_domain_record_reads_as_end() {
        let bytes = domain_sample().encode_frame();
        for cut in 0..bytes.len() {
            assert!(
                matches!(scan_frame(&bytes[..cut]), FrameScan::End),
                "torn domain frame of {cut} bytes scanned as valid"
            );
        }
    }

    #[test]
    fn every_bitflip_of_domain_record_reads_as_end_or_original() {
        let rec = domain_sample();
        let bytes = rec.encode_frame();
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            match scan_frame(&bad) {
                FrameScan::End => {}
                FrameScan::Ok { payload, .. } => {
                    assert_eq!(
                        WalRecord::decode_payload(payload).unwrap(),
                        rec,
                        "bit {i} flip produced a different valid domain record"
                    );
                }
            }
        }
    }
}
