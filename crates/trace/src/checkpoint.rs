//! Architectural-checkpoint framing.
//!
//! A sampled run carves a recorded stream into detailed sample windows
//! (see [`Recorded::replay_span`]) separated by functional warming. At
//! each window boundary the warming engine's architectural state —
//! cache tags/recency, MSHR-visible misses, predictor tables — is
//! serialized together with the [`ReplayCursor`] naming where in the
//! stream the window starts. The `VCKP` frame is versioned, echoes its
//! key and ends in an FNV-1a checksum, so a window job can validate its
//! checkpoint independently: any window is replayable on its own, which
//! is what lets one benchmark's windows fan out across a worker pool.
//!
//! The architectural blob itself is opaque at this layer; the CPU crate
//! owns its layout (`visim_cpu::WarmingSink::checkpoint` produces it,
//! `visim_cpu::Pipeline::restore_checkpoint` validates and consumes
//! it).

use visim_util::fnv1a64;

use crate::record::{Recorded, ReplayCursor};

/// Version tag of the checkpoint frame. Bump whenever the byte layout
/// changes; decoders reject other versions.
pub const CKPT_FORMAT_VERSION: u32 = 2;

/// Magic prefix of an encoded checkpoint.
const MAGIC: &[u8; 4] = b"VCKP";

/// One window's entry state: where the window starts in the recorded
/// stream, and the serialized architectural state to restore before
/// replaying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Position of the window's first instruction.
    pub cursor: ReplayCursor,
    /// Opaque architectural blob (predictor + RAS + cache/MSHR state).
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Serialize with the magic/version header, the caller's `key`
    /// (echoed and verified on decode), and a trailing FNV-1a checksum.
    pub fn encode(&self, key: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.state.len() + key.len() + 64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&CKPT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        let c = &self.cursor;
        for v in [c.inst, c.src, c.esc, c.addr, c.target] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&c.reg.to_le_bytes());
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.state);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a frame produced by [`Checkpoint::encode`] for the same
    /// `key`, verifying the checksum first, then magic, version, key,
    /// structural consistency, and exact length. Any failure is an
    /// `Err` so the caller can purge the checkpoint and fall back to
    /// recomputing it (or to exact simulation).
    pub fn decode(bytes: &[u8], key: &str) -> Result<Checkpoint, String> {
        if bytes.len() < 8 + 8 {
            return Err("truncated checkpoint header".into());
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte checksum"));
        if fnv1a64(body) != stored {
            return Err("checkpoint checksum mismatch".into());
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err("bad checkpoint magic".into());
        }
        let version = c.u32()?;
        if version != CKPT_FORMAT_VERSION {
            return Err(format!(
                "checkpoint version {version} != expected {CKPT_FORMAT_VERSION}"
            ));
        }
        let key_len = c.u32()? as usize;
        if c.take(key_len)? != key.as_bytes() {
            return Err("checkpoint key mismatch".into());
        }
        let cursor = ReplayCursor {
            inst: c.u64()?,
            src: c.u64()?,
            esc: c.u64()?,
            addr: c.u64()?,
            target: c.u64()?,
            reg: c.u32()?,
        };
        if !cursor.is_consistent() {
            return Err("checkpoint cursor columns ahead of instruction index".into());
        }
        let state_len = c.u64()? as usize;
        let state = c.take(state_len)?.to_vec();
        if c.pos != body.len() {
            return Err(format!(
                "checkpoint payload length {} != consumed {}",
                body.len(),
                c.pos
            ));
        }
        Ok(Checkpoint { cursor, state })
    }

    /// Decode against `key` *and* validate the cursor against the
    /// stream it will replay — the full trust boundary for a
    /// checkpoint of foreign origin.
    pub fn decode_for(bytes: &[u8], key: &str, stream: &Recorded) -> Result<Checkpoint, String> {
        let ck = Checkpoint::decode(bytes, key)?;
        if !stream.cursor_in_bounds(ck.cursor) {
            return Err(format!(
                "checkpoint cursor at instruction {} out of bounds for a {}-instruction stream",
                ck.cursor.inst(),
                stream.len()
            ));
        }
        Ok(ck)
    }
}

/// Byte-slice reader for [`Checkpoint::decode`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("offset overflow")?;
        if end > self.buf.len() {
            return Err("unexpected end of data".into());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            cursor: ReplayCursor {
                inst: 20_000,
                src: 31_042,
                esc: 1_207,
                addr: 7_311,
                target: 85,
                reg: 14_876,
            },
            state: (0u16..300).map(|b| (b % 251) as u8).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ck = sample();
        let bytes = ck.encode("conv.v-.64x64#w2000p20000#3");
        let back = Checkpoint::decode(&bytes, "conv.v-.64x64#w2000p20000#3").expect("decodes");
        assert_eq!(back, ck);
        // Re-encoding the decoded frame is bit-identical.
        assert_eq!(back.encode("conv.v-.64x64#w2000p20000#3"), bytes);
    }

    #[test]
    fn wrong_key_version_and_truncation_are_rejected() {
        let ck = sample();
        let good = ck.encode("k");
        assert!(Checkpoint::decode(&good, "other").is_err(), "key mismatch");
        for cut in [0, 3, 15, good.len() / 2, good.len() - 1] {
            assert!(
                Checkpoint::decode(&good[..cut], "k").is_err(),
                "truncation at {cut}"
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert!(Checkpoint::decode(&long, "k").is_err(), "trailing bytes");
    }

    /// Satellite harness (mirrors the result-store codec gauntlet):
    /// every single-bit flip anywhere in the frame — header, key echo,
    /// cursor, state blob, or the checksum itself — must be rejected.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let ck = sample();
        let good = ck.encode("cell-key");
        assert!(Checkpoint::decode(&good, "cell-key").is_ok());
        for byte_ix in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte_ix] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&bad, "cell-key").is_err(),
                    "flip of byte {byte_ix} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn cursor_is_validated_against_the_stream() {
        use visim_isa::{Inst, Op, Reg};
        let mut rec = Recorded::new();
        for i in 0..10u64 {
            rec.push(Inst::compute(Op::IntAlu, i, Reg(i as u32), [Reg::NONE; 3]));
        }
        let ok = Checkpoint {
            cursor: ReplayCursor {
                inst: 5,
                ..ReplayCursor::start()
            },
            state: vec![1, 2, 3],
        };
        let bytes = ok.encode("k");
        assert!(Checkpoint::decode_for(&bytes, "k", &rec).is_ok());
        let beyond = Checkpoint {
            cursor: ReplayCursor {
                inst: 11,
                ..ReplayCursor::start()
            },
            state: vec![],
        };
        assert!(Checkpoint::decode_for(&beyond.encode("k"), "k", &rec).is_err());
        // An internally inconsistent cursor never even reaches the
        // stream check.
        let mut crooked = sample();
        crooked.cursor = ReplayCursor {
            inst: 3,
            addr: 9,
            ..ReplayCursor::start()
        };
        assert!(Checkpoint::decode(&crooked.encode("k"), "k").is_err());
    }
}
