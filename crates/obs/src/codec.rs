//! A minimal byte codec for the versioned on-disk payloads.
//!
//! The result store (`visim::store`) persists simulation payloads —
//! `Summary`, `CpuStats`, `MemStats`, metric registries, `SimError` —
//! in a framed, checksummed binary encoding. JSON cannot serve here:
//! the artifact JSON stores *derived* floating-point views (cycle
//! breakdowns) rather than the exact integer accumulators, so a JSON
//! round-trip would not reproduce byte-identical reports on resume.
//! Instead each owning crate implements `encode_into`/`decode_from`
//! against this writer/reader pair, and every integer round-trips
//! exactly.
//!
//! This module lives in `visim-obs` (the dependency-graph leaf) so the
//! cpu, mem, util, and core crates can all reach it. Framing (magic,
//! version, checksum) is the *caller's* job — see `visim::store` —
//! mirroring the `VCKP` checkpoint framing in `visim-trace`.
//!
//! All integers are little-endian. Strings and vectors are
//! length-prefixed with a `u32`. Decoding is fail-safe: every read
//! returns `Err(reason)` on truncation instead of panicking, so a
//! corrupt entry degrades to a purge-and-recompute, never a crash.

/// An append-only byte buffer with little-endian primitive writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes with no length prefix (for magic numbers).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `u64` vector.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u64(v);
        }
    }
}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes (for magic numbers).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Read a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.u32()? as usize;
        // Guard the allocation against a corrupt length prefix: the
        // payload must actually hold `n` values.
        if self.remaining() < n.saturating_mul(8) {
            return Err(format!("truncated: u64 vector claims {n} entries"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Assert every byte was consumed (trailing garbage is corruption).
    pub fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_str("hello | world");
        w.put_u64s(&[1, 2, 3]);
        w.put_raw(b"MAGC");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "hello | world");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.raw(4).unwrap(), b"MAGC");
        r.done().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.u64().is_err());
        // A corrupt vector length cannot trigger a huge allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.u64s().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.done().is_err());
    }
}
