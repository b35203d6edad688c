//! The one place little-endian, length-prefixed bytes are written,
//! bounded and read: BP payloads ([`crate::bp`]), wire frames
//! ([`crate::wire`]), the session protocol ([`crate::staging::protocol`])
//! and `.bp4l` step files ([`crate::file_engine`]) are layouts over it.
//!
//! The allocation rule: nothing is reserved on a decoded value's say-so.
//! A [`Reader`] sizes the `Vec`s it returns from bytes it has already
//! bounds-checked, [`Reader::count`] refuses a declared count the rest of
//! the buffer cannot hold, and [`read_record`] grows its buffer only as
//! bytes actually arrive.

use std::io::{IoSlice, Read, Write};

/// Why a [`Reader`] refused; each format maps it onto its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Error {
    /// Fewer bytes left than the value, or the declared count, needs.
    Truncated,
    /// A length-prefixed string is not UTF-8.
    NotUtf8,
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        let what = format!("malformed message: {e:?}");
        std::io::Error::new(std::io::ErrorKind::InvalidData, what)
    }
}

/// A length or count prefix; the value is its width in bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prefix {
    U32 = 4,
    U64 = 8,
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `N` bytes laid out from `parts`, which add up to exactly `N`: a
/// fixed-size header built on the stack.
pub(crate) fn concat<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "the parts fill the header");
    out
}

/// `[u32 len][bytes]`.
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A `[u32 len][body]` record whose body `write` appends; `capacity` is
/// the room to reserve for that body.
pub(crate) fn record(capacity: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + capacity);
    put_u32(&mut out, 0);
    write(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// A borrowing cursor over untrusted bytes: every read is bounds-checked
/// and returns [`Error::Truncated`] instead of panicking.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self(buf)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let (head, tail) = self.0.split_at_checked(n).ok_or(Error::Truncated)?;
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("take(N) is N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A declared element count, refused unless `min_bytes` per element
    /// are still there to be read.
    pub(crate) fn count(&mut self, prefix: Prefix, min_bytes: usize) -> Result<usize, Error> {
        let mut word = [0u8; 8];
        word[..prefix as usize].copy_from_slice(self.take(prefix as usize)?);
        let n = usize::try_from(u64::from_le_bytes(word)).map_err(|_| Error::Truncated)?;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(Error::Truncated),
        }
    }

    /// `[u32 len][bytes]`.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.count(Prefix::U32, 1)?;
        self.take(n)
    }

    /// `[u32 len][utf-8]`.
    pub(crate) fn str(&mut self) -> Result<&'a str, Error> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Error::NotUtf8)
    }

    /// `n` elements of `W` bytes each, in a `Vec` sized by the bytes just
    /// bounds-checked.
    fn vec<T, const W: usize>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, Error> {
        let raw = self.take(n.checked_mul(W).ok_or(Error::Truncated)?)?;
        let elem = |c: &[u8]| decode(c.try_into().expect("chunks_exact(W) is W bytes"));
        Ok(raw.chunks_exact(W).map(elem).collect())
    }

    /// `n` coordinate triples.
    pub(crate) fn f64x3s(&mut self, n: usize) -> Result<Vec<[f64; 3]>, Error> {
        let coord = |c: &[u8], at| f64::from_le_bytes(c[at..at + 8].try_into().expect("8 bytes"));
        self.vec(n, |c: [u8; 24]| [coord(&c, 0), coord(&c, 8), coord(&c, 16)])
    }
}

/// Scalar arrays: `put` appends a slice, the `Reader` method reads `n`
/// elements of the same type back.
macro_rules! bulk {
    ($($t:ty: $put:ident, $get:ident;)*) => {
        $(pub(crate) fn $put(out: &mut Vec<u8>, v: &[$t]) {
            out.reserve(std::mem::size_of_val(v));
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        })*
        impl Reader<'_> {
            $(pub(crate) fn $get(&mut self, n: usize) -> Result<Vec<$t>, Error> {
                self.vec(n, <$t>::from_le_bytes)
            })*
        }
    };
}
bulk! { f64: put_f64s, f64s; i64: put_i64s, i64s; f32: put_f32s, f32s; }

/// A record that ended early: `got` of the `wanted` bytes of its prefix or
/// body arrived before the stream ended — cleanly, or with `cause`.
#[derive(Debug)]
pub(crate) struct ShortRecord {
    pub(crate) wanted: usize,
    pub(crate) got: usize,
    pub(crate) cause: Option<std::io::Error>,
}

impl From<ShortRecord> for std::io::Error {
    fn from(s: ShortRecord) -> Self {
        s.cause.unwrap_or_else(|| {
            let what = format!("record ended after {} of {} bytes", s.got, s.wanted);
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what)
        })
    }
}

/// Most capacity a record buffer is given ahead of the bytes that have
/// arrived for it: a length prefix is a peer's claim, not a reservation.
const CHUNK: usize = 256 << 10;

/// Append exactly `wanted` bytes of `r` to `buf`. The buffer grows by at
/// most [`CHUNK`], or by what has arrived so far if that is more, ahead of
/// the bytes: a 1 MiB body arrives in three exact reservations.
fn fill(r: &mut impl Read, buf: &mut Vec<u8>, wanted: usize) -> Result<(), ShortRecord> {
    let mut got = 0;
    while got < wanted {
        let step = (wanted - got).min(got.max(CHUNK));
        buf.reserve_exact(step);
        let before = buf.len();
        let cause = r.by_ref().take(step as u64).read_to_end(buf).err();
        got += buf.len() - before;
        if buf.len() - before < step {
            return Err(ShortRecord { wanted, got, cause });
        }
    }
    Ok(())
}

/// One `[len][body]` record read off a stream part by part, so that each
/// part lands where it is used — a header in a stack array, a payload in
/// the `Vec` that carries it on — instead of the whole body in one buffer
/// that is cut up afterwards. A stream that ends inside the body reports
/// the whole declared body as `wanted`.
pub(crate) struct RecordIn<'r, R> {
    r: &'r mut R,
    /// The declared body length.
    len: usize,
    /// Body bytes read so far.
    got: usize,
}

/// Why reading a record's part failed: the stream ended, or the record's
/// own lengths do not add up (the rest of it is still to be read).
#[derive(Debug)]
pub(crate) enum PartError {
    Short(ShortRecord),
    Malformed(std::io::Error),
}

impl From<ShortRecord> for PartError {
    fn from(s: ShortRecord) -> Self {
        PartError::Short(s)
    }
}

impl From<Error> for PartError {
    fn from(e: Error) -> Self {
        PartError::Malformed(e.into())
    }
}

impl<'r, R: Read> RecordIn<'r, R> {
    /// Read the next record's length prefix. `Ok(None)` is a clean end of
    /// stream at a record boundary; a torn prefix is a [`ShortRecord`].
    pub(crate) fn open(r: &'r mut R, prefix: Prefix) -> Result<Option<Self>, ShortRecord> {
        let mut word = [0u8; 8];
        let (got, cause) = read_full(r, &mut word[..prefix as usize]);
        if got < prefix as usize {
            let clean_end = got == 0 && cause.is_none();
            let wanted = prefix as usize;
            return if clean_end {
                Ok(None)
            } else {
                Err(ShortRecord { wanted, got, cause })
            };
        }
        // A length no `usize` holds cannot arrive either; let the read say so.
        let len = usize::try_from(u64::from_le_bytes(word)).unwrap_or(usize::MAX);
        Ok(Some(Self { r, len, got: 0 }))
    }

    /// The declared body length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Body bytes not read yet.
    fn left(&self) -> usize {
        self.len - self.got
    }

    fn short(&self, got: usize, cause: Option<std::io::Error>) -> ShortRecord {
        ShortRecord {
            wanted: self.len,
            got: self.got + got,
            cause,
        }
    }

    /// The next `N` body bytes; a body with fewer left is malformed.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], PartError> {
        if N > self.left() {
            return Err(Error::Truncated.into());
        }
        let mut a = [0u8; N];
        match read_full(self.r, &mut a) {
            (got, None) if got == N => {
                self.got += N;
                Ok(a)
            }
            (got, cause) => Err(self.short(got, cause).into()),
        }
    }

    /// The next `n` body bytes in a buffer of their own.
    pub(crate) fn vec(&mut self, n: usize) -> Result<Vec<u8>, PartError> {
        if n > self.left() {
            return Err(Error::Truncated.into());
        }
        Ok(self.take_vec(n)?)
    }

    /// Everything the body has left.
    pub(crate) fn rest(&mut self) -> Result<Vec<u8>, ShortRecord> {
        self.take_vec(self.left())
    }

    fn take_vec(&mut self, n: usize) -> Result<Vec<u8>, ShortRecord> {
        let mut buf = Vec::new();
        fill(self.r, &mut buf, n).map_err(|s| self.short(s.got, s.cause))?;
        self.got += n;
        Ok(buf)
    }

    /// Read past the rest of the body, so the stream stands at the next
    /// record, then hand back what parsing the record gave.
    pub(crate) fn finish<T>(self, parsed: Result<T, PartError>) -> std::io::Result<T> {
        let parsed = match parsed {
            Ok(value) => Ok(value),
            Err(PartError::Short(s)) => return Err(s.into()),
            Err(PartError::Malformed(e)) => Err(e),
        };
        let left = self.left();
        match skip(self.r, left) {
            (got, None) if got == left => parsed,
            (got, cause) => Err(self.short(got, cause).into()),
        }
    }
}

/// Read into `buf` until it is full or the stream ends: how many bytes
/// arrived, and the error the stream failed on, if it did.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> (usize, Option<std::io::Error>) {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return (got, Some(e)),
        }
    }
    (got, None)
}

/// Read and drop up to `n` bytes: how many there were, and the error the
/// stream failed on, if it did.
fn skip(r: &mut impl Read, n: usize) -> (usize, Option<std::io::Error>) {
    let mut scratch = [0u8; 4096];
    let mut got = 0;
    while got < n {
        let want = (n - got).min(scratch.len());
        let (arrived, cause) = read_full(r, &mut scratch[..want]);
        got += arrived;
        if arrived < want {
            return (got, cause);
        }
    }
    (got, None)
}

/// Read one `[len][body]` record off a stream and return its body.
/// `Ok(None)` is a clean end of stream at a record boundary; a stream that
/// ends (or fails) inside the prefix or the body is a [`ShortRecord`].
pub(crate) fn read_record(
    r: &mut impl Read,
    prefix: Prefix,
) -> Result<Option<Vec<u8>>, ShortRecord> {
    match RecordIn::open(r, prefix)? {
        Some(mut record) => record.rest().map(Some),
        None => Ok(None),
    }
}

/// Write every byte of `bufs`, in order, in as few calls as the writer
/// allows: one `writev` for a header and the payload it heads.
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One bare `u64` onto a stream: a file's magic.
pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_never_reads_past_the_end() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_bytes(&mut out, b"abc");
        put_f64s(&mut out, &[1.5, -2.0]);
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            let read = (|| {
                r.u32()?;
                r.str()?;
                r.f64s(2)
            })();
            assert_eq!(read, Err(Error::Truncated), "cut at {cut}");
        }
        let mut r = Reader::new(&out);
        assert_eq!((r.u32(), r.str()), (Ok(7), Ok("abc")));
        assert_eq!(r.f64s(2), Ok(vec![1.5, -2.0]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn count_is_checked_against_what_is_left_without_overflow() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 24]);
        let mut r = Reader::new(&out);
        assert_eq!(r.count(Prefix::U64, 24), Err(Error::Truncated));
        assert_eq!(r.count(Prefix::U32, 8), Ok(3));
        assert_eq!(r.f64s(usize::MAX), Err(Error::Truncated));
        let mut r = Reader::new(&out[8..]);
        assert_eq!(r.count(Prefix::U32, 9), Err(Error::Truncated));
    }

    #[test]
    fn records_roundtrip_and_short_ones_say_how_short() {
        let mut stream = record(3, |body| body.extend_from_slice(b"xyz"));
        stream.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        let mut r = std::io::Cursor::new(stream);
        assert_eq!(read_record(&mut r, Prefix::U32).unwrap().unwrap(), b"xyz");
        let short = read_record(&mut r, Prefix::U32).unwrap_err();
        assert_eq!((short.wanted, short.got), (9, 2));
        assert!(read_record(&mut r, Prefix::U32).unwrap().is_none());
        // A torn prefix is inside a record too.
        let short = read_record(&mut &[1u8, 0, 0][..], Prefix::U64).unwrap_err();
        assert_eq!((short.wanted, short.got), (8, 3));
    }

    #[test]
    fn a_huge_declared_length_reserves_one_chunk() {
        let mut stream = vec![0xFF; 8];
        stream.extend_from_slice(&[7; 10]);
        let short = read_record(&mut &stream[..], Prefix::U64).unwrap_err();
        assert_eq!((short.wanted, short.got), (usize::MAX, 10));
        let mut buf = Vec::new();
        assert!(fill(&mut &stream[..], &mut buf, 1 << 40).is_err());
        assert!(buf.capacity() <= CHUNK, "reserved {}", buf.capacity());
    }
}
