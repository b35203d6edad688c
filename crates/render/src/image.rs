//! The PNG encoder (stored-deflate, spec-compliant) and the workspace's
//! one CRC-32.
//!
//! The PNG encoder emits uncompressed deflate blocks inside a valid zlib
//! stream with correct CRC32/Adler32 checksums — readable by any viewer,
//! no compression dependency. The paper's storage-economy claim (6.5 MB of
//! images vs 19 GB of checkpoints) is reproduced from the byte counts this
//! encoder returns.
//!
//! Nothing is compressed, so every length in the file is known before the
//! first pixel is read. [`encode_png_into`] uses that: it reserves the
//! output once (nothing, when the buffer handed in is the last frame's)
//! and writes signature, IHDR, the IDAT length, the stored-block headers
//! and the scanlines straight into it, borrowing the pixels from the
//! framebuffer. The only work per byte is one copy, the Adler-32 sum
//! (modulo deferred to once per [`ADLER_NMAX`] bytes) and the chunk CRC
//! taken over the bytes just written.
//!
//! [`crc32`] / [`Crc32`] has two kernels and one result. Where the CPU has
//! PCLMULQDQ (checked at run time), whole 16-byte blocks of an input of 64
//! bytes or more fold by carry-less multiplication; a slice-by-8 table
//! takes everything else. It lives here because `render` is the lowest
//! crate that checksums anything: PNG chunks use it directly, and
//! `transport` (BP frame trailers, park files) re-exports it.

use crate::raster::Framebuffer;

const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];

/// Largest payload of one stored deflate block (its length field is 16 bits).
const STORED_BLOCK_MAX: usize = 65535;

/// Encode a framebuffer as an 8-bit RGB PNG.
pub fn encode_png(fb: &Framebuffer) -> Vec<u8> {
    let mut out = Vec::new();
    encode_png_into(fb, &mut out);
    out
}

/// [`encode_png`] into `out`, replacing what it held: a buffer already
/// large enough, such as the last frame's, is written without allocating.
pub fn encode_png_into(fb: &Framebuffer, out: &mut Vec<u8>) {
    let rgb = fb.rgb_bytes();
    let stride = fb.width * 3;
    // Raw scanlines, each prefixed with filter type 0.
    let raw_len = (stride + 1) * fb.height;
    // An empty image still carries one (zero-length, final) stored block.
    let n_blocks = raw_len.div_ceil(STORED_BLOCK_MAX).max(1);
    // zlib header + per-block headers + payload + Adler-32.
    let idat_len = 2 + 5 * n_blocks + raw_len + 4;
    out.clear();
    out.reserve_exact(PNG_SIGNATURE.len() + (12 + 13) + (12 + idat_len) + 12);
    out.extend_from_slice(&PNG_SIGNATURE);

    let ihdr = begin_chunk(out, b"IHDR", 13);
    out.extend_from_slice(&(fb.width as u32).to_be_bytes());
    out.extend_from_slice(&(fb.height as u32).to_be_bytes());
    out.extend_from_slice(&[8, 2, 0, 0, 0]); // 8-bit, RGB, deflate, none, none
    end_chunk(out, ihdr);

    let idat = begin_chunk(out, b"IDAT", idat_len);
    out.extend_from_slice(&[0x78, 0x01]); // 32K window, fastest
    let mut blocks = StoredBlocks::begin(out, raw_len);
    let mut adler = Adler32::new();
    for row in 0..fb.height {
        let line = &rgb[row * stride..(row + 1) * stride];
        for part in [&[0u8][..], line] {
            blocks.put(out, part);
            adler.update(part);
        }
    }
    out.extend_from_slice(&adler.finish().to_be_bytes());
    end_chunk(out, idat);

    let iend = begin_chunk(out, b"IEND", 0);
    end_chunk(out, iend);
}

/// A PNG chunk whose length and type are written and whose data is being
/// appended to the output.
struct OpenChunk {
    /// Offset of the chunk type: where the CRC's coverage starts.
    crc_from: usize,
    /// Offset one past the declared data.
    data_end: usize,
}

fn begin_chunk(out: &mut Vec<u8>, kind: &[u8; 4], data_len: usize) -> OpenChunk {
    let len = u32::try_from(data_len).expect("PNG chunk length fits in 32 bits");
    out.extend_from_slice(&len.to_be_bytes());
    let crc_from = out.len();
    out.extend_from_slice(kind);
    OpenChunk {
        crc_from,
        data_end: out.len() + data_len,
    }
}

fn end_chunk(out: &mut Vec<u8>, chunk: OpenChunk) {
    assert_eq!(
        out.len(),
        chunk.data_end,
        "chunk data must match the length declared up front"
    );
    let crc = crc32(&out[chunk.crc_from..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Frames a byte stream of known length as stored (uncompressed) deflate
/// blocks, writing each block header just before the block's first byte.
struct StoredBlocks {
    /// Stream bytes not yet covered by a block header.
    unframed: usize,
    /// Payload bytes the open block still takes.
    room: usize,
}

impl StoredBlocks {
    /// Start a stream of `len` bytes. The first block opens here, so an
    /// empty stream still gets its one (zero-length, final) block.
    fn begin(out: &mut Vec<u8>, len: usize) -> Self {
        let mut blocks = Self {
            unframed: len,
            room: 0,
        };
        blocks.open(out);
        blocks
    }

    fn open(&mut self, out: &mut Vec<u8>) {
        let len = self.unframed.min(STORED_BLOCK_MAX);
        self.unframed -= len;
        self.room = len;
        let final_block = self.unframed == 0;
        let len = len as u16; // ≤ STORED_BLOCK_MAX
        out.push(u8::from(final_block));
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
    }

    fn put(&mut self, out: &mut Vec<u8>, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.room == 0 {
                self.open(out);
            }
            let (head, rest) = bytes.split_at(bytes.len().min(self.room));
            out.extend_from_slice(head);
            self.room -= head.len();
            bytes = rest;
        }
    }
}

const ADLER_MOD: u32 = 65521;

/// Most bytes that can be summed from reduced state before `b` can pass
/// 2³² (zlib's NMAX): the modulo runs once per this many bytes.
const ADLER_NMAX: usize = 5552;

/// Bytes [`Adler32::update`] sums per vectorised block.
const ADLER_BLOCK: usize = 64;

/// Incremental Adler-32 (RFC 1950).
struct Adler32 {
    a: u32,
    b: u32,
}

impl Adler32 {
    fn new() -> Self {
        Self { a: 1, b: 0 }
    }

    fn update(&mut self, data: &[u8]) {
        for run in data.chunks(ADLER_NMAX) {
            // Byte by byte, `b += a` waits on `a += byte`: one byte per
            // cycle at best. Over a block of n bytes the same sums are
            // a += Σ byteᵢ and b += n·a + Σ (n − i)·byteᵢ, two
            // independent reductions the compiler vectorises. Both fit
            // 16 bits per term (64 · 255), and every partial sum is one
            // the byte loop reaches too, so `ADLER_NMAX` still bounds b.
            let mut blocks = run.chunks_exact(ADLER_BLOCK);
            for block in &mut blocks {
                let mut sum = 0u16;
                let mut weighted = 0u32;
                for (i, &byte) in block.iter().enumerate() {
                    sum += u16::from(byte);
                    weighted += u32::from((ADLER_BLOCK - i) as u16 * u16::from(byte));
                }
                self.b += ADLER_BLOCK as u32 * self.a + weighted;
                self.a += u32::from(sum);
            }
            for &byte in blocks.remainder() {
                self.a += u32::from(byte);
                self.b += self.a;
            }
            self.a %= ADLER_MOD;
            self.b %= ADLER_MOD;
        }
    }

    fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// Slice-by-8 lookup tables for the reflected IEEE 802.3 polynomial, built
/// at compile time. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE 802.3 / ISO 3309, reflected — the PNG, zlib
/// and Ethernet checksum).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the checksum: its whole 16-byte blocks by
    /// carry-less multiplication where the CPU has it and there are at
    /// least four, the rest by table.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let data =
            if data.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
                let (blocks, tail) = data.split_at(data.len() & !15);
                // SAFETY: `is_x86_feature_detected!("pclmulqdq")` held just
                // above, and that is the one feature `clmul::fold` enables.
                self.state = unsafe { clmul::fold(self.state, blocks) };
                tail
            } else {
                data
            };
        self.state = table_update(self.state, data);
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The table kernel: `state` advanced over `data`, eight bytes per round.
/// It serves CPUs without PCLMULQDQ, inputs under 64 bytes and the tails
/// the folding kernel leaves.
fn table_update(state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folding kernel: Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", with the constants and steps
/// of the `crc32-pclmul` code in Linux and zlib. Four 128-bit lanes carry
/// the state 64 bytes forward per round; they fold into one lane, which
/// takes any last 16-byte blocks; that lane folds to 64 bits, and a
/// Barrett reduction leaves the 32-bit state. Every constant is
/// bit-reflected for 0xEDB88320, and `[a, b]` is `b:a` in a lane.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: its four lanes start full.
    pub(super) const MIN_LEN: usize = 64;

    /// x^(4·128+32) and x^(4·128−32) mod P, each shifted up 32 and one
    /// bit: a lane carried 512 bits forward.
    const K1_K2: [i64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
    /// x^(128+32) and x^(128−32) mod P, likewise: carried 128 bits.
    const K3_K4: [i64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
    /// x^64 mod P, likewise: 64 bits folded into 32.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and μ = x^64 / P, the Barrett pair.
    const P_MU: [i64; 2] = [0x1_db71_0641, 0x1_f701_1641];

    /// `state` advanced over `data`, a whole number of 16-byte blocks, at
    /// least [`MIN_LEN`] bytes. A caller must have seen
    /// `is_x86_feature_detected!("pclmulqdq")` hold: the instructions
    /// this compiles to fault on a CPU without them.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        debug_assert!(tail.is_empty() && data.len() >= MIN_LEN);
        let mut rounds = blocks.chunks_exact(4);
        let first = rounds.next().expect("at least four blocks");
        let mut lanes = [0, 1, 2, 3].map(|i| load(&first[i]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1_k2 = pair(K1_K2);
        for round in &mut rounds {
            for (lane, block) in lanes.iter_mut().zip(round) {
                *lane = fold_16(*lane, k1_k2, load(block));
            }
        }
        let k3_k4 = pair(K3_K4);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_16(x, k3_k4, lane);
        }
        for block in rounds.remainder() {
            x = fold_16(x, k3_k4, load(block));
        }

        // 128 bits to 64: the low half times k4 onto the high half, then
        // the low 32 bits of that times k5 onto the rest.
        let low_32s = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3_k4),
        );
        let high = _mm_srli_si128::<4>(x);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_32s), k5),
            high,
        );

        // Barrett: q = ⌊x·μ⌋ on the low 32 bits, and x − q·P leaves the
        // remainder in bits 32..64.
        let p_mu = pair(P_MU);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_32s), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low_32s), p_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
    }

    /// `lane` carried forward by the constant pair `k`, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_16(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, k);
        let high = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn pair([low, high]: [i64; 2]) -> __m128i {
        _mm_set_epi64x(high, low)
    }

    /// One 16-byte block as a lane, little-endian.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        pair([v as i64, (v >> 64) as i64])
    }
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The encoder and checksums this module shipped before the one-pass
    /// rewrite, kept verbatim as the oracle: bit-at-a-time CRC-32, Adler-32
    /// with a modulo per byte, and one temporary per layer.
    mod reference {
        use crate::raster::Framebuffer;

        pub fn encode_png(fb: &Framebuffer) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);

            let mut ihdr = Vec::with_capacity(13);
            ihdr.extend_from_slice(&(fb.width as u32).to_be_bytes());
            ihdr.extend_from_slice(&(fb.height as u32).to_be_bytes());
            ihdr.extend_from_slice(&[8, 2, 0, 0, 0]);
            write_chunk(&mut out, b"IHDR", &ihdr);

            let rgb: Vec<u8> = fb.color.iter().flat_map(|c| c.iter().copied()).collect();
            let stride = fb.width * 3;
            let mut raw = Vec::with_capacity((stride + 1) * fb.height);
            for row in 0..fb.height {
                raw.push(0);
                raw.extend_from_slice(&rgb[row * stride..(row + 1) * stride]);
            }
            write_chunk(&mut out, b"IDAT", &zlib_stored(&raw));
            write_chunk(&mut out, b"IEND", &[]);
            out
        }

        fn write_chunk(out: &mut Vec<u8>, kind: &[u8; 4], data: &[u8]) {
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(kind);
            out.extend_from_slice(data);
            let covered = [kind.as_slice(), data].concat();
            out.extend_from_slice(&crc32(&covered).to_be_bytes());
        }

        fn zlib_stored(raw: &[u8]) -> Vec<u8> {
            let mut z = vec![0x78, 0x01];
            let mut chunks = raw.chunks(65535).peekable();
            if raw.is_empty() {
                z.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
            }
            while let Some(c) = chunks.next() {
                let final_block = chunks.peek().is_none();
                z.push(if final_block { 1 } else { 0 });
                let len = c.len() as u16;
                z.extend_from_slice(&len.to_le_bytes());
                z.extend_from_slice(&(!len).to_le_bytes());
                z.extend_from_slice(c);
            }
            z.extend_from_slice(&adler32(raw).to_be_bytes());
            z
        }

        pub fn adler32(data: &[u8]) -> u32 {
            const MOD: u32 = 65521;
            let mut a: u32 = 1;
            let mut b: u32 = 0;
            for &byte in data {
                a = (a + byte as u32) % MOD;
                b = (b + a) % MOD;
            }
            (b << 16) | a
        }

        pub fn crc32(data: &[u8]) -> u32 {
            let mut state = 0xFFFF_FFFFu32;
            for &byte in data {
                let mut c = (state ^ byte as u32) & 0xFF;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                state = (state >> 8) ^ c;
            }
            state ^ 0xFFFF_FFFF
        }
    }

    fn adler32(data: &[u8]) -> u32 {
        let mut adler = Adler32::new();
        adler.update(data);
        adler.finish()
    }

    /// Deterministic, non-repeating pixels (every byte lane differs).
    fn patterned(width: usize, height: usize, seed: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(width, height);
        let mut x = seed;
        for px in fb.color.iter_mut() {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *px = [(x >> 24) as u8, (x >> 16) as u8, (x >> 8) as u8];
        }
        fb
    }

    /// A decoder's view of a PNG: walk the chunks verifying every CRC,
    /// inflate the stored blocks verifying every header and the Adler-32,
    /// and hand back `(width, height, raw scanlines)`.
    fn decode_verifying(png: &[u8]) -> (usize, usize, Vec<u8>) {
        assert_eq!(&png[..8], &PNG_SIGNATURE);
        let mut pos = 8;
        let mut kinds = Vec::new();
        let mut dims = (0, 0);
        let mut idat = Vec::new();
        while pos < png.len() {
            let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
            let kind: [u8; 4] = png[pos + 4..pos + 8].try_into().unwrap();
            let data = &png[pos + 8..pos + 8 + len];
            let crc = u32::from_be_bytes(png[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            assert_eq!(
                reference::crc32(&png[pos + 4..pos + 8 + len]),
                crc,
                "{} chunk CRC",
                String::from_utf8_lossy(&kind)
            );
            match &kind {
                b"IHDR" => {
                    assert_eq!(len, 13);
                    dims = (
                        u32::from_be_bytes(data[0..4].try_into().unwrap()) as usize,
                        u32::from_be_bytes(data[4..8].try_into().unwrap()) as usize,
                    );
                    assert_eq!(&data[8..], &[8, 2, 0, 0, 0]);
                }
                b"IDAT" => idat.extend_from_slice(data),
                b"IEND" => assert_eq!(len, 0),
                other => panic!("unexpected chunk {other:?}"),
            }
            kinds.push(kind);
            pos += 12 + len;
        }
        assert_eq!(pos, png.len(), "trailing bytes after the last chunk");
        assert_eq!(kinds, [*b"IHDR", *b"IDAT", *b"IEND"]);

        assert_eq!(&idat[..2], &[0x78, 0x01]);
        let mut raw = Vec::new();
        let mut p = 2;
        loop {
            let final_block = match idat[p] {
                0 => false,
                1 => true,
                other => panic!("not a stored block header: {other:#x}"),
            };
            let len = u16::from_le_bytes(idat[p + 1..p + 3].try_into().unwrap());
            let nlen = u16::from_le_bytes(idat[p + 3..p + 5].try_into().unwrap());
            assert_eq!(nlen, !len, "stored block LEN/NLEN");
            let len = len as usize;
            raw.extend_from_slice(&idat[p + 5..p + 5 + len]);
            p += 5 + len;
            if final_block {
                break;
            }
            assert_eq!(len, STORED_BLOCK_MAX, "only the final block may be short");
        }
        assert_eq!(reference::adler32(&raw).to_be_bytes(), idat[p..p + 4]);
        assert_eq!(p + 4, idat.len(), "trailing bytes after the Adler-32");
        (dims.0, dims.1, raw)
    }

    #[test]
    fn crc32_known_vectors() {
        // CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    type Kernel = fn(&[u8]) -> u32;

    /// Both kernels by name: the table kernel on every host, and what
    /// [`crc32`] runs, which is the folding kernel from 64 bytes on where
    /// the CPU has PCLMULQDQ.
    fn kernels() -> [(&'static str, Kernel); 2] {
        #[cfg(target_arch = "x86_64")]
        if !std::arch::is_x86_feature_detected!("pclmulqdq") {
            println!("skipped: this CPU has no PCLMULQDQ, so crc32 runs the table kernel");
        }
        [
            ("table", |d| table_update(0xFFFF_FFFF, d) ^ 0xFFFF_FFFF),
            ("dispatched", crc32),
        ]
    }

    #[test]
    fn crc32_kernels_match_the_bitwise_oracle_at_every_length_and_alignment() {
        // Lengths 0..=256 cover the table-only inputs, exactly four
        // 16-byte blocks, and every tail after one to three rounds of 64;
        // start offsets 0..16 move the loads across every alignment.
        let buf = patterned(91, 1, 1).rgb_bytes().to_vec();
        assert_eq!(buf.len(), 273);
        for (name, kernel) in kernels() {
            for start in 0..16 {
                for len in 0..=256 {
                    let s = &buf[start..start + len];
                    assert_eq!(
                        kernel(s),
                        reference::crc32(s),
                        "{name}: start {start} len {len}"
                    );
                }
            }
            // A frame-sized buffer: tens of thousands of folding rounds.
            let big = patterned(1200, 1000, 2).rgb_bytes().to_vec();
            assert!(big.len() > 3 << 20);
            for s in [&big[..], &big[3..], &big[..big.len() - 7]] {
                assert_eq!(kernel(s), reference::crc32(s), "{name}: {} bytes", s.len());
            }
        }
    }

    #[test]
    fn crc32_updates_cut_across_block_edges_equal_one_shot() {
        // Cuts one byte either side of the 16- and 64-byte edges, so
        // pieces alternate between the two kernels and leave tails of
        // every length for the table kernel to carry into the next piece.
        let data = patterned(200, 1, 3).rgb_bytes().to_vec();
        let whole = reference::crc32(&data);
        for first in [15, 16, 17, 63, 64, 65, 79, 80, 81, 127, 128, 129] {
            for second in [1, 15, 16, 17, 63, 64, 65, 128, 200] {
                let (a, rest) = data.split_at(first);
                let (b, c) = rest.split_at(second);
                let mut crc = Crc32::new();
                for piece in [a, b, c] {
                    crc.update(piece);
                }
                assert_eq!(crc.finish(), whole, "cuts at {first} and +{second}");
            }
        }
    }

    #[test]
    fn adler32_known_vectors() {
        // Adler32("Wikipedia") = 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn adler32_deferred_modulo_survives_saturated_input() {
        // All-0xFF is the input that grows `b` fastest: one byte more than
        // NMAX between reductions would wrap the u32.
        for len in [ADLER_NMAX, ADLER_NMAX + 1, 3 * ADLER_NMAX + 17, 1 << 20] {
            let data = vec![0xFFu8; len];
            assert_eq!(adler32(&data), reference::adler32(&data), "len {len}");
        }
        // Incremental updates start each run from reduced state.
        let data = vec![0xFFu8; 4 * ADLER_NMAX];
        let mut adler = Adler32::new();
        for piece in data.chunks(ADLER_NMAX - 1) {
            adler.update(piece);
        }
        assert_eq!(adler.finish(), reference::adler32(&data));
    }

    #[test]
    fn png_structure_is_valid() {
        let mut fb = Framebuffer::new(8, 8);
        fb.color[0] = [255, 0, 0];
        let png = encode_png(&fb);
        assert_eq!(&png[0..8], &PNG_SIGNATURE);
        // IHDR immediately after the signature.
        assert_eq!(&png[12..16], b"IHDR");
        assert_eq!(u32::from_be_bytes(png[16..20].try_into().unwrap()), 8);
        assert_eq!(u32::from_be_bytes(png[20..24].try_into().unwrap()), 8);
        // IEND terminates the file.
        assert_eq!(&png[png.len() - 8..png.len() - 4], b"IEND");
        // The up-front reservation was exact.
        assert_eq!(png.len(), png.capacity());
    }

    #[test]
    fn png_into_a_recycled_buffer_is_the_same_file_in_the_same_allocation() {
        let mut buf = encode_png(&patterned(40, 30, 5));
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let fb = patterned(40, 30, 6);
        encode_png_into(&fb, &mut buf);
        assert_eq!(buf, reference::encode_png(&fb));
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        // A smaller frame fits too; a larger one grows the buffer.
        let small = patterned(7, 3, 7);
        encode_png_into(&small, &mut buf);
        assert_eq!(buf.as_ptr(), ptr);
        assert_eq!(buf, reference::encode_png(&small));
        let large = patterned(80, 60, 8);
        encode_png_into(&large, &mut buf);
        assert_eq!(buf, reference::encode_png(&large));
    }

    #[test]
    fn png_decodes_back_with_every_checksum_verified() {
        let mut fb = Framebuffer::new(3, 2);
        for (i, px) in fb.color.iter_mut().enumerate() {
            *px = [i as u8, (i * 2) as u8, (i * 3) as u8];
        }
        let (w, h, raw) = decode_verifying(&encode_png(&fb));
        assert_eq!((w, h), (3, 2));
        assert_eq!(raw.len(), 2 * (1 + 9));
        // Row 0: filter byte + 9 RGB bytes.
        assert_eq!(raw[0], 0);
        assert_eq!(&raw[1..4], &[0, 0, 0]);
        assert_eq!(&raw[4..7], &[1, 2, 3]);
        // Row 1 starts with its own filter byte.
        assert_eq!(raw[10], 0);
        assert_eq!(&raw[11..14], &[3, 6, 9]);
    }

    /// Sizes chosen for where the stored-block boundary falls.
    #[test]
    fn png_matches_reference_at_block_boundaries() {
        for (w, h) in [
            (0, 0),
            (0, 5), // filter bytes only
            (5, 0), // no scanlines: one empty final block
            (1, 1),
            (7, 13),
            // 601 B/row × 120 = 72120: row 109 straddles the first boundary.
            (200, 120),
            // (3·21844 + 1) = 65533 B/row: the boundary falls two bytes into
            // row 1, right after its filter byte and first sample.
            (21844, 2),
            // 4369 B/row × 15 = 65535: exactly one full block.
            (1456, 15),
            // … × 30: exactly two full blocks, a row ending on the boundary.
            (1456, 30),
            (400, 300),
        ] {
            let fb = patterned(w, h, 3);
            let png = encode_png(&fb);
            assert_eq!(png, reference::encode_png(&fb), "{w}x{h}");
            assert_eq!(png.len(), png.capacity(), "{w}x{h} reservation");
            let (dw, dh, raw) = decode_verifying(&png);
            assert_eq!((dw, dh), (w, h));
            assert_eq!(raw.len(), (3 * w + 1) * h);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn png_matches_reference_on_random_images(
            (w, h, seed) in (0usize..=96, 0usize..=96, 0u32..=u32::MAX),
            // Tall or wide enough to need several stored blocks.
            stretch in 1usize..=12,
            wide in 0u8..=1,
        ) {
            let (w, h) = if wide == 1 { (w * stretch, h) } else { (w, h * stretch) };
            let fb = patterned(w, h, seed);
            let png = encode_png(&fb);
            prop_assert!(png == reference::encode_png(&fb), "{}x{} differs", w, h);
            let (dw, dh, raw) = decode_verifying(&png);
            prop_assert_eq!((dw, dh), (w, h));
            for (row, line) in raw.chunks(3 * w + 1).enumerate() {
                prop_assert_eq!(line[0], 0);
                prop_assert!(line[1..] == *fb.color[row * w..(row + 1) * w].as_flattened());
            }
        }

        #[test]
        fn crc32_incremental_equals_one_shot(
            data in vec(0u8..=255, 0..600),
            cuts in vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), crc32(&data));
            prop_assert_eq!(crc32(&data), reference::crc32(&data));
        }
    }
}
