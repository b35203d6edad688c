//! Output checks, counted into the run's `attempted` / `failed`.

use crate::surface::crc32;
use std::path::Path;

/// Tally of attempted and failed operations and checks for one run. A
/// failure prints its reason once, as it is found.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// One pass/fail check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// `expected` operations of which `got` happened; each missing or
    /// surplus one is a failure.
    pub fn count(&mut self, expected: u64, got: u64, what: &str) {
        self.attempted += expected.max(1);
        let off = expected.abs_diff(got);
        if off > 0 {
            self.failed += off;
            println!("CHECK FAILED: {what}: expected {expected}, got {got}");
        }
    }

    /// A value that must repeat bitwise: compares against (or records) the
    /// first one seen.
    pub fn same_bits(&mut self, first: &mut Option<u64>, value: f64, what: &str) {
        let bits = value.to_bits();
        let reference = *first.get_or_insert(bits);
        self.check(reference == bits, || {
            format!(
                "{what}: {value:?} differs from the first repeat's {:?}",
                f64::from_bits(reference)
            )
        });
    }
}

const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];

/// Validate an 8-bit RGB PNG as the product writes them: signature, one
/// IHDR of the expected size first, every chunk's CRC, IEND last, and
/// pixel data that is not one flat colour.
///
/// # Errors
/// The first violated property.
pub fn check_png(bytes: &[u8], size: (usize, usize)) -> Result<(), String> {
    let body = bytes.strip_prefix(&PNG_SIGNATURE).ok_or("bad signature")?;
    let mut rest = body;
    let mut first = true;
    let mut idat: Vec<u8> = Vec::new();
    loop {
        let (head, tail) = rest.split_at_checked(8).ok_or("truncated chunk header")?;
        let len = u32::from_be_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let kind = &head[4..8];
        let (data_crc, after) = tail
            .split_at_checked(len.checked_add(4).ok_or("chunk length overflows")?)
            .ok_or("truncated chunk")?;
        let (data, crc) = data_crc.split_at(len);
        // The CRC covers kind and data, contiguous in the file.
        let covered = &rest[4..8 + len];
        if crc32(covered).to_be_bytes() != crc {
            return Err(format!("bad CRC on {}", String::from_utf8_lossy(kind)));
        }
        if first {
            if kind != b"IHDR" || len != 13 {
                return Err("first chunk is not IHDR".into());
            }
            let w = u32::from_be_bytes(data[..4].try_into().expect("4 bytes")) as usize;
            let h = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
            if (w, h) != size || data[8..10] != [8, 2] {
                return Err(format!(
                    "IHDR says {w}x{h}, want {}x{} 8-bit RGB",
                    size.0, size.1
                ));
            }
            first = false;
        }
        match kind {
            b"IDAT" => idat.extend_from_slice(data),
            b"IEND" if after.is_empty() => break,
            b"IEND" => return Err("bytes after IEND".into()),
            _ => {}
        }
        rest = after;
    }
    let raw = inflate_stored(&idat)?;
    let stride = size.0 * 3 + 1;
    if raw.len() != stride * size.1 {
        return Err(format!(
            "{} pixel bytes for {}x{}",
            raw.len(),
            size.0,
            size.1
        ));
    }
    let mut pixels = raw.chunks(stride).flat_map(|row| row[1..].chunks(3));
    let first_px = pixels.next().ok_or("no pixels")?;
    if pixels.all(|p| p == first_px) {
        return Err("every pixel has the same colour".into());
    }
    Ok(())
}

/// Undo a zlib stream of stored deflate blocks (the only kind the
/// product's encoder emits).
fn inflate_stored(z: &[u8]) -> Result<Vec<u8>, String> {
    let mut rest = z.get(2..).ok_or("no zlib header")?;
    let mut out = Vec::with_capacity(z.len());
    loop {
        let (head, tail) = rest.split_at_checked(5).ok_or("truncated deflate block")?;
        if head[0] & 0b110 != 0 {
            return Err("deflate block is not stored".into());
        }
        let len = u16::from_le_bytes([head[1], head[2]]);
        if len != !u16::from_le_bytes([head[3], head[4]]) {
            return Err("stored block length check failed".into());
        }
        let (data, after) = tail
            .split_at_checked(len as usize)
            .ok_or("truncated stored block")?;
        out.extend_from_slice(data);
        rest = after;
        if head[0] & 1 == 1 {
            return Ok(out);
        }
    }
}

/// Check every `.png` under `dir`; returns how many there are.
pub fn check_png_dir(dir: &Path, size: (usize, usize), checks: &mut Checks) -> u64 {
    let mut n = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "png") {
            n += 1;
            let verdict = std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|b| check_png(&b, size));
            checks.check(verdict.is_ok(), || {
                format!("{}: {}", path.display(), verdict.unwrap_err())
            });
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{encode_png, Framebuffer};

    fn sample() -> Vec<u8> {
        let mut fb = Framebuffer::new(40, 30);
        fb.color[7] = [255, 0, 0];
        encode_png(&fb)
    }

    #[test]
    fn accepts_the_products_png_and_rejects_damage() {
        let png = sample();
        assert_eq!(check_png(&png, (40, 30)), Ok(()));
        assert!(check_png(&png, (41, 30)).unwrap_err().contains("IHDR"));
        let mut flipped = png.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(check_png(&flipped, (40, 30)).unwrap_err().contains("CRC"));
        assert!(check_png(&png[..png.len() - 3], (40, 30)).is_err());
        assert!(check_png(b"not a png", (40, 30)).is_err());
    }

    #[test]
    fn rejects_a_flat_image() {
        let png = encode_png(&Framebuffer::new(8, 8));
        assert!(check_png(&png, (8, 8)).unwrap_err().contains("same colour"));
    }

    #[test]
    fn counts_expected_against_got() {
        let mut c = Checks::default();
        c.count(4, 4, "frames");
        c.count(4, 3, "frames");
        c.check(true, || unreachable!());
        assert_eq!((c.attempted, c.failed), (9, 1));
        let mut first = None;
        c.same_bits(&mut first, 1.5, "virt");
        c.same_bits(&mut first, 1.5, "virt");
        c.same_bits(&mut first, 1.5000001, "virt");
        assert_eq!((c.attempted, c.failed), (12, 2));
    }
}
