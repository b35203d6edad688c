//! BP-like binary marshaling of mesh blocks.
//!
//! A flat, little-endian, length-prefixed layout — the same role ADIOS2's
//! BP marshaling plays in the paper's SST configuration. One payload holds
//! one producer rank's blocks for one step.
//!
//! Every frame ends in a CRC32 (IEEE) of the body, so on-wire corruption
//! is detected and rejected at the receiver instead of being silently
//! decoded into garbage grids (see the fault model in DESIGN.md).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use meshdata::{ArrayData, CellType, DataArray, MultiBlock, UnstructuredGrid};

/// CRC32 (IEEE) of a byte slice — the workspace's one CRC kernel, shared
/// with the PNG encoder.
pub use render::image::crc32;

const MAGIC: u32 = 0x4250_344C; // "BP4L"
const VERSION: u32 = 2; // v2: trailing CRC32 frame check

/// Verify a frame's trailing CRC32 without parsing the body. Cheap enough
/// to run on every received packet.
pub fn frame_crc_ok(payload: &[u8]) -> bool {
    if payload.len() < 4 {
        return false;
    }
    let (body, trailer) = payload.split_at(payload.len() - 4);
    crc32(body) == u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]])
}

/// One step's worth of data from one producer.
#[derive(Debug, Clone, PartialEq)]
pub struct StepData {
    /// Producer (simulation rank) id.
    pub producer: u32,
    /// Timestep index.
    pub step: u64,
    /// Simulation time.
    pub time: f64,
    /// The producer's local blocks: (global block index, grid).
    pub blocks: Vec<(u32, UnstructuredGrid)>,
}

/// Marshaling/unmarshaling errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BpError {
    /// Payload too short for the declared content.
    Truncated,
    /// Bad magic/version or malformed structure.
    Malformed(String),
    /// Trailing CRC32 does not match the frame body.
    ChecksumMismatch,
}

impl std::fmt::Display for BpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpError::Truncated => write!(f, "payload truncated"),
            BpError::Malformed(m) => write!(f, "malformed payload: {m}"),
            BpError::ChecksumMismatch => write!(f, "frame CRC32 mismatch"),
        }
    }
}

impl std::error::Error for BpError {}

/// Serialize the local blocks of `mb` for `producer` at (`step`, `time`).
pub fn marshal_blocks(producer: u32, step: u64, time: f64, mb: &MultiBlock) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u32_le(MAGIC);
    out.put_u32_le(VERSION);
    out.put_u32_le(producer);
    out.put_u64_le(step);
    out.put_f64_le(time);
    let locals: Vec<_> = mb.local_blocks().collect();
    out.put_u32_le(locals.len() as u32);
    for (idx, g) in locals {
        out.put_u32_le(idx as u32);
        out.put_u64_le(g.n_points() as u64);
        out.put_u64_le(g.n_cells() as u64);
        for p in &g.points {
            out.put_f64_le(p[0]);
            out.put_f64_le(p[1]);
            out.put_f64_le(p[2]);
        }
        out.put_u64_le(g.connectivity.len() as u64);
        for &c in &g.connectivity {
            out.put_i64_le(c);
        }
        for &o in &g.offsets {
            out.put_i64_le(o);
        }
        for &t in &g.types {
            out.put_u8(t as u8);
        }
        put_arrays(&mut out, &g.point_data);
        put_arrays(&mut out, &g.cell_data);
    }
    let trailer = crc32(&out).to_le_bytes();
    out.put_slice(&trailer);
    out.to_vec()
}

fn put_arrays(out: &mut BytesMut, arrays: &[DataArray]) {
    out.put_u32_le(arrays.len() as u32);
    for a in arrays {
        out.put_u32_le(a.name.len() as u32);
        out.put_slice(a.name.as_bytes());
        out.put_u32_le(a.components as u32);
        let (tag, bytes): (u8, Vec<u8>) = match &a.data {
            ArrayData::F32(_) => (0, a.data.to_le_bytes()),
            // Shared snapshot storage marshals as plain Float64 so the
            // endpoint reconstructs an owned array.
            ArrayData::F64(_) | ArrayData::F64Shared(_) => (1, a.data.to_le_bytes()),
            ArrayData::I64(_) => (2, a.data.to_le_bytes()),
            ArrayData::U8(_) => (3, a.data.to_le_bytes()),
        };
        out.put_u8(tag);
        out.put_u64_le(a.data.scalar_len() as u64);
        out.put_slice(&bytes);
    }
}

/// Deserialize a payload produced by [`marshal_blocks`].
///
/// # Errors
/// CRC mismatch, truncation, or malformed structure.
pub fn unmarshal_blocks(payload: &[u8]) -> Result<StepData, BpError> {
    if payload.len() < 4 {
        return Err(BpError::Truncated);
    }
    if !frame_crc_ok(payload) {
        return Err(BpError::ChecksumMismatch);
    }
    let mut buf = Bytes::copy_from_slice(&payload[..payload.len() - 4]);
    let magic = get_u32(&mut buf)?;
    if magic != MAGIC {
        return Err(BpError::Malformed(format!("bad magic {magic:#x}")));
    }
    let version = get_u32(&mut buf)?;
    if version != VERSION {
        return Err(BpError::Malformed(format!("unsupported version {version}")));
    }
    let producer = get_u32(&mut buf)?;
    let step = get_u64(&mut buf)?;
    let time = get_f64(&mut buf)?;
    let n_blocks = get_u32(&mut buf)?;
    let mut blocks = Vec::with_capacity(n_blocks as usize);
    for _ in 0..n_blocks {
        let idx = get_u32(&mut buf)?;
        let n_points = get_u64(&mut buf)? as usize;
        let n_cells = get_u64(&mut buf)? as usize;
        let mut g = UnstructuredGrid::new();
        need(&buf, sized(n_points, 24, 0)?)?;
        for _ in 0..n_points {
            g.add_point([buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le()]);
        }
        let conn_len = get_u64(&mut buf)? as usize;
        need(&buf, sized(conn_len, 8, sized(n_cells, 9, 0)?)?)?;
        g.connectivity = (0..conn_len).map(|_| buf.get_i64_le()).collect();
        g.offsets = (0..n_cells).map(|_| buf.get_i64_le()).collect();
        g.types = (0..n_cells)
            .map(|_| {
                CellType::from_u8(buf.get_u8())
                    .ok_or_else(|| BpError::Malformed("unknown cell type".into()))
            })
            .collect::<Result<_, _>>()?;
        g.point_data = get_arrays(&mut buf)?;
        g.cell_data = get_arrays(&mut buf)?;
        g.validate()
            .map_err(|e| BpError::Malformed(format!("invalid grid: {e}")))?;
        blocks.push((idx, g));
    }
    Ok(StepData {
        producer,
        step,
        time,
        blocks,
    })
}

fn get_arrays(buf: &mut Bytes) -> Result<Vec<DataArray>, BpError> {
    let n = get_u32(buf)?;
    let mut arrays = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name_len = get_u32(buf)? as usize;
        need(buf, name_len)?;
        let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
            .map_err(|_| BpError::Malformed("non-utf8 array name".into()))?;
        let components = get_u32(buf)? as usize;
        need(buf, 1)?;
        let tag = buf.get_u8();
        let scalar_len = get_u64(buf)? as usize;
        let data = match tag {
            0 => {
                need(buf, sized(scalar_len, 4, 0)?)?;
                ArrayData::F32((0..scalar_len).map(|_| buf.get_f32_le()).collect())
            }
            1 => {
                need(buf, sized(scalar_len, 8, 0)?)?;
                ArrayData::F64((0..scalar_len).map(|_| buf.get_f64_le()).collect())
            }
            2 => {
                need(buf, sized(scalar_len, 8, 0)?)?;
                ArrayData::I64((0..scalar_len).map(|_| buf.get_i64_le()).collect())
            }
            3 => {
                need(buf, scalar_len)?;
                ArrayData::U8(buf.copy_to_bytes(scalar_len).to_vec())
            }
            other => return Err(BpError::Malformed(format!("unknown type tag {other}"))),
        };
        if components == 0 || data.scalar_len() % components != 0 {
            return Err(BpError::Malformed(format!(
                "array '{name}': {} scalars not divisible by {components} components",
                data.scalar_len()
            )));
        }
        arrays.push(DataArray {
            name,
            components,
            data,
        });
    }
    Ok(arrays)
}

fn need(buf: &Bytes, n: usize) -> Result<(), BpError> {
    if buf.remaining() < n {
        Err(BpError::Truncated)
    } else {
        Ok(())
    }
}

/// Overflow-safe `a * b (+ c)` for size checks on untrusted counts: a
/// corrupted header can declare astronomically large element counts.
fn sized(a: usize, b: usize, c: usize) -> Result<usize, BpError> {
    a.checked_mul(b)
        .and_then(|ab| ab.checked_add(c))
        .ok_or(BpError::Truncated)
}

fn get_u32(buf: &mut Bytes) -> Result<u32, BpError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, BpError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut Bytes) -> Result<f64, BpError> {
    need(buf, 8)?;
    Ok(buf.get_f64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mb(rank: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x + rank as f64, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "pressure",
            (0..8).map(|i| i as f64 * 0.5).collect(),
        ))
        .unwrap();
        g.add_point_data(DataArray::vectors_f64(
            "velocity",
            (0..24).map(|i| i as f64).collect(),
        ))
        .unwrap();
        g.add_cell_data(DataArray::scalars_f32("rank", vec![rank as f32]))
            .unwrap();
        MultiBlock::local(rank, 4, g)
    }

    #[test]
    fn roundtrip_is_exact() {
        let mb = sample_mb(2);
        let payload = marshal_blocks(2, 77, 1.25, &mb);
        let back = unmarshal_blocks(&payload).unwrap();
        assert_eq!(back.producer, 2);
        assert_eq!(back.step, 77);
        assert_eq!(back.time, 1.25);
        assert_eq!(back.blocks.len(), 1);
        let (idx, g) = &back.blocks[0];
        assert_eq!(*idx, 2);
        let orig = mb.blocks[2].as_ref().unwrap();
        assert_eq!(g, orig);
    }

    #[test]
    fn empty_multiblock_roundtrips() {
        let mb = MultiBlock::new(4);
        let payload = marshal_blocks(0, 0, 0.0, &mb);
        let back = unmarshal_blocks(&payload).unwrap();
        assert!(back.blocks.is_empty());
    }

    #[test]
    fn truncated_payload_is_detected_at_every_cut() {
        let payload = marshal_blocks(1, 5, 0.5, &sample_mb(1));
        // Cutting anywhere must yield an error, never a panic.
        for cut in [0, 3, 10, 40, payload.len() / 2, payload.len() - 1] {
            assert!(
                unmarshal_blocks(&payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Re-seal a deliberately edited frame so the structural checks (not
    /// the CRC) are what reject it.
    fn refresh_crc(payload: &mut [u8]) {
        let n = payload.len();
        let c = crc32(&payload[..n - 4]).to_le_bytes();
        payload[n - 4..].copy_from_slice(&c);
    }

    #[test]
    fn corrupt_magic_and_version_rejected() {
        let mut payload = marshal_blocks(1, 5, 0.5, &sample_mb(1));
        payload[0] ^= 0xFF;
        refresh_crc(&mut payload);
        assert!(matches!(
            unmarshal_blocks(&payload),
            Err(BpError::Malformed(_))
        ));
        let mut payload = marshal_blocks(1, 5, 0.5, &sample_mb(1));
        payload[4] = 99;
        refresh_crc(&mut payload);
        assert!(unmarshal_blocks(&payload).is_err());
    }

    #[test]
    fn bit_flips_anywhere_fail_the_crc() {
        let clean = marshal_blocks(1, 5, 0.5, &sample_mb(1));
        assert!(frame_crc_ok(&clean));
        for pos in [0, 4, 17, clean.len() / 2, clean.len() - 5, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x01;
            assert!(!frame_crc_ok(&bad), "flip at {pos} undetected");
            assert_eq!(
                unmarshal_blocks(&bad),
                Err(BpError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_size_tracks_field_count() {
        let mb = sample_mb(0);
        let full = marshal_blocks(0, 0, 0.0, &mb).len();
        let mut slim_grid = mb.blocks[0].as_ref().unwrap().clone();
        slim_grid.point_data.clear();
        let slim = marshal_blocks(0, 0, 0.0, &MultiBlock::local(0, 4, slim_grid)).len();
        // pressure (8×8B) + velocity (24×8B) + headers ≈ 280 B difference.
        assert!(full > slim + 250, "full {full} vs slim {slim}");
    }
}
