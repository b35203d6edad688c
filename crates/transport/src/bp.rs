//! BP-like binary marshaling of mesh blocks.
//!
//! A flat, little-endian, length-prefixed layout — the same role ADIOS2's
//! BP marshaling plays in the paper's SST configuration. One payload holds
//! one producer rank's blocks for one step.
//!
//! Every frame ends in a CRC32 (IEEE) of the body, so on-wire corruption
//! is detected and rejected at the receiver instead of being silently
//! decoded into garbage grids (see the fault model in DESIGN.md).

use crate::codec::{
    self, put_bytes, put_f32s, put_f64, put_f64s, put_i64s, put_u32, put_u64, Prefix, Reader,
};
use meshdata::{ArrayData, CellType, DataArray, MultiBlock, UnstructuredGrid};

/// CRC32 (IEEE) of a byte slice — the workspace's one CRC kernel, shared
/// with the PNG encoder.
pub use render::image::crc32;

const MAGIC: u32 = 0x4250_344C; // "BP4L"
const VERSION: u32 = 2; // v2: trailing CRC32 frame check

/// Fixed bytes of the frame header (magic, version, producer, step, time,
/// block count), of one block (index, point, cell and connectivity counts)
/// and of one array (name length, components, type tag, scalar count):
/// the terms of the frame length, and the least a declared block or
/// array count must find unread to be believed.
const HEADER_BYTES: usize = 4 + 4 + 4 + 8 + 8 + 4;
const BLOCK_BYTES: usize = 4 + 8 + 8 + 8;
const ARRAY_BYTES: usize = 4 + 4 + 1 + 8;

/// The frame body, once its trailing CRC32 is verified.
fn verified_body(payload: &[u8]) -> Result<&[u8], BpError> {
    let (body, trailer) = payload.split_last_chunk::<4>().ok_or(BpError::Truncated)?;
    if Reader::new(trailer).u32() == Ok(crc32(body)) {
        Ok(body)
    } else {
        Err(BpError::ChecksumMismatch)
    }
}

/// Verify a frame's trailing CRC32 without parsing the body. Cheap enough
/// to run on every received packet.
pub fn frame_crc_ok(payload: &[u8]) -> bool {
    verified_body(payload).is_ok()
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

impl StepData {
    /// Move this producer's blocks into their slots of `mb` (one slot per
    /// simulation rank).
    ///
    /// # Errors
    /// [`BpError::Malformed`] for a block index `mb` has no slot for.
    pub fn place_into(self, mb: &mut MultiBlock) -> Result<(), BpError> {
        let n = mb.blocks.len();
        for (idx, grid) in self.blocks {
            let slot = mb.blocks.get_mut(idx as usize).ok_or_else(|| {
                BpError::Malformed(format!("block index {idx} in a {n}-block dataset"))
            })?;
            *slot = Some(grid);
        }
        Ok(())
    }
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

impl From<codec::Error> for BpError {
    fn from(e: codec::Error) -> Self {
        match e {
            codec::Error::Truncated => BpError::Truncated,
            codec::Error::NotUtf8 => BpError::Malformed("non-utf8 array name".into()),
        }
    }
}

fn arrays_len(arrays: &[DataArray]) -> usize {
    let array =
        |a: &DataArray| ARRAY_BYTES + a.name.len() + a.data.scalar_len() * a.data.scalar_size();
    4 + arrays.iter().map(array).sum::<usize>()
}

/// Serialize the local blocks of `mb` for `producer` at (`step`, `time`).
pub fn marshal_blocks(producer: u32, step: u64, time: f64, mb: &MultiBlock) -> Vec<u8> {
    // The exact frame length, so the buffer is reserved once.
    let block = |g: &UnstructuredGrid| {
        BLOCK_BYTES
            + 24 * g.n_points()
            + 8 * (g.connectivity.len() + g.offsets.len())
            + g.types.len()
            + arrays_len(&g.point_data)
            + arrays_len(&g.cell_data)
    };
    let len = HEADER_BYTES + mb.local_blocks().map(|(_, g)| block(g)).sum::<usize>() + 4;
    let mut out = Vec::with_capacity(len);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, producer);
    put_u64(&mut out, step);
    put_f64(&mut out, time);
    put_u32(&mut out, mb.local_blocks().count() as u32);
    for (idx, g) in mb.local_blocks() {
        put_u32(&mut out, idx as u32);
        put_u64(&mut out, g.n_points() as u64);
        put_u64(&mut out, g.n_cells() as u64);
        put_f64s(&mut out, g.points.as_flattened());
        put_u64(&mut out, g.connectivity.len() as u64);
        put_i64s(&mut out, &g.connectivity);
        put_i64s(&mut out, &g.offsets);
        out.extend(g.types.iter().map(|&t| t as u8));
        put_arrays(&mut out, &g.point_data);
        put_arrays(&mut out, &g.cell_data);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    debug_assert_eq!(out.len(), len, "the length formula and the layout disagree");
    out
}

fn put_arrays(out: &mut Vec<u8>, arrays: &[DataArray]) {
    put_u32(out, arrays.len() as u32);
    for a in arrays {
        put_bytes(out, a.name.as_bytes());
        put_u32(out, a.components as u32);
        out.push(match &a.data {
            ArrayData::F32(_) => 0,
            // Shared snapshot storage marshals as plain Float64 so the
            // endpoint reconstructs an owned array.
            ArrayData::F64(_) | ArrayData::F64Shared(_) => 1,
            ArrayData::I64(_) => 2,
            ArrayData::U8(_) => 3,
        });
        put_u64(out, a.data.scalar_len() as u64);
        match &a.data {
            ArrayData::F32(v) => put_f32s(out, v),
            ArrayData::F64(v) => put_f64s(out, v),
            ArrayData::F64Shared(v) => put_f64s(out, v),
            ArrayData::I64(v) => put_i64s(out, v),
            ArrayData::U8(v) => out.extend_from_slice(v),
        }
    }
}

/// Deserialize a payload produced by [`marshal_blocks`].
///
/// # Errors
/// CRC mismatch, truncation, or malformed structure.
pub fn unmarshal_blocks(payload: &[u8]) -> Result<StepData, BpError> {
    let mut r = Reader::new(verified_body(payload)?);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(BpError::Malformed(format!("bad magic {magic:#x}")));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(BpError::Malformed(format!("unsupported version {version}")));
    }
    let (producer, step, time) = (r.u32()?, r.u64()?, r.f64()?);
    let n_blocks = r.count(Prefix::U32, BLOCK_BYTES + 4 + 4)?;
    let mut blocks = Vec::new();
    for _ in 0..n_blocks {
        let idx = r.u32()?;
        let n_points = r.count(Prefix::U64, 24)?;
        let n_cells = r.count(Prefix::U64, 9)?;
        let mut g = UnstructuredGrid::new();
        g.points = r.f64x3s(n_points)?;
        let conn_len = r.count(Prefix::U64, 8)?;
        g.connectivity = r.i64s(conn_len)?;
        g.offsets = r.i64s(n_cells)?;
        let cell_type =
            |&t| CellType::from_u8(t).ok_or_else(|| BpError::Malformed("unknown cell type".into()));
        g.types = r
            .take(n_cells)?
            .iter()
            .map(cell_type)
            .collect::<Result<_, _>>()?;
        g.point_data = get_arrays(&mut r)?;
        g.cell_data = get_arrays(&mut r)?;
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

fn get_arrays(r: &mut Reader<'_>) -> Result<Vec<DataArray>, BpError> {
    let n = r.count(Prefix::U32, ARRAY_BYTES)?;
    let mut arrays = Vec::new();
    for _ in 0..n {
        let name = r.str()?.to_owned();
        let components = r.u32()? as usize;
        let tag = r.u8()?;
        let scalar_len = r.count(Prefix::U64, 1)?;
        let data = match tag {
            0 => ArrayData::F32(r.f32s(scalar_len)?),
            1 => ArrayData::F64(r.f64s(scalar_len)?),
            2 => ArrayData::I64(r.i64s(scalar_len)?),
            3 => ArrayData::U8(r.take(scalar_len)?.to_vec()),
            other => return Err(BpError::Malformed(format!("unknown type tag {other}"))),
        };
        if components == 0 || scalar_len % components != 0 {
            return Err(BpError::Malformed(format!(
                "array '{name}': {scalar_len} scalars not divisible by {components} components"
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
