//! BP file engine: step-append files for post-hoc analysis.
//!
//! ADIOS2 offers the same API over two engines — SST (streaming, the
//! paper's in-transit data plane) and BP files (write now, analyze later).
//! This module is the file half: a writer appends length-prefixed step
//! payloads to one `.bp4l` file per producer; the reader iterates the
//! steps back. It reuses the [`crate::bp`] marshaling, so anything staged
//! over SST can equally be parked on disk — the classic workflow the
//! paper's in situ approach is the alternative to.
//!
//! File layout: `[u64 magic][ (u64 len)(payload)… ]`.

use crate::bp::{self, StepData};
use crate::codec::{self, Prefix, Reader};
use commsim::Comm;
use std::io::{IoSlice, Read};
use std::path::{Path, PathBuf};

const FILE_MAGIC: u64 = 0x4250_464c_4531_0001; // "BPFLE1" + version

/// Appends marshaled steps to a per-producer file, charging filesystem
/// writes on the virtual clock.
pub struct BpFileWriter {
    path: PathBuf,
    file: std::fs::File,
    steps_written: u64,
    bytes_written: u64,
}

impl BpFileWriter {
    /// Create (truncate) the file for `producer` under `dir`.
    ///
    /// # Errors
    /// I/O failures creating the directory or file.
    pub fn create(dir: &Path, producer: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("producer_{producer:05}.bp4l"));
        let mut file = std::fs::File::create(&path)?;
        codec::write_u64(&mut file, FILE_MAGIC)?;
        Ok(Self {
            path,
            file,
            steps_written: 0,
            bytes_written: 8,
        })
    }

    /// Append one marshaled step payload: its length prefix and the
    /// payload go out in one vectored write.
    ///
    /// # Errors
    /// I/O failures.
    pub fn append(&mut self, comm: &mut Comm, payload: &[u8]) -> std::io::Result<()> {
        let len = (payload.len() as u64).to_le_bytes();
        codec::write_all_vectored(
            &mut self.file,
            &mut [IoSlice::new(&len), IoSlice::new(payload)],
        )?;
        let nbytes = payload.len() as u64 + 8;
        comm.fs_write(nbytes, comm.size());
        self.steps_written += 1;
        self.bytes_written += nbytes;
        Ok(())
    }

    /// Steps appended so far.
    pub fn steps_written(&self) -> u64 {
        self.steps_written
    }

    /// Bytes on disk so far (including the header).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Iterates the steps of a `.bp4l` file.
pub struct BpFileReader {
    file: std::fs::File,
    steps_read: u64,
}

impl BpFileReader {
    /// Open and validate the file header.
    ///
    /// # Errors
    /// I/O failures or a bad magic number.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if Reader::new(&magic).u64() != Ok(FILE_MAGIC) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a bp4l file",
            ));
        }
        Ok(Self {
            file,
            steps_read: 0,
        })
    }

    /// Read the next step; `Ok(None)` at end of file.
    ///
    /// # Errors
    /// I/O failures, truncation, or unmarshalable payloads.
    pub fn next_step(&mut self) -> std::io::Result<Option<StepData>> {
        let Some(payload) = codec::read_record(&mut self.file, Prefix::U64)? else {
            return Ok(None);
        };
        let step = bp::unmarshal_blocks(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.steps_read += 1;
        Ok(Some(step))
    }

    /// Steps consumed so far.
    pub fn steps_read(&self) -> u64 {
        self.steps_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::marshal_blocks;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(step: u64) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64("p", vec![step as f64; 8]))
            .unwrap();
        MultiBlock::local(0, 1, g)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpfile_{tag}_{}", std::process::id()))
    }

    #[test]
    fn write_then_read_back_all_steps() {
        let dir = temp_dir("roundtrip");
        let dir2 = dir.clone();
        let written = run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut w = BpFileWriter::create(&dir2, 0).unwrap();
            for step in 1..=5u64 {
                let payload = marshal_blocks(0, step, step as f64 * 0.1, &block(step));
                w.append(comm, &payload).unwrap();
            }
            (
                w.steps_written(),
                w.bytes_written(),
                comm.stats().bytes_written_fs,
            )
        });
        let (steps, bytes, fs_bytes) = written[0];
        assert_eq!(steps, 5);
        assert_eq!(bytes - 8, fs_bytes, "header excluded from fs charge");

        let mut r = BpFileReader::open(&dir.join("producer_00000.bp4l")).unwrap();
        let mut seen = Vec::new();
        while let Some(step) = r.next_step().unwrap() {
            let p = step.blocks[0]
                .1
                .find_array("p", meshdata::Centering::Point)
                .unwrap();
            seen.push((step.step, p.get(0, 0)));
        }
        assert_eq!(r.steps_read(), 5);
        assert_eq!(seen, (1..=5u64).map(|s| (s, s as f64)).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_rejects_non_bp_files() {
        let dir = temp_dir("badmagic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bp4l");
        std::fs::write(&path, b"definitely not bp").unwrap();
        assert!(BpFileReader::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_step_is_an_error_not_a_panic() {
        let dir = temp_dir("trunc");
        let dir2 = dir.clone();
        run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut w = BpFileWriter::create(&dir2, 0).unwrap();
            let payload = marshal_blocks(0, 1, 0.1, &block(1));
            w.append(comm, &payload).unwrap();
        });
        let path = dir.join("producer_00000.bp4l");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut r = BpFileReader::open(&path).unwrap();
        assert!(r.next_step().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
