//! VTU checkpoint analysis: write the current state as `.vtu` pieces (one
//! per rank) plus a `.pvtu` index on rank 0.
//!
//! This is the paper's in-transit "Checkpointing" measurement point: "the
//! SENSEI endpoint is configured to write the pressure and velocity fields
//! to the storage system as VTU files". The same adaptor also serves as a
//! SENSEI-side checkpointer in situ.

use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::{Error, Result};
use commsim::Comm;
use meshdata::writer::{write_pvtu, write_vtu, Encoding};
use meshdata::Centering;

/// File name prefix of every piece and index.
const PREFIX: &str = "chk";

/// Writes requested arrays as VTU/PVTU each trigger.
pub struct VtuCheckpointAnalysis {
    mesh: String,
    arrays: Vec<String>,
    output_dir: Option<std::path::PathBuf>,
    files_written: u64,
    bytes_written: u64,
}

impl VtuCheckpointAnalysis {
    /// Checkpoint `arrays` from `mesh`; write real files under
    /// `output_dir` when given, otherwise only charge the cost model.
    pub fn new(
        mesh: impl Into<String>,
        arrays: Vec<String>,
        output_dir: Option<std::path::PathBuf>,
    ) -> Self {
        Self {
            mesh: mesh.into(),
            arrays,
            output_dir,
            files_written: 0,
            bytes_written: 0,
        }
    }

    /// Build from `<analysis type="vtu-checkpoint" arrays="pressure,velocity"
    /// output="dir"/>`.
    ///
    /// # Errors
    /// Missing `arrays` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        let arrays: Vec<String> = spec
            .attr("arrays")
            .ok_or_else(|| Error::Config("vtu-checkpoint needs 'arrays'".into()))?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        Ok(Self::new(
            spec.attr_or("mesh", "mesh"),
            arrays,
            spec.attr("output").map(std::path::PathBuf::from),
        ))
    }

    /// Files written so far by this rank.
    pub fn files_written(&self) -> u64 {
        self.files_written
    }

    /// Bytes written so far by this rank (the storage-economy metric).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

impl AnalysisAdaptor for VtuCheckpointAnalysis {
    fn name(&self) -> &str {
        "vtu-checkpoint"
    }

    fn required_arrays(&self) -> Vec<String> {
        self.arrays.clone()
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mut mb = data.mesh(comm, &self.mesh)?;
        for a in &self.arrays {
            data.add_array(comm, &mut mb, &self.mesh, Centering::Point, a)?;
        }
        let step = data.time_step();
        let mut piece_names = Vec::new();
        for (block_idx, grid) in mb.local_blocks() {
            let name = format!("{PREFIX}_{step:06}_b{block_idx}.vtu");
            let mut buf = Vec::new();
            let nbytes = write_vtu(grid, Encoding::Appended, &mut buf)?;
            // Serialization is host-side work; the write hits the shared FS
            // with every rank writing concurrently.
            comm.compute_host(nbytes as f64, nbytes as f64 * 2.0);
            comm.fs_write(nbytes, comm.size());
            self.files_written += 1;
            self.bytes_written += nbytes;
            if let Some(dir) = &self.output_dir {
                persist(dir, &name, &buf)?;
            }
            piece_names.push(name);
        }
        // Rank 0 writes the .pvtu index over all pieces; it declares the
        // arrays the pieces hold, not every array the adaptor offers.
        let all_pieces: Vec<Vec<String>> =
            comm.allgather(piece_names, 64 * mb.local_blocks().count().max(1) as u64);
        if comm.rank() == 0 {
            let mut md = data.mesh_metadata(comm, &self.mesh)?;
            md.arrays
                .retain(|a| a.centering == Centering::Point && self.arrays.contains(&a.name));
            let pieces: Vec<String> = all_pieces.into_iter().flatten().collect();
            let mut buf = Vec::new();
            let nbytes = write_pvtu(&md, &pieces, &mut buf)?;
            comm.fs_write(nbytes, 1);
            self.files_written += 1;
            self.bytes_written += nbytes;
            if let Some(dir) = &self.output_dir {
                persist(dir, &format!("{PREFIX}_{step:06}.pvtu"), &buf)?;
            }
        } else {
            // Metadata aggregation is collective; keep ranks symmetric.
            let _ = data.mesh_metadata(comm, &self.mesh)?;
        }
        Ok(true)
    }
}

fn persist(dir: &std::path::Path, name: &str, buf: &[u8]) -> Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| Error::Analysis(format!("mkdir {dir:?}: {e}")))?;
    std::fs::write(dir.join(name), buf)
        .map_err(|e| Error::Analysis(format!("write {name}: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x + rank as f64, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64("pressure", vec![0.5; 8]))
            .unwrap();
        g.add_point_data(DataArray::vectors_f64("velocity", vec![0.1; 24]))
            .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn writes_pieces_and_index() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut chk = VtuCheckpointAnalysis::new(
                "mesh",
                vec!["pressure".into(), "velocity".into()],
                None,
            );
            let mut da = StaticDataAdaptor::new("mesh", block(comm.rank(), comm.size()), 0.0, 42);
            chk.execute(comm, &mut da).unwrap();
            (
                chk.files_written(),
                chk.bytes_written(),
                comm.stats().bytes_written_fs,
            )
        });
        // Rank 0: one piece + the pvtu; rank 1: one piece.
        assert_eq!(res[0].0, 2);
        assert_eq!(res[1].0, 1);
        assert!(res[0].1 > res[1].1, "rank 0 wrote the extra index");
        assert_eq!(res[0].1, res[0].2);
    }

    #[test]
    fn real_files_appear_and_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vtu_chk_test_{}", std::process::id()));
        let dir2 = dir.clone();
        run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut chk =
                VtuCheckpointAnalysis::new("mesh", vec!["pressure".into()], Some(dir2.clone()));
            let mut da = StaticDataAdaptor::new("mesh", block(0, 1), 0.0, 7);
            chk.execute(comm, &mut da).unwrap();
        });
        let piece = dir.join("chk_000007_b0.vtu");
        let bytes = std::fs::read(&piece).expect("piece exists");
        let grid = meshdata::reader::read_vtu(&bytes).unwrap();
        assert_eq!(grid.n_points(), 8);
        assert!(grid.find_array("pressure", Centering::Point).is_some());
        // The block also has `velocity`; the index declares only what the
        // piece holds.
        let index = std::fs::read_to_string(dir.join("chk_000007.pvtu")).unwrap();
        let data = &index[index.find("<PPointData>").unwrap()..index.find("<PPoints>").unwrap()];
        let declared: Vec<&str> = data
            .split("<PDataArray")
            .skip(1)
            .map(|a| a.split('"').nth(3).unwrap())
            .collect();
        assert_eq!(declared, ["pressure"], "{index}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_spec_parses_array_list() {
        let spec = AnalysisSpec {
            kind: "vtu-checkpoint".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![("arrays".into(), "pressure, velocity".into())],
        };
        let chk = VtuCheckpointAnalysis::from_spec(&spec).unwrap();
        assert_eq!(chk.arrays, vec!["pressure", "velocity"]);
        let bad = AnalysisSpec {
            kind: "vtu-checkpoint".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![],
        };
        assert!(VtuCheckpointAnalysis::from_spec(&bad).is_err());
    }
}
