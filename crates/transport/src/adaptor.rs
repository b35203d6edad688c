//! The simulation-side in-transit analysis: marshal and stage.
//!
//! This is what "NekRS-SENSEI complemented by ADIOS2 for data transport"
//! means on the simulation nodes: the SENSEI analysis slot is occupied by
//! an adaptor that serializes the requested arrays and hands them to the
//! staging engine. The actual visualization happens later on the endpoint
//! — the whole point of the in-transit architecture.
//!
//! # Degradation ladder
//!
//! Staging failures never abort the simulation. A transient failure
//! ([`crate::TransportError::StepLost`] /
//! [`crate::TransportError::Backpressure`]) loses that step and keeps
//! streaming. A fatal failure (disconnect or an open
//! circuit breaker) means the endpoint is gone: if a fallback directory is
//! configured the adaptor switches to the BP *file* engine — the classic
//! post-hoc workflow — parking the failed payload and every subsequent
//! trigger on disk, and records the switch step for the metrics layer.

use crate::bp;
use crate::engine::SstWriter;
use crate::error::WriteError;
use crate::file_engine::BpFileWriter;
use commsim::Comm;
use insitu::{AnalysisAdaptor, DataAdaptor};
use meshdata::Centering;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// What BP marshaling charges the host per payload byte.
const MARSHAL_FLOPS_PER_BYTE: f64 = 1.0;

/// One producer's staging outcome, for the metrics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProducerReport {
    /// Producer (simulation rank) id.
    pub producer: usize,
    /// Steps put on the staging wire intact.
    pub staged_steps: u64,
    /// Steps lost outright (transient failures, or fatal with no fallback).
    pub lost_steps: u64,
    /// Steps parked to the BP file engine after degradation.
    pub parked_steps: u64,
    /// The trigger step at which this producer switched to the file
    /// engine, if it did.
    pub switch_step: Option<u64>,
    /// Data-plane loss events endured (timeouts and NACKed frames).
    pub retries: u64,
}

/// Shared collection point for [`ProducerReport`]s, filled at finalize.
pub type ReportSink = Arc<Mutex<Vec<ProducerReport>>>;

/// Sends the configured arrays over the staging link each trigger.
pub struct TransportAnalysis {
    mesh: String,
    arrays: Vec<String>,
    writer: SstWriter,
    fallback_dir: Option<PathBuf>,
    fallback: Option<BpFileWriter>,
    lost_steps: u64,
    parked_steps: u64,
    switch_step: Option<u64>,
    sink: Option<ReportSink>,
}

impl TransportAnalysis {
    /// Stage `arrays` from `mesh` through `writer`.
    pub fn new(mesh: impl Into<String>, arrays: Vec<String>, writer: SstWriter) -> Self {
        Self {
            mesh: mesh.into(),
            arrays,
            writer,
            fallback_dir: None,
            fallback: None,
            lost_steps: 0,
            parked_steps: 0,
            switch_step: None,
            sink: None,
        }
    }

    /// This producer's staging outcome so far.
    pub fn report(&self) -> ProducerReport {
        ProducerReport {
            producer: self.writer.producer,
            staged_steps: self.writer.steps_written(),
            lost_steps: self.lost_steps,
            parked_steps: self.parked_steps,
            switch_step: self.switch_step,
            retries: self.writer.retries(),
        }
    }

    /// A factory handling `<analysis type="adios-sst" arrays="a,b"/>` that
    /// consumes `writer` on first use (staging connections are established
    /// out-of-band, as SST does with its contact-info files), with the
    /// degradation ladder wired up: a fallback directory for the BP file
    /// engine and a sink that receives the producer's report at finalize.
    pub fn factory_with_fallback(
        writer: SstWriter,
        fallback_dir: Option<PathBuf>,
        sink: Option<ReportSink>,
    ) -> insitu::configurable::AdaptorFactory {
        let slot = Mutex::new(Some((writer, fallback_dir, sink)));
        Box::new(move |spec: &insitu::configurable::AnalysisSpec| {
            if spec.kind != "adios-sst" {
                return Ok(None);
            }
            let (writer, fallback_dir, sink) =
                slot.lock().unwrap().take().ok_or_else(|| {
                    insitu::Error::Config("adios-sst writer already consumed".into())
                })?;
            let arrays: Vec<String> = spec
                .attr_or("arrays", "pressure,velocity")
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let mut analysis =
                TransportAnalysis::new(spec.attr_or("mesh", "mesh").to_string(), arrays, writer);
            analysis.fallback_dir = fallback_dir;
            analysis.sink = sink;
            Ok(Some(Box::new(analysis) as Box<dyn AnalysisAdaptor>))
        })
    }

    /// Handle one failed write: lose the step, or (on a fatal error with a
    /// fallback configured) switch to the file engine and park the payload.
    fn degrade(&mut self, comm: &mut Comm, step: u64, failure: WriteError) -> insitu::Result<()> {
        let WriteError { error, payload } = failure;
        if !error.is_fatal() {
            self.lost_steps += 1;
            return Ok(());
        }
        let Some(dir) = &self.fallback_dir else {
            // Endpoint dead, nowhere to park: the step is lost, and so is
            // every later one (the breaker fails them fast).
            self.lost_steps += 1;
            return Ok(());
        };
        let _sp = comm.span("transport/park");
        let mut fw = BpFileWriter::create(dir, self.writer.producer).map_err(|e| {
            insitu::Error::Analysis(format!(
                "producer {}: fallback file engine: {e}",
                self.writer.producer
            ))
        })?;
        fw.append(comm, &payload)
            .map_err(|e| insitu::Error::Analysis(format!("fallback append: {e}")))?;
        self.parked_steps += 1;
        self.switch_step = Some(step);
        self.fallback = Some(fw);
        comm.telemetry_event(
            telemetry::EventKind::EngineSwitch,
            Some(step),
            format!(
                "producer {} parked to bp file engine: {error}",
                self.writer.producer
            ),
        );
        Ok(())
    }
}

impl AnalysisAdaptor for TransportAnalysis {
    fn name(&self) -> &str {
        "adios-sst"
    }

    fn required_arrays(&self) -> Vec<String> {
        self.arrays.clone()
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> insitu::Result<bool> {
        let copy = comm.span("insitu/copy");
        let mut mb = data.mesh(comm, &self.mesh)?;
        for a in &self.arrays {
            data.add_array(comm, &mut mb, &self.mesh, Centering::Point, a)?;
        }
        drop(copy);
        let marshal = comm.span("transport/marshal");
        let payload = bp::marshal_blocks(comm.rank() as u32, data.time_step(), data.time(), &mb);
        // BP marshaling is a host-side memory sweep.
        comm.compute_host(
            payload.len() as f64 * MARSHAL_FLOPS_PER_BYTE,
            payload.len() as f64 * 2.0,
        );
        drop(marshal);
        let step = data.time_step();
        if let Some(fw) = &mut self.fallback {
            let _sp = comm.span("transport/park");
            fw.append(comm, &payload)
                .map_err(|e| insitu::Error::Analysis(format!("fallback append: {e}")))?;
            self.parked_steps += 1;
            return Ok(true);
        }
        let send = comm.span("transport/send");
        match self.writer.write(comm, step, data.time(), payload) {
            Ok(_) => Ok(true),
            Err(failure) => {
                drop(send);
                self.degrade(comm, step, failure)?;
                Ok(true)
            }
        }
    }

    fn finalize(&mut self, _comm: &mut Comm) -> insitu::Result<()> {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().push(self.report());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StagingNetwork;
    use crate::link::StagingLink;
    use commsim::MachineModel;
    use insitu::data_adaptor::StaticDataAdaptor;
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64("pressure", vec![1.0; 8]))
            .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn adaptor_stages_payloads_per_trigger() {
        use commsim::run_ranks_with_state;
        use insitu::AnalysisAdaptor as _;
        let (mut writers, readers) = StagingNetwork::build(1, 1, 8, StagingLink::test_tiny());
        let analysis = TransportAnalysis::new("mesh", vec!["pressure".into()], writers.remove(0));
        let staged = run_ranks_with_state(
            MachineModel::test_tiny(),
            vec![analysis],
            |comm, mut analysis| {
                let mut da = StaticDataAdaptor::new("mesh", block(0, 1), 0.5, 9);
                analysis.execute(comm, &mut da).unwrap();
                analysis.execute(comm, &mut da).unwrap();
                analysis.report().staged_steps
            },
        );
        assert_eq!(staged, vec![2]);
        // The endpoint can unmarshal what was staged.
        run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
            let d = reader.recv_step(comm).unwrap().unwrap();
            assert_eq!(d.step, 9);
            assert_eq!(d.time, 0.5);
            let data = crate::bp::unmarshal_blocks(&d.packets[0].payload).unwrap();
            assert_eq!(data.blocks.len(), 1);
            assert!(data.blocks[0]
                .1
                .find_array("pressure", Centering::Point)
                .is_some());
        });
    }

    #[test]
    fn dead_endpoint_degrades_to_file_engine_without_losing_triggers() {
        use commsim::run_ranks_with_state;
        use insitu::AnalysisAdaptor as _;
        let dir = std::env::temp_dir().join(format!(
            "adaptor_fallback_{}_{}",
            std::process::id(),
            line!()
        ));
        let (mut writers, readers) = StagingNetwork::build(1, 1, 8, StagingLink::test_tiny());
        drop(readers); // the endpoint dies before the run starts
        let mut analysis =
            TransportAnalysis::new("mesh", vec!["pressure".into()], writers.remove(0));
        analysis.fallback_dir = Some(dir.clone());
        let reports = run_ranks_with_state(
            MachineModel::test_tiny(),
            vec![analysis],
            |comm, mut analysis| {
                for step in 1..=5u64 {
                    let mut da =
                        StaticDataAdaptor::new("mesh", block(0, 1), step as f64 * 0.1, step);
                    assert!(analysis.execute(comm, &mut da).unwrap());
                }
                analysis.report()
            },
        );
        let r = reports[0];
        assert_eq!(r.switch_step, Some(1), "first write hits the dead endpoint");
        assert_eq!(r.parked_steps, 5, "every trigger parked, none lost");
        assert_eq!(r.lost_steps, 0);
        // The parked steps read back through the file engine.
        let mut reader =
            crate::file_engine::BpFileReader::open(&dir.join("producer_00000.bp4l")).unwrap();
        let mut steps = Vec::new();
        while let Some(s) = reader.next_step().unwrap() {
            steps.push(s.step);
        }
        assert_eq!(steps, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
