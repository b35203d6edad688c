//! The SENSEI endpoint: the workflow's data consumer.
//!
//! "The endpoint of our workflow is always a SENSEI data consumer" (§4.2).
//! Each endpoint rank drains steps from its producers, rebuilds a
//! multiblock dataset, wraps it in a [`StaticDataAdaptor`], and drives a
//! `ConfigurableAnalysis` — so the *same* analysis configurations (Catalyst
//! rendering, VTU checkpoint writing, nothing) run in transit that would
//! otherwise run in situ.
//!
//! Fault behavior: a [partial step](crate::StepDelivery) — one or more
//! producers skipped or died — is still rendered from the blocks that
//! arrived; only a step with no data at all is counted and skipped. The
//! delivered-step log ([`EndpointReport::delivered_steps`]) is
//! deterministic for a given fault plan and seed, which the recovery tests
//! rely on.

use crate::engine::SstReader;
use commsim::Comm;
use insitu::configurable::AdaptorFactory;
use insitu::data_adaptor::StaticDataAdaptor;
use insitu::ConfigurableAnalysis;

/// Outcome of an endpoint rank's run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointReport {
    /// Steps processed (complete + partial).
    pub steps_processed: u64,
    /// Steps with every producer present.
    pub complete_steps: u64,
    /// Steps rendered with at least one producer missing.
    pub partial_steps: u64,
    /// Frames rejected by the CRC check.
    pub corrupt_rejected: u64,
    /// Wire frames lost to mid-frame connection deaths (tcp wire).
    pub short_reads: u64,
    /// True when this endpoint's scheduled crash fault fired.
    pub crashed: bool,
    /// Payload bytes received (including rejected frames).
    pub bytes_received: u64,
    /// Virtual time when the endpoint finished.
    pub finish_time: f64,
    /// Every delivered step index, in order — the determinism witness.
    pub delivered_steps: Vec<u64>,
}

/// One endpoint rank's consumer loop.
pub struct EndpointConsumer {
    reader: SstReader,
    analyses: ConfigurableAnalysis,
    n_sim_ranks: usize,
}

impl EndpointConsumer {
    /// Configure the endpoint from SENSEI XML (same format as in situ).
    ///
    /// # Errors
    /// Configuration parse/instantiation failures.
    pub fn new(
        reader: SstReader,
        config_xml: &str,
        factories: &[AdaptorFactory],
        n_sim_ranks: usize,
    ) -> insitu::Result<Self> {
        let analyses = ConfigurableAnalysis::from_xml(config_xml, factories)?;
        Ok(Self {
            reader,
            analyses,
            n_sim_ranks,
        })
    }

    /// Attach a memory accountant for the staging queue.
    pub fn set_accountant(&mut self, a: memtrack::Accountant) {
        self.reader.set_accountant(a);
    }

    /// Drain the stream to completion, running the configured analyses on
    /// every step that carried data. Collective over the endpoint world's
    /// `comm`.
    ///
    /// # Errors
    /// First analysis failure.
    pub fn run(&mut self, comm: &mut Comm) -> insitu::Result<EndpointReport> {
        let mut delivered_steps = Vec::new();
        loop {
            let recv = comm.span("transport/recv");
            let delivery = match self.reader.recv_step(comm) {
                Ok(Some(delivery)) => delivery,
                Ok(None) => break,
                // A transient wire fault (e.g. a mid-frame short read): the
                // truncated frame is gone but surviving connections keep
                // feeding the reader, so keep draining.
                Err(e) if !e.is_fatal() => {
                    drop(recv);
                    continue;
                }
                Err(e) => return Err(insitu::Error::Analysis(format!("transport: {e}"))),
            };
            drop(recv);
            delivered_steps.push(delivery.step);
            if delivery.packets.is_empty() {
                // Every producer skipped or died: nothing to render.
                continue;
            }
            // Rebuild this endpoint rank's slice of the global multiblock
            // from the producers that did arrive.
            let mb = delivery.unmarshal(comm, self.n_sim_ranks)?;
            let _exec = comm.span("insitu/execute");
            let mut da = StaticDataAdaptor::new("mesh", mb, delivery.time, delivery.step);
            self.analyses.execute(comm, delivery.step.max(1), &mut da)?;
        }
        self.analyses.finalize(comm)?;
        Ok(EndpointReport {
            steps_processed: delivered_steps.len() as u64,
            complete_steps: self.reader.complete_steps(),
            partial_steps: self.reader.partial_steps(),
            corrupt_rejected: self.reader.corrupt_rejected(),
            short_reads: self.reader.short_reads(),
            crashed: self.reader.crashed(),
            bytes_received: self.reader.bytes_received(),
            finish_time: comm.now(),
            delivered_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::TransportAnalysis;
    use crate::engine::{QueuePolicy, StagingNetwork};
    use crate::link::StagingLink;
    use commsim::{run_ranks_with_state, MachineModel};
    use insitu::AnalysisAdaptor as _;
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let z0 = rank as f64;
        let mut g = UnstructuredGrid::new();
        for z in [z0, z0 + 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "pressure",
            (0..8).map(|i| i as f64 + 100.0 * rank as f64).collect(),
        ))
        .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    /// Full in-transit round trip: 4 sim ranks stage 3 steps to 1 endpoint
    /// rank running a stats analysis; verify the endpoint saw the global
    /// data each step.
    #[test]
    fn four_to_one_end_to_end() {
        let (writers, readers) =
            StagingNetwork::build(4, 1, 16, StagingLink::test_tiny(), QueuePolicy::Block);

        // Simulation world: 4 ranks, each staging 3 steps.
        let sim = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, writer| {
                let mut analysis = TransportAnalysis::new("mesh", vec!["pressure".into()], writer);
                for step in 1..=3u64 {
                    let mut da = insitu::data_adaptor::StaticDataAdaptor::new(
                        "mesh",
                        block(comm.rank(), comm.size()),
                        step as f64 * 0.1,
                        step,
                    );
                    analysis.execute(comm, &mut da).unwrap();
                }
                analysis.stats()
            })
        });

        // Endpoint world: 1 rank consuming.
        let endpoint = run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, reader| {
            let xml = r#"<sensei>
                <analysis type="stats" mesh="mesh" array="pressure"/>
            </sensei>"#;
            let mut consumer = EndpointConsumer::new(reader, xml, &[], 4).unwrap();
            consumer.run(comm).unwrap()
        });

        let sim_stats = sim.join().unwrap();
        for (written, dropped, _) in sim_stats {
            assert_eq!(written, 3);
            assert_eq!(dropped, 0);
        }
        let report = &endpoint[0];
        assert_eq!(report.steps_processed, 3);
        assert_eq!(report.complete_steps, 3);
        assert_eq!(report.partial_steps, 0);
        assert_eq!(report.delivered_steps, vec![1, 2, 3]);
        assert!(!report.crashed);
        assert!(report.bytes_received > 0);
        assert!(report.finish_time > 0.0);
    }

    #[test]
    fn unframed_payload_is_crc_rejected_not_fatal() {
        // A raw (non-CRC-framed) payload never reaches the analysis: the
        // engine rejects it at ingest and the consumer finishes cleanly.
        let (writers, readers) =
            StagingNetwork::build(1, 1, 4, StagingLink::test_tiny(), QueuePolicy::Block);
        run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            w.write(comm, 1, 0.0, vec![0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        });
        let res = run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, reader| {
            let mut consumer = EndpointConsumer::new(reader, "<sensei></sensei>", &[], 1).unwrap();
            consumer.run(comm).unwrap()
        });
        let report = &res[0];
        assert_eq!(report.corrupt_rejected, 1);
        assert_eq!(report.steps_processed, 0);
        assert!(report.bytes_received > 0, "rejected bytes still counted");
    }
}
