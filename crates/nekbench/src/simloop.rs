//! The in situ step loop, rebuilt from the product's public calls.
//!
//! `run_insitu` is opaque from outside: one call in, one report out. This
//! module makes the same calls `core::workflow::insitu::run_synchronous`
//! makes — `CaseSetup::build`, `FlowSolver::step`, `publish_snapshot`,
//! `SnapshotAdaptor::new`, `Bridge::update` — with a benchmark-owned span
//! around each, so every layer boundary is visible. The data adaptor and
//! the analysis are wrapped in span-recording decorators so the calls the
//! bridge makes onward (`render` pulling the mesh from `core`) show up as
//! children. Rank 0 records; the other ranks run the same calls unrecorded.
//!
//! The loop must stay the product's loop: its virtual time-to-solution is
//! checked bitwise against `run_insitu`'s on every traced run.

use crate::spans::Recorder;
use crate::surface::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What the loop runs: the fields of `InSituConfig` the synchronous
/// driver reads.
#[derive(Clone)]
pub struct LoopSpec {
    pub case: CaseSetup,
    pub ranks: usize,
    pub steps: usize,
    pub machine: MachineModel,
    pub sched: SchedMode,
    /// `Some` runs the Catalyst consumer; `None` is the bare solver.
    pub catalyst: Option<CatalystSpec>,
}

/// The Catalyst consumer's configuration.
#[derive(Clone)]
pub struct CatalystSpec {
    pub trigger: u64,
    pub image: (usize, usize),
    pub output_dir: PathBuf,
}

impl LoopSpec {
    /// The loop equivalent of a synchronous `InSituConfig`.
    ///
    /// # Panics
    /// If `cfg` is not a synchronous Original/Catalyst cell.
    pub fn from_config(cfg: &InSituConfig) -> Self {
        assert_eq!(
            cfg.exec,
            ExecMode::Synchronous,
            "only the synchronous loop is rebuilt"
        );
        let catalyst = match cfg.mode {
            InSituMode::Original => None,
            InSituMode::Catalyst => Some(CatalystSpec {
                trigger: cfg.trigger_every.max(1),
                image: cfg.image_size,
                output_dir: cfg
                    .output_dir
                    .clone()
                    .expect("benchmark cells write their PNGs"),
            }),
            InSituMode::Checkpointing => panic!("no benchmark workload checkpoints in situ"),
        };
        Self {
            case: cfg.case.clone(),
            ranks: cfg.ranks,
            steps: cfg.steps,
            machine: cfg.machine.clone(),
            sched: cfg.sched,
            catalyst,
        }
    }
}

/// What one run of the loop produced.
pub struct LoopOutcome {
    /// Wall time of the whole world, spawn to join.
    pub wall_s: f64,
    /// Max over ranks of the final virtual time.
    pub virt_tts_s: f64,
    /// Operation counters summed over ranks.
    pub totals: CommStats,
    /// Rank 0's per-step solver diagnostics.
    pub reports: Vec<StepReport>,
}

/// Run the loop once. Spans go to `rec` (pass `Recorder::off()` for an
/// untraced run of the same code).
pub fn run(spec: &LoopSpec, rec: &Arc<Recorder>) -> LoopOutcome {
    let started = Instant::now();
    let spec_in = spec.clone();
    let rec = Arc::clone(rec);
    let results = with_mode(spec.sched, || {
        run_ranks_with_registry(
            spec.ranks,
            spec.machine.clone(),
            Default::default(),
            move |comm| rank_body(comm, &spec_in, &rec),
        )
    });
    let wall_s = started.elapsed().as_secs_f64();
    let virt_tts_s = results.iter().map(|r| r.time).fold(0.0, f64::max);
    let totals = CommStats::aggregate(results.iter().map(|r| &r.stats));
    let reports = results
        .into_iter()
        .next()
        .map(|r| r.value)
        .unwrap_or_default();
    LoopOutcome {
        wall_s,
        virt_tts_s,
        totals,
        reports,
    }
}

/// Catalyst's generated runtime configuration (the product keeps its copy
/// private; the attributes are its public XML contract).
fn catalyst_xml(c: &CatalystSpec) -> String {
    format!(
        r#"<sensei>
  <analysis type="catalyst" frequency="{}" width="{}" height="{}"
            slice_array="pressure" contour_array="velocity" output="{}"/>
</sensei>"#,
        c.trigger,
        c.image.0,
        c.image.1,
        c.output_dir.display()
    )
}

fn rank_body(comm: &mut Comm, spec: &LoopSpec, shared: &Arc<Recorder>) -> Vec<StepReport> {
    // Only rank 0 records: it is the compositing root, so it sees every
    // stage, and one recording rank keeps the span count per step small.
    let rec = if comm.rank() == 0 {
        Arc::clone(shared)
    } else {
        Arc::new(Recorder::off())
    };
    let _root = rec.span("bench.loop", 0);
    let mut solver = {
        let _s = rec.span("sem.build", 0);
        spec.case.build(comm)
    };
    // The product charges its host-side baseline here; memory accounting
    // is not timed, but the charge keeps the two loops call-for-call equal.
    let host_base = comm.accountant("host-base");
    let _base = host_base.charge(solver.n_nodes() as u64 * 8 * 60);

    let mut consumer = spec.catalyst.as_ref().map(|c| {
        let bridge = {
            let _s = rec.span("insitu.bridge_init", 0);
            let factory = spanned(CatalystAnalysis::factory(), &rec, "render.execute");
            Bridge::initialize(comm, &catalyst_xml(c), &[factory]).expect("generated config")
        };
        let geometry = {
            let _s = rec.span("core.geometry_build", 0);
            Arc::new(NekGeometry::build(comm, &solver))
        };
        let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
        (bridge, geometry, pool)
    });

    let mut reports = Vec::with_capacity(spec.steps);
    for s in 1..=spec.steps {
        let step = s as u64;
        {
            let _s = rec.span("sem.step", step);
            reports.push(solver.step(comm));
        }
        let Some((bridge, geometry, pool)) = &mut consumer else {
            continue;
        };
        if bridge.triggers_at(step) {
            let snap = {
                let _s = rec.span("devsim.publish_snapshot", step);
                let snap_spec = SnapshotSpec::from_names(bridge.arrays_at(step));
                solver.publish_snapshot(comm, &snap_spec, pool)
            };
            let mut da = {
                let _s = rec.span("core.adaptor_new", step);
                SpannedAdaptor {
                    inner: SnapshotAdaptor::new(comm, snap, Arc::clone(geometry)),
                    rec: &rec,
                }
            };
            let _s = rec.span("insitu.bridge_update", step);
            bridge.update(comm, step, &mut da).expect("in situ update");
        }
    }
    if let Some((bridge, ..)) = &mut consumer {
        let _s = rec.span("insitu.bridge_finalize", 0);
        bridge.finalize(comm).expect("finalize");
    }
    let _s = rec.span("commsim.barrier", 0);
    comm.barrier();
    reports
}

/// Wrap every analysis `factory` builds so its `execute` is a span.
pub fn spanned(factory: AdaptorFactory, rec: &Arc<Recorder>, name: &'static str) -> AdaptorFactory {
    let rec = Arc::clone(rec);
    Box::new(move |spec: &AnalysisSpec| {
        Ok(factory(spec)?.map(|inner| {
            Box::new(SpannedAnalysis {
                inner,
                rec: Arc::clone(&rec),
                name,
            }) as Box<dyn AnalysisAdaptor>
        }))
    })
}

struct SpannedAnalysis {
    inner: Box<dyn AnalysisAdaptor>,
    rec: Arc<Recorder>,
    name: &'static str,
}

impl AnalysisAdaptor for SpannedAnalysis {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> insitu::Result<bool> {
        let _s = self.rec.span(self.name, data.time_step());
        self.inner.execute(comm, data)
    }

    fn required_arrays(&self) -> Vec<String> {
        self.inner.required_arrays()
    }

    fn finalize(&mut self, comm: &mut Comm) -> insitu::Result<()> {
        self.inner.finalize(comm)
    }
}

/// The product's snapshot adaptor with its two data-moving calls spanned:
/// the VTK-model conversion the consumer pulls through it is `core`'s
/// work, not the consumer's.
struct SpannedAdaptor<'a> {
    inner: SnapshotAdaptor,
    rec: &'a Recorder,
}

impl DataAdaptor for SpannedAdaptor<'_> {
    fn num_meshes(&self) -> usize {
        self.inner.num_meshes()
    }

    fn mesh_name(&self, idx: usize) -> &str {
        self.inner.mesh_name(idx)
    }

    fn mesh_metadata(&mut self, comm: &mut Comm, mesh: &str) -> insitu::Result<MeshMetadata> {
        self.inner.mesh_metadata(comm, mesh)
    }

    fn mesh(&mut self, comm: &mut Comm, mesh: &str) -> insitu::Result<MultiBlock> {
        let _s = self.rec.span("core.adaptor_mesh", self.inner.time_step());
        self.inner.mesh(comm, mesh)
    }

    fn add_array(
        &mut self,
        comm: &mut Comm,
        mb: &mut MultiBlock,
        mesh: &str,
        centering: Centering,
        array: &str,
    ) -> insitu::Result<()> {
        let _s = self.rec.span("core.adaptor_array", self.inner.time_step());
        self.inner.add_array(comm, mb, mesh, centering, array)
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn time_step(&self) -> u64 {
        self.inner.time_step()
    }

    fn release_data(&mut self) {
        self.inner.release_data();
    }
}
