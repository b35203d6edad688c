//! The declarative render pipeline and the Catalyst-style analysis adaptor.
//!
//! A [`RenderPipeline`] plays the role of the paper's `analysis.py`
//! ParaView script: a fixed list of passes (filter → colormap → camera),
//! each producing one image per trigger. [`CatalystAnalysis`] wires a
//! pipeline into the SENSEI-style [`insitu::AnalysisAdaptor`] contract; the
//! paper's Catalyst endpoint "renders two images using ParaView" — the
//! default pipeline here does exactly that (a slice and a contour).

use crate::camera::Camera;
use crate::colormap::Colormap;
use crate::composite::composite;
use crate::filters::{self, TriangleSoup};
use crate::image::encode_png_into;
use crate::raster::{image_bytes, Framebuffer, Tile};
use commsim::{Comm, ReduceOp};
use insitu::configurable::{AdaptorFactory, AnalysisSpec};
use insitu::{AnalysisAdaptor, DataAdaptor};
use meshdata::{Centering, MultiBlock};
use std::io::Write;
use std::sync::Arc;

/// Geometry extraction for one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterKind {
    /// Plane cut.
    Slice {
        /// Point on the plane.
        origin: [f64; 3],
        /// Plane normal.
        normal: [f64; 3],
    },
    /// Isosurface at `lo + fraction·(hi−lo)` of the array's global range.
    ContourAtFraction(f64),
    /// External surface of the blocks.
    Surface,
    /// External surface of cells whose `array` mean lies in the given
    /// fractional range of the global scalar range (VTK Threshold).
    ThresholdBand {
        /// Lower bound as a fraction of the global range.
        lo: f64,
        /// Upper bound as a fraction of the global range.
        hi: f64,
    },
}

/// One image per trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderPass {
    /// Pass name (becomes part of the file name).
    pub name: String,
    /// Geometry extraction.
    pub filter: FilterKind,
    /// Point array to color by (and to contour on).
    pub array: String,
    /// Colors.
    pub colormap: Colormap,
    /// Fixed scalar range; `None` → global range per trigger.
    pub range: Option<(f64, f64)>,
    /// View direction for the framing camera.
    pub camera_dir: [f64; 3],
}

/// The full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderPipeline {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// The passes (images) per trigger.
    pub passes: Vec<RenderPass>,
    /// Burn a colormap legend into each image (ParaView scalar bar).
    pub legend: bool,
}

/// One rendered image (pixels only on rank 0).
#[derive(Debug, Clone)]
pub struct RenderedImage {
    /// `<pass>_<step>` identifier.
    pub name: String,
    /// Encoded PNG (rank 0 only).
    pub png: Option<Vec<u8>>,
}

/// Reusable buffers for [`RenderPipeline::execute_with`]: the triangle
/// soup, the tile each rank rasterises into and — on rank 0 only, the
/// other ranks' stay empty — the full-size image the tiles are
/// composited into and the PNG buffers of frames nobody reads any more
/// survive across passes and triggers. (Non-root ranks hand their tile's
/// pixels to the compositor each pass — that transfer is the simulated
/// MPI payload.)
#[derive(Debug, Default)]
pub struct RenderScratch {
    image: Framebuffer,
    tile: Tile,
    soup: TriangleSoup,
    /// Encoded frames handed back by [`Self::recycle`]; each pass takes
    /// one to encode into, so there are never more than a frame set's.
    pngs: Vec<Vec<u8>>,
}

impl RenderScratch {
    /// Keep the PNG buffers of `images`, which nobody reads any more, for
    /// the next passes to encode into.
    fn recycle(&mut self, images: &mut [RenderedImage]) {
        self.pngs
            .extend(images.iter_mut().filter_map(|img| img.png.take()));
    }
}

/// Identity of one rendered frame set: the step plus a fingerprint over
/// every visual input of the pipeline (camera directions, colormap stops,
/// filters, arrays, image size, legend). Two requests with equal keys
/// would rasterize identical pixels, so the second can be served from a
/// [`FrameCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    /// Simulation step the frame shows.
    pub step: u64,
    /// FNV-64 fingerprint of the pipeline's visual configuration.
    pub fingerprint: u64,
}

/// Bounded LRU cache of rendered frames keyed by [`FrameKey`]. The
/// staging tier uses it to serve N consumers requesting the same
/// (step, camera, colormap) without re-rasterizing N times. Frame sets
/// are shared, not copied: a hit hands out another reference.
///
/// The hit/miss decision depends only on the key — never on field data —
/// so when a multi-rank pipeline consults the cache, every rank takes the
/// same branch and the collective schedule stays uniform.
#[derive(Debug)]
pub struct FrameCache {
    capacity: usize,
    /// Most recently used at the back.
    entries: Vec<(FrameKey, Arc<[RenderedImage]>)>,
    hits: u64,
    misses: u64,
}

impl FrameCache {
    /// A cache retaining at most `capacity` frame sets (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, refreshing its recency.
    pub fn get(&mut self, key: &FrameKey) -> Option<Arc<[RenderedImage]>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let images = Arc::clone(&entry.1);
        self.entries.push(entry);
        self.hits += 1;
        Some(images)
    }

    /// Insert a freshly rendered frame set, evicting the least recently
    /// used entry if full. Returns the set it dropped: the one under the
    /// same key, else the evicted one.
    pub fn insert(
        &mut self,
        key: FrameKey,
        images: Arc<[RenderedImage]>,
    ) -> Option<Arc<[RenderedImage]>> {
        self.misses += 1;
        let dropped = match self.entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => Some(self.entries.remove(pos)),
            None if self.entries.len() >= self.capacity => Some(self.entries.remove(0)),
            None => None,
        };
        self.entries.push((key, images));
        dropped.map(|(_, images)| images)
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a render ([`Self::insert`] calls).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Frame sets currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`: tiny, dependency-free and stable across
/// platforms. The golden-image and determinism suites pin rendered files
/// with it; [`RenderPipeline::fingerprint`] folds it field by field.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    fnv1a(&mut h, bytes);
    h
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv1a_f64(hash: &mut u64, v: f64) {
    fnv1a(hash, &v.to_bits().to_le_bytes());
}

impl RenderPipeline {
    /// The paper's two-image Catalyst setup: a pressure slice and a
    /// velocity-magnitude contour.
    pub fn two_image_default(slice_array: &str, contour_array: &str) -> Self {
        Self {
            width: 800,
            height: 600,
            passes: vec![
                RenderPass {
                    name: format!("{slice_array}_slice"),
                    filter: FilterKind::Slice {
                        origin: [0.5, 0.5, 0.5],
                        normal: [0.0, 1.0, 0.0],
                    },
                    array: slice_array.to_string(),
                    colormap: Colormap::cool_warm(),
                    range: None,
                    camera_dir: [0.0, -1.0, 0.25],
                },
                RenderPass {
                    name: format!("{contour_array}_contour"),
                    filter: FilterKind::ContourAtFraction(0.5),
                    array: contour_array.to_string(),
                    colormap: Colormap::viridis(),
                    range: None,
                    camera_dir: [1.0, 1.0, 0.4],
                },
            ],
            legend: true,
        }
    }

    /// FNV-64 fingerprint of everything that determines the pixels for a
    /// given mesh: image size, legend, and per pass the
    /// filter, array, colormap stops, fixed range, and camera direction.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        fnv1a(&mut h, &(self.width as u64).to_le_bytes());
        fnv1a(&mut h, &(self.height as u64).to_le_bytes());
        fnv1a(&mut h, &[u8::from(self.legend)]);
        for pass in &self.passes {
            fnv1a(&mut h, pass.name.as_bytes());
            fnv1a(&mut h, pass.array.as_bytes());
            for d in pass.camera_dir {
                fnv1a_f64(&mut h, d);
            }
            for &(pos, rgb) in pass.colormap.stops() {
                fnv1a_f64(&mut h, pos);
                for c in rgb {
                    fnv1a_f64(&mut h, c);
                }
            }
            match pass.range {
                Some((lo, hi)) => {
                    fnv1a(&mut h, &[1]);
                    fnv1a_f64(&mut h, lo);
                    fnv1a_f64(&mut h, hi);
                }
                None => fnv1a(&mut h, &[0]),
            }
            match &pass.filter {
                FilterKind::Slice { origin, normal } => {
                    fnv1a(&mut h, &[1]);
                    for v in origin.iter().chain(normal.iter()) {
                        fnv1a_f64(&mut h, *v);
                    }
                }
                FilterKind::ContourAtFraction(f) => {
                    fnv1a(&mut h, &[2]);
                    fnv1a_f64(&mut h, *f);
                }
                FilterKind::Surface => fnv1a(&mut h, &[3]),
                FilterKind::ThresholdBand { lo, hi } => {
                    fnv1a(&mut h, &[4]);
                    fnv1a_f64(&mut h, *lo);
                    fnv1a_f64(&mut h, *hi);
                }
            }
        }
        h
    }

    /// The [`FrameCache`] key for this pipeline at `step`.
    pub fn frame_key(&self, step: u64) -> FrameKey {
        FrameKey {
            step,
            fingerprint: self.fingerprint(),
        }
    }

    /// Arrays the pipeline needs from the simulation.
    pub fn required_arrays(&self) -> Vec<String> {
        let mut names: Vec<String> = self.passes.iter().map(|p| p.array.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Run every pass over the local blocks; images materialize on rank 0.
    pub fn execute(&self, comm: &mut Comm, mb: &MultiBlock, step: u64) -> Vec<RenderedImage> {
        self.execute_with(comm, mb, step, &mut RenderScratch::default())
    }

    /// [`execute`](Self::execute) with caller-owned scratch buffers, so
    /// repeated triggers reuse the framebuffer and triangle-soup
    /// allocations. Results are identical to `execute`.
    pub fn execute_with(
        &self,
        comm: &mut Comm,
        mb: &MultiBlock,
        step: u64,
        scratch: &mut RenderScratch,
    ) -> Vec<RenderedImage> {
        let t_render_start = comm.now();
        // Global bounds for camera framing.
        let local = mb.bounds().unwrap_or([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        let mut packed = [
            -local[0], local[1], -local[2], local[3], -local[4], local[5],
        ];
        comm.allreduce_vec(&mut packed, ReduceOp::Max);
        let bounds = [
            -packed[0], packed[1], -packed[2], packed[3], -packed[4], packed[5],
        ];

        let render_acct = comm.accountant("render");
        let mut images = Vec::with_capacity(self.passes.len());
        let mut tile_pixels = 0u64;
        for pass in &self.passes {
            let filter_span = comm.span("render/filter");
            // Global scalar range for this pass's array.
            let (lo, hi) = match pass.range {
                Some(r) => r,
                None => global_array_range(comm, mb, &pass.array),
            };

            // Filter: extract local geometry (host-side work) into the
            // reusable soup.
            let soup = &mut scratch.soup;
            soup.clear();
            let mut n_cells = 0usize;
            for (_, g) in mb.local_blocks() {
                n_cells += g.n_cells();
                match &pass.filter {
                    FilterKind::Slice { origin, normal } => {
                        filters::slice_plane_into(g, *origin, *normal, &pass.array, soup)
                    }
                    FilterKind::ContourAtFraction(f) => {
                        filters::contour_into(g, &pass.array, lo + f * (hi - lo), soup)
                    }
                    FilterKind::Surface => filters::surface_into(g, &pass.array, soup),
                    FilterKind::ThresholdBand { lo: f0, hi: f1 } => filters::threshold_into(
                        g,
                        &pass.array,
                        lo + f0 * (hi - lo),
                        lo + f1 * (hi - lo),
                        &pass.array,
                        soup,
                    ),
                }
            }
            // ~6 tets × ~40 flops per cell for extraction.
            comm.compute_host(n_cells as f64 * 240.0, n_cells as f64 * 64.0);
            let _soup_charge = render_acct.charge(soup.heap_bytes());
            drop(filter_span);
            let raster_span = comm.span("render/raster");

            // Rasterize locally into the reusable tile. Triangle setup
            // scales with the mesh (charged at the possibly-derated
            // rates); per-pixel fill does not, so it is charged at the
            // machine's true rates via the derate factor.
            //
            // The virtual machine holds and fills a whole image on every
            // rank, as ParaView does, whatever the tile covers here.
            // Framebuffer memory is pixel-proportional: account the
            // derate-adjusted size so it stays in proportion to the
            // mesh-proportional accountants on scaled runs.
            let fb_bytes = image_bytes(self.width, self.height) as f64;
            let fb_account = (fb_bytes / comm.machine().derate_factor).max(1.0) as u64;
            let _fb_charge = render_acct.charge(fb_account);
            let camera = Camera::framing(bounds, pass.camera_dir);
            let n_tris = soup.n_triangles();
            scratch.tile.draw(
                &camera,
                soup,
                &pass.colormap,
                (lo, hi),
                (self.width, self.height),
            );
            tile_pixels += scratch.tile.n_pixels() as u64;
            let s = 1.0 / comm.machine().derate_factor;
            comm.compute_host(n_tris as f64 * 300.0, soup.heap_bytes() as f64);
            comm.compute_host((self.width * self.height) as f64 * 4.0 * s, fb_bytes * s);
            drop(raster_span);
            let _composite_span = comm.span("render/composite");

            // Composite and encode on root, the only rank whose scratch
            // image is ever sized.
            let png = composite(comm, &mut scratch.tile, &mut scratch.image).then(|| {
                let fb = &mut scratch.image;
                if self.legend {
                    fb.draw_legend(&pass.colormap, (lo, hi));
                }
                let mut png = scratch.pngs.pop().unwrap_or_default();
                encode_png_into(fb, &mut png);
                // Encoding is pixel-proportional: true rates.
                let s = 1.0 / comm.machine().derate_factor;
                comm.compute_host(png.len() as f64 * s, png.len() as f64 * 2.0 * s);
                png
            });
            images.push(RenderedImage {
                name: format!("{}_{:06}", pass.name, step),
                png,
            });
        }
        let telemetry = comm.telemetry();
        if telemetry.enabled() {
            telemetry.counter("render/frames").add(images.len() as u64);
            // Active-pixel ratio of sort-last compositing: what the ranks
            // rasterised and shipped against the whole images ParaView
            // would have.
            telemetry.counter("render/tile_pixels").add(tile_pixels);
            telemetry
                .counter("render/image_pixels")
                .add((self.width * self.height * self.passes.len()) as u64);
            telemetry
                .histogram("render/execute_time")
                .observe(comm.now() - t_render_start);
        }
        images
    }

    /// Cache-aware [`execute_with`](Self::execute_with): serve the frame
    /// set from `cache` when an identical (step, camera, colormap, …)
    /// request was rendered before, otherwise render and populate the
    /// cache. Returns the images plus whether they came from cache. The
    /// PNG buffers of a set the cache drops go back into `scratch` when
    /// no caller still holds the set.
    ///
    /// On a hit every collective (bounds and range allreduces) is skipped;
    /// the hit decision is a pure function of the key, so all ranks of a
    /// multi-rank pipeline agree on the branch.
    pub fn execute_cached(
        &self,
        comm: &mut Comm,
        mb: &MultiBlock,
        step: u64,
        scratch: &mut RenderScratch,
        cache: &mut FrameCache,
    ) -> (Arc<[RenderedImage]>, bool) {
        let key = self.frame_key(step);
        if let Some(images) = cache.get(&key) {
            let telemetry = comm.telemetry();
            if telemetry.enabled() {
                telemetry.counter("render/cache_hits").inc();
            }
            return (images, true);
        }
        let images: Arc<[RenderedImage]> = self.execute_with(comm, mb, step, scratch).into();
        let telemetry = comm.telemetry();
        if telemetry.enabled() {
            telemetry.counter("render/cache_misses").inc();
        }
        if let Some(mut dropped) = cache.insert(key, Arc::clone(&images)) {
            if let Some(dropped) = Arc::get_mut(&mut dropped) {
                scratch.recycle(dropped);
            }
        }
        (images, false)
    }
}

fn global_array_range(comm: &mut Comm, mb: &MultiBlock, array: &str) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, g) in mb.local_blocks() {
        if let Some(a) = g.find_array(array, Centering::Point) {
            for v in filters::scalar_view(a) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    let glo = comm.allreduce(lo, ReduceOp::Min);
    let ghi = comm.allreduce(hi, ReduceOp::Max);
    if glo.is_finite() && ghi.is_finite() && ghi > glo {
        (glo, ghi)
    } else if glo.is_finite() {
        (glo, glo + 1.0)
    } else {
        (0.0, 1.0)
    }
}

/// The Catalyst-style analysis adaptor: runs a [`RenderPipeline`] per
/// trigger and (optionally) writes the PNGs.
pub struct CatalystAnalysis {
    mesh: String,
    pipeline: RenderPipeline,
    output_dir: Option<std::path::PathBuf>,
    /// `output_dir` exists: it is created by the first image written.
    output_dir_created: bool,
    images_rendered: u64,
    bytes_written: u64,
    last_images: Vec<RenderedImage>,
    scratch: RenderScratch,
}

impl CatalystAnalysis {
    /// Render `pipeline` against `mesh`; write files under `output_dir` if
    /// given (rank 0 only).
    pub fn new(
        mesh: impl Into<String>,
        pipeline: RenderPipeline,
        output_dir: Option<std::path::PathBuf>,
    ) -> Self {
        Self {
            mesh: mesh.into(),
            pipeline,
            output_dir,
            output_dir_created: false,
            images_rendered: 0,
            bytes_written: 0,
            last_images: Vec::new(),
            scratch: RenderScratch::default(),
        }
    }

    /// Build from `<analysis type="catalyst" slice_array=".."
    /// contour_array=".." width=".." height=".." output="dir"/>`.
    ///
    /// # Errors
    /// None currently — all attributes have defaults.
    pub fn from_spec(spec: &AnalysisSpec) -> insitu::Result<Self> {
        let slice_array = spec.attr_or("slice_array", "pressure").to_string();
        let contour_array = spec.attr_or("contour_array", "velocity").to_string();
        let mut pipeline = RenderPipeline::two_image_default(&slice_array, &contour_array);
        pipeline.width = spec.attr_parse_or("width", 800usize);
        pipeline.height = spec.attr_parse_or("height", 600usize);
        let output_dir = spec.attr("output").map(std::path::PathBuf::from);
        Ok(Self::new(
            spec.attr_or("mesh", "mesh").to_string(),
            pipeline,
            output_dir,
        ))
    }

    /// Factory handling `type="catalyst"` for [`insitu::ConfigurableAnalysis`].
    pub fn factory() -> AdaptorFactory {
        Box::new(|spec: &AnalysisSpec| {
            if spec.kind != "catalyst" {
                return Ok(None);
            }
            Ok(Some(
                Box::new(CatalystAnalysis::from_spec(spec)?) as Box<dyn AnalysisAdaptor>
            ))
        })
    }

    /// Images produced so far.
    pub fn images_rendered(&self) -> u64 {
        self.images_rendered
    }

    /// Bytes written to storage so far (the storage-economy metric).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The most recent trigger's images (pixels on rank 0 only).
    pub fn last_images(&self) -> &[RenderedImage] {
        &self.last_images
    }
}

impl AnalysisAdaptor for CatalystAnalysis {
    fn name(&self) -> &str {
        "catalyst"
    }

    fn required_arrays(&self) -> Vec<String> {
        self.pipeline.required_arrays()
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> insitu::Result<bool> {
        let copy = comm.span("insitu/copy");
        let mut mb = data.mesh(comm, &self.mesh)?;
        for array in self.pipeline.required_arrays() {
            data.add_array(comm, &mut mb, &self.mesh, Centering::Point, &array)?;
        }
        drop(copy);
        self.scratch.recycle(&mut self.last_images);
        let images = self
            .pipeline
            .execute_with(comm, &mb, data.time_step(), &mut self.scratch);
        let _write = comm.span("render/write");
        for img in &images {
            if let Some(png) = &img.png {
                self.images_rendered += 1;
                self.bytes_written += png.len() as u64;
                // Rank 0 writes one small PNG; image size does not scale
                // with the mesh, so charge the derate-adjusted size (true
                // write time; `bytes_written` above keeps the real count).
                let wire = (png.len() as f64 / comm.machine().derate_factor).max(1.0) as u64;
                comm.fs_write(wire, 1);
                if let Some(dir) = &self.output_dir {
                    if !self.output_dir_created {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| insitu::Error::Analysis(format!("mkdir {dir:?}: {e}")))?;
                        self.output_dir_created = true;
                    }
                    let path = dir.join(format!("{}.png", img.name));
                    let mut f = std::fs::File::create(&path)
                        .map_err(|e| insitu::Error::Analysis(format!("create {path:?}: {e}")))?;
                    f.write_all(png)
                        .map_err(|e| insitu::Error::Analysis(format!("write {path:?}: {e}")))?;
                }
            }
        }
        self.last_images = images;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_ranks, MachineModel};
    use insitu::data_adaptor::StaticDataAdaptor;
    use meshdata::{CellType, DataArray, UnstructuredGrid};

    /// One hex per rank, stacked along z, with pressure = z and a velocity
    /// vector field.
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
            g.points.iter().map(|p| p[2]).collect(),
        ))
        .unwrap();
        g.add_point_data(DataArray::vectors_f64(
            "velocity",
            g.points.iter().flat_map(|p| [p[2], 0.0, 1.0]).collect(),
        ))
        .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn pipeline_renders_two_images_on_root() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let pipeline = RenderPipeline::two_image_default("pressure", "velocity");
            let mb = block(comm.rank(), comm.size());
            let images = pipeline.execute(comm, &mb, 100);
            images
                .iter()
                .map(|i| (i.name.clone(), i.png.as_ref().map(|p| p.len())))
                .collect::<Vec<_>>()
        });
        // Rank 0 has both PNGs, rank 1 none.
        assert_eq!(res[0].len(), 2);
        assert!(res[0].iter().all(|(_, png)| png.is_some()));
        assert!(res[1].iter().all(|(_, png)| png.is_none()));
        assert!(res[0][0].0.contains("pressure_slice_000100"));
        assert!(res[0][1].0.contains("velocity_contour_000100"));
        // Non-trivial image sizes.
        assert!(res[0][0].1.unwrap() > 1000);
    }

    #[test]
    fn cache_hits_share_frame_sets_and_dropped_sets_feed_the_next_encode() {
        run_ranks(1, MachineModel::test_tiny(), |comm| {
            let pipeline = RenderPipeline {
                width: 64,
                height: 48,
                ..RenderPipeline::two_image_default("pressure", "velocity")
            };
            let mb = block(0, 1);
            let mut scratch = RenderScratch::default();
            let mut cache = FrameCache::new(1);
            let (first, hit) = pipeline.execute_cached(comm, &mb, 0, &mut scratch, &mut cache);
            let (again, rehit) = pipeline.execute_cached(comm, &mb, 0, &mut scratch, &mut cache);
            assert!(!hit && rehit && Arc::ptr_eq(&first, &again));
            let buffers: Vec<_> = first
                .iter()
                .map(|i| i.png.as_ref().unwrap().as_ptr())
                .collect();
            drop((first, again));
            // Step 1 evicts step 0's set, whose buffers step 2 encodes into.
            pipeline.execute_cached(comm, &mb, 1, &mut scratch, &mut cache);
            let (third, _) = pipeline.execute_cached(comm, &mb, 2, &mut scratch, &mut cache);
            let mut reused: Vec<_> = third
                .iter()
                .map(|i| i.png.as_ref().unwrap().as_ptr())
                .collect();
            reused.reverse();
            assert_eq!(reused, buffers);
            assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 1));
        });
    }

    #[test]
    fn rendered_geometry_shows_in_coverage() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut pipeline = RenderPipeline::two_image_default("pressure", "velocity");
            pipeline.passes.truncate(1);
            pipeline.passes[0].filter = FilterKind::Surface;
            pipeline.width = 100;
            pipeline.height = 100;
            let mb = block(0, 1);
            let images = pipeline.execute(comm, &mb, 0);
            images[0].png.as_ref().unwrap().len()
        });
        // A surface-covered 100×100 PNG of our stored encoder: roughly
        // 100*(301) bytes — in any case far beyond an empty image.
        assert!(res[0] > 5000, "suspiciously small PNG: {}", res[0]);
    }

    #[test]
    fn catalyst_adaptor_counts_and_charges_storage() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let pipeline = RenderPipeline {
                width: 64,
                height: 48,
                ..RenderPipeline::two_image_default("pressure", "velocity")
            };
            let mut analysis = CatalystAnalysis::new("mesh", pipeline, None);
            let mut da = StaticDataAdaptor::new("mesh", block(comm.rank(), comm.size()), 0.0, 7);
            analysis.execute(comm, &mut da).unwrap();
            analysis.execute(comm, &mut da).unwrap();
            (
                analysis.images_rendered(),
                analysis.bytes_written(),
                comm.stats().bytes_written_fs,
            )
        });
        // Rank 0 rendered 2 images × 2 triggers and wrote them.
        assert_eq!(res[0].0, 4);
        assert!(res[0].1 > 0);
        assert_eq!(res[0].1, res[0].2);
        // Rank 1 wrote nothing.
        assert_eq!(res[1].0, 0);
        assert_eq!(res[1].2, 0);
    }

    #[test]
    fn catalyst_factory_plugs_into_configurable() {
        run_ranks(1, MachineModel::test_tiny(), |comm| {
            let xml = r#"<sensei>
                <analysis type="catalyst" frequency="10" width="32" height="32"
                          slice_array="pressure" contour_array="velocity"/>
            </sensei>"#;
            let mut ca =
                insitu::ConfigurableAnalysis::from_xml(xml, &[CatalystAnalysis::factory()])
                    .unwrap();
            assert_eq!(ca.summaries(), vec![("catalyst".to_string(), 10)]);
            let mut da = StaticDataAdaptor::new("mesh", block(0, 1), 0.0, 0);
            for step in 1..=20 {
                ca.execute(comm, step, &mut da).unwrap();
            }
            assert_eq!(ca.execution_counts(), vec![2]);
        });
    }
}
