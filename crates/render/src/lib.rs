//! `render` — a software scientific-visualization pipeline, the
//! reproduction's **ParaView Catalyst (+OSPRay)**.
//!
//! The paper's Catalyst configurations "render two images using ParaView
//! over Python" per trigger. With no VTK/ParaView available, this crate
//! rebuilds the pipeline stages that workload exercises:
//!
//! * [`filters`] — geometry extraction from unstructured grids: plane
//!   slices and isocontours via marching tetrahedra (each hex split into
//!   six tets), plus external-surface extraction.
//! * [`colormap`] — viridis / cool-warm lookup tables over a scalar range.
//! * [`camera`] — look-at + perspective projection.
//! * [`raster`] — a z-buffered triangle rasterizer with Lambertian shading
//!   (the OSPRay stand-in; same output contract: a shaded, depth-correct
//!   image of the extracted geometry), onto a whole image or onto a tile
//!   the size of what is drawn.
//! * [`composite`] — sort-last parallel rendering: every rank rasterizes
//!   its local blocks into a tile, then the color+depth tiles are
//!   depth-composited into rank 0's image (serial gather of active
//!   pixels).
//! * [`image`] — the PNG encoder (stored-deflate, CRC-correct).
//! * [`pipeline`] — a declarative render pipeline (the `analysis.py`
//!   analogue) and [`pipeline::CatalystAnalysis`], the
//!   [`insitu::AnalysisAdaptor`] that the paper's Catalyst configuration
//!   enables.
//!
//! Rendering work charges host compute time on the virtual clock (Catalyst
//! rendering is CPU-side in the paper's setup), and image files charge
//! filesystem writes — giving the figure harnesses the same measurable
//! quantities the paper reports.

pub mod camera;
pub mod colormap;
pub mod composite;
pub mod filters;
pub mod image;
pub mod math;
pub mod pipeline;
pub mod raster;

pub use camera::Camera;
pub use colormap::Colormap;
pub use composite::composite_to_root;
pub use filters::TriangleSoup;
pub use pipeline::{
    fnv1a64, CatalystAnalysis, FrameCache, FrameKey, RenderPass, RenderPipeline, RenderScratch,
};
pub use raster::Framebuffer;
