//! Sort-last parallel compositing.
//!
//! Every rank rasterizes its local blocks into a full-size framebuffer;
//! [`composite_to_root`] then merges the images by per-pixel depth test:
//! every rank sends its image to rank 0, which merges — O(P) messages into
//! one rank.

use crate::raster::Framebuffer;
use commsim::Comm;

const TAG_COMPOSITE: u64 = 0x636f_6d70;

/// Wire/work size of a framebuffer. Image data does not scale with the
/// mesh, so on throughput-derated machine models (see
/// [`commsim::MachineModel::derate_throughput`]) the declared size is
/// divided by the derate factor — charging image traffic at the machine's
/// *true* rates.
fn fb_nbytes(comm: &Comm, fb: &Framebuffer) -> u64 {
    let raw = (fb.color.len() * 3 + fb.depth.len() * 4) as f64;
    (raw / comm.machine().derate_factor).max(1.0) as u64
}

/// Gather-and-merge compositing. Returns the composited image on rank 0,
/// `None` elsewhere.
pub fn composite_to_root(comm: &mut Comm, fb: Framebuffer) -> Option<Framebuffer> {
    let rank = comm.rank();
    let size = comm.size();
    if size == 1 {
        return Some(fb);
    }
    if rank != 0 {
        let bytes = fb_nbytes(comm, &fb);
        comm.send(0, TAG_COMPOSITE, fb, bytes);
        return None;
    }
    let mut acc = fb;
    // Merge cost: one pass over the image per peer (pixel-proportional, so
    // charged at true rates via the derate-adjusted size).
    for src in 1..size {
        let other: Framebuffer = comm.recv(src, TAG_COMPOSITE);
        let work = fb_nbytes(comm, &acc) as f64;
        comm.compute_host(work * 0.3, work * 2.0);
        acc.composite_in(&other);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::colormap::Colormap;
    use crate::filters::TriangleSoup;
    use commsim::{run_ranks, MachineModel};

    fn cam() -> Camera {
        let mut c = Camera::look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0]);
        c.up = crate::math::Vec3::new(0.0, 1.0, 0.0);
        c
    }

    /// Each rank draws a triangle at depth = rank; rank 0's must win.
    fn rank_triangle(rank: usize) -> TriangleSoup {
        let z = 1.0 - rank as f64; // rank 0 nearest to the camera at z=5
        TriangleSoup {
            positions: vec![[-1.0, -1.0, z], [1.0, -1.0, z], [0.0, 1.0, z]],
            scalars: vec![rank as f64; 3],
        }
    }

    fn render_local(rank: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(24, 24);
        fb.draw(
            &cam(),
            &rank_triangle(rank),
            &Colormap::grayscale(),
            (0.0, 4.0),
        );
        fb
    }

    #[test]
    fn gather_compositing_keeps_nearest_rank() {
        let res = run_ranks(4, MachineModel::test_tiny(), |comm| {
            let fb = render_local(comm.rank());
            composite_to_root(comm, fb).map(|f| f.color[12 * 24 + 12])
        });
        // Only root has an image; center pixel belongs to rank 0 (scalar 0
        // → dark gray, not background).
        assert!(res[1].is_none() && res[2].is_none() && res[3].is_none());
        let center = res[0].unwrap();
        assert_ne!(center, crate::raster::BACKGROUND);
        assert!(
            center[0] < 60,
            "rank 0 (scalar 0) must be in front: {center:?}"
        );
    }

    #[test]
    fn single_rank_is_identity() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let fb = render_local(0);
            let before = fb.color.clone();
            let out = composite_to_root(comm, fb).unwrap();
            out.color == before
        });
        assert!(res[0]);
    }
}
