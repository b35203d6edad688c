//! Sort-last parallel compositing.
//!
//! Every rank rasterizes its local blocks into a [`Tile`] — the bounding
//! box of what it drew, not the image. [`composite`] gathers the tiles on
//! rank 0, which depth-merges them in rank order into the one full-size
//! image only it holds: O(P) messages into one rank, each carrying active
//! pixels only (as IceT does under ParaView). The *virtual* machine is
//! still charged a whole color + depth image per message and per merge:
//! that models ParaView's buffers, and the paper-facing numbers rest on it.

use crate::raster::{image_bytes, Framebuffer, Tile};
use commsim::Comm;

const TAG_COMPOSITE: u64 = 0x636f_6d70;

/// Wire/work size of a full `width × height` framebuffer. Image data does
/// not scale with the mesh, so on throughput-derated machine models (see
/// [`commsim::MachineModel::derate_throughput`]) the declared size is
/// divided by the derate factor — charging image traffic at the machine's
/// *true* rates.
fn fb_nbytes(comm: &Comm, (width, height): (usize, usize)) -> u64 {
    (image_bytes(width, height) as f64 / comm.machine().derate_factor).max(1.0) as u64
}

/// Gather-and-merge compositing of what each rank drew into its `tile`.
/// On rank 0, `image` is sized to the tiles' image, cleared and left
/// holding the composited result, and the call returns true; elsewhere
/// `image` is untouched (and may stay empty) and the tile's pixels leave
/// with the message.
pub fn composite(comm: &mut Comm, tile: &mut Tile, image: &mut Framebuffer) -> bool {
    if comm.rank() != 0 {
        send_tile(comm, tile.take_pixels());
        return false;
    }
    let (width, height) = tile.image_size();
    image.reset_to(width, height);
    image.composite_tile(tile);
    merge_peers(comm, image);
    true
}

/// [`composite`] for a caller that drew into a whole [`Framebuffer`]:
/// returns the composited image on rank 0, `None` elsewhere.
pub fn composite_to_root(comm: &mut Comm, fb: Framebuffer) -> Option<Framebuffer> {
    if comm.rank() != 0 {
        send_tile(comm, fb.dirty_tile());
        return None;
    }
    let mut acc = fb;
    merge_peers(comm, &mut acc);
    Some(acc)
}

fn send_tile(comm: &mut Comm, tile: Tile) {
    let bytes = fb_nbytes(comm, tile.image_size());
    comm.send(0, TAG_COMPOSITE, tile, bytes);
}

/// Rank 0: depth-merge every peer's tile into `acc`, in rank order.
fn merge_peers(comm: &mut Comm, acc: &mut Framebuffer) {
    // Merge cost: one pass over the image per peer (pixel-proportional, so
    // charged at true rates via the derate-adjusted size).
    for src in 1..comm.size() {
        let tile: Tile = comm.recv(src, TAG_COMPOSITE);
        let work = fb_nbytes(comm, (acc.width, acc.height)) as f64;
        comm.compute_host(work * 0.3, work * 2.0);
        acc.composite_tile(&tile);
    }
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

    use crate::raster::reference;
    use crate::raster::tests::{assert_same_pixels, camera_for, colormap, uniform, world_soup};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// N ranks' tiles gathered on rank 0 are the serial depth-merge of
        /// N whole images in rank order — through [`composite`] and through
        /// the by-value [`composite_to_root`], twice over so the second
        /// pass lands on buffers the first one dirtied.
        #[test]
        fn gathered_tiles_are_the_serial_merge_in_rank_order(
            seed in 0u64..u64::MAX,
            (w, h) in (1usize..=97, 1usize..=71),
        ) {
            for ranks in [1, 2, 5] {
                let scene = move |pass: u64| {
                    let rng = &mut TestRng::from_seed(seed ^ pass);
                    (camera_for(rng), colormap(rng), (0.0, uniform(rng, 0.5, 1.5)))
                };
                // Rank r's soup. One in four draws nothing at all; ranks
                // 2k and 2k+1 share their geometry but not their colours,
                // so depths tie and only the merge order decides.
                let soup_of = move |pass: u64, rank: usize| {
                    let rng = &mut TestRng::from_seed(seed ^ pass ^ (rank as u64 / 2 + 1) << 32);
                    let triangles = if rng.next_u64().is_multiple_of(4) { 0 } else { 16 };
                    let mut soup = world_soup(rng, triangles);
                    soup.scalars.iter_mut().for_each(|s| *s += 0.2 * rank as f64);
                    soup
                };
                let got = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
                    let (mut tile, mut image) = (Tile::default(), Framebuffer::default());
                    let mut whole = Framebuffer::default();
                    let mut out = Vec::new();
                    for pass in 0..2 {
                        let (cam, cm, range) = scene(pass);
                        let soup = soup_of(pass, comm.rank());
                        tile.draw(&cam, &soup, &cm, range, (w, h));
                        let tiled = composite(comm, &mut tile, &mut image).then(|| image.clone());
                        whole.reset_to(w, h);
                        whole.draw(&cam, &soup, &cm, range);
                        let merged = composite_to_root(comm, std::mem::take(&mut whole));
                        whole = merged.clone().unwrap_or_default();
                        out.push((tiled, merged));
                    }
                    out
                });
                for pass in 0..2 {
                    let (cam, cm, range) = scene(pass);
                    let mut want = reference::Framebuffer::new(w, h);
                    want.draw(&cam, &soup_of(pass, 0), &cm, range);
                    for rank in 1..ranks {
                        let mut other = reference::Framebuffer::new(w, h);
                        other.draw(&cam, &soup_of(pass, rank), &cm, range);
                        want.composite_in(&other);
                    }
                    for (rank, per_pass) in got.iter().enumerate() {
                        let (tiled, merged) = &per_pass[pass as usize];
                        prop_assert_eq!(tiled.is_some(), rank == 0);
                        prop_assert_eq!(merged.is_some(), rank == 0);
                    }
                    let (tiled, merged) = &got[0][pass as usize];
                    assert_same_pixels(tiled.as_ref().unwrap(), &want, "composite");
                    assert_same_pixels(merged.as_ref().unwrap(), &want, "composite_to_root");
                }
            }
        }
    }

    /// The virtual machine ships and merges whole images whatever the
    /// tiles hold: the charges are a function of the image size alone.
    #[test]
    fn virtual_charges_are_those_of_whole_images() {
        let stats = |triangles: bool| {
            run_ranks(3, MachineModel::test_tiny(), move |comm| {
                let (mut tile, mut image) = (Tile::default(), Framebuffer::default());
                let soup = if triangles {
                    rank_triangle(comm.rank())
                } else {
                    TriangleSoup::default()
                };
                tile.draw(&cam(), &soup, &Colormap::grayscale(), (0.0, 4.0), (24, 24));
                composite(comm, &mut tile, &mut image);
                (comm.stats().bytes_sent, comm.now())
            })
        };
        let (full, empty) = (stats(true), stats(false));
        assert_eq!(full, empty);
        let image = 24 * 24 * 7;
        assert_eq!(
            full.iter().map(|s| s.0).collect::<Vec<_>>(),
            [0, image, image]
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
