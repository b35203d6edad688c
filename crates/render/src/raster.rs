//! Z-buffered triangle rasterizer with Lambertian shading.

use crate::camera::Camera;
use crate::colormap::Colormap;
use crate::filters::TriangleSoup;
use crate::math::Vec3;

/// An RGB color + depth image.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// RGB8 pixels, row-major.
    pub color: Vec<[u8; 3]>,
    /// Depth per pixel; `f32::INFINITY` = background.
    pub depth: Vec<f32>,
}

/// Background color (dark slate, ParaView-like).
pub const BACKGROUND: [u8; 3] = [32, 32, 40];

impl Default for Framebuffer {
    /// An empty 0×0 framebuffer — a placeholder for `mem::take` when a
    /// buffer is handed off to the compositor.
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl Framebuffer {
    /// A cleared framebuffer.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            color: vec![BACKGROUND; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    /// Clear to background without touching the allocations (buffer reuse
    /// across passes/triggers).
    pub fn reset(&mut self) {
        self.color.fill(BACKGROUND);
        self.depth.fill(f32::INFINITY);
    }

    /// Resize if needed, then clear. When the size already matches, the
    /// existing allocations are reused as-is.
    pub fn reset_to(&mut self, width: usize, height: usize) {
        if self.width != width || self.height != height {
            self.width = width;
            self.height = height;
            self.color.resize(width * height, BACKGROUND);
            self.depth.resize(width * height, f32::INFINITY);
        }
        self.reset();
    }

    /// Bytes held (for memory accounting).
    pub fn heap_bytes(&self) -> u64 {
        (self.color.capacity() * 3 + self.depth.capacity() * 4) as u64
    }

    /// Fraction of pixels covered by geometry.
    pub fn coverage(&self) -> f64 {
        let hit = self.depth.iter().filter(|d| d.is_finite()).count();
        hit as f64 / self.depth.len().max(1) as f64
    }

    /// Rasterize a triangle soup through `camera`, coloring scalars with
    /// `colormap` over `range`. Returns the number of triangles drawn.
    pub fn draw(
        &mut self,
        camera: &Camera,
        soup: &TriangleSoup,
        colormap: &Colormap,
        range: (f64, f64),
    ) -> usize {
        let light = Vec3::new(0.4, 0.3, 0.85).normalized();
        let mut drawn = 0;
        for t in 0..soup.n_triangles() {
            let p = [
                soup.positions[3 * t],
                soup.positions[3 * t + 1],
                soup.positions[3 * t + 2],
            ];
            let s = [
                soup.scalars[3 * t],
                soup.scalars[3 * t + 1],
                soup.scalars[3 * t + 2],
            ];
            // World-space normal for shading.
            let e1 = Vec3::from_array(p[1]) - Vec3::from_array(p[0]);
            let e2 = Vec3::from_array(p[2]) - Vec3::from_array(p[0]);
            let normal = e1.cross(e2).normalized();
            let intensity = 0.35 + 0.65 * normal.dot(light).abs();

            let Some(v0) = camera.project(p[0], self.width, self.height) else {
                continue;
            };
            let Some(v1) = camera.project(p[1], self.width, self.height) else {
                continue;
            };
            let Some(v2) = camera.project(p[2], self.width, self.height) else {
                continue;
            };
            if self.raster_one(v0, v1, v2, s, intensity, colormap, range) {
                drawn += 1;
            }
        }
        drawn
    }

    #[allow(clippy::too_many_arguments)]
    fn raster_one(
        &mut self,
        v0: (f64, f64, f64),
        v1: (f64, f64, f64),
        v2: (f64, f64, f64),
        s: [f64; 3],
        intensity: f64,
        colormap: &Colormap,
        range: (f64, f64),
    ) -> bool {
        let area = edge(v0, v1, v2);
        if area.abs() < 1e-12 {
            return false;
        }
        let min_x = v0.0.min(v1.0).min(v2.0).floor().max(0.0) as usize;
        let max_x = (v0.0.max(v1.0).max(v2.0).ceil() as isize).min(self.width as isize - 1);
        let min_y = v0.1.min(v1.1).min(v2.1).floor().max(0.0) as usize;
        let max_y = (v0.1.max(v1.1).max(v2.1).ceil() as isize).min(self.height as isize - 1);
        if max_x < min_x as isize || max_y < min_y as isize {
            return false;
        }
        let mut touched = false;
        for y in min_y..=(max_y as usize) {
            for x in min_x..=(max_x as usize) {
                let pt = (x as f64 + 0.5, y as f64 + 0.5, 0.0);
                let w0 = edge(v1, v2, pt) / area;
                let w1 = edge(v2, v0, pt) / area;
                let w2 = edge(v0, v1, pt) / area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = (w0 * v0.2 + w1 * v1.2 + w2 * v2.2) as f32;
                let idx = y * self.width + x;
                if depth < self.depth[idx] {
                    self.depth[idx] = depth;
                    let scalar = w0 * s[0] + w1 * s[1] + w2 * s[2];
                    let rgb = colormap.map(scalar, range.0, range.1);
                    self.color[idx] = [
                        (rgb[0] as f64 * intensity) as u8,
                        (rgb[1] as f64 * intensity) as u8,
                        (rgb[2] as f64 * intensity) as u8,
                    ];
                    touched = true;
                }
            }
        }
        touched
    }

    /// Burn a vertical colormap legend into the right edge of the image
    /// (strip + tick marks), as ParaView's scalar bar does. Call after
    /// compositing, on the rank that owns the final image.
    pub fn draw_legend(&mut self, colormap: &Colormap, range: (f64, f64)) {
        if self.width < 40 || self.height < 40 {
            return; // too small for a legend
        }
        let bar_w = (self.width / 40).clamp(6, 24);
        let margin = bar_w;
        let x0 = self.width - margin - bar_w;
        let y0 = self.height / 10;
        let y1 = self.height - self.height / 10;
        for y in y0..y1 {
            // Top of the bar = max of the range.
            let t = 1.0 - (y - y0) as f64 / (y1 - y0).max(1) as f64;
            let rgb = colormap.map(range.0 + t * (range.1 - range.0), range.0, range.1);
            for x in x0..x0 + bar_w {
                self.color[y * self.width + x] = rgb;
            }
        }
        // Tick marks at 0, ½, 1 of the range.
        for frac in [0.0f64, 0.5, 1.0] {
            let y = y1 - 1 - ((y1 - y0 - 1) as f64 * frac) as usize;
            for x in x0.saturating_sub(4)..x0 {
                self.color[y * self.width + x] = [255, 255, 255];
            }
        }
    }

    /// Merge another framebuffer into this one by depth test (the
    /// compositing operator for sort-last parallel rendering).
    pub fn composite_in(&mut self, other: &Framebuffer) {
        assert_eq!(self.width, other.width, "framebuffer size mismatch");
        assert_eq!(self.height, other.height, "framebuffer size mismatch");
        for i in 0..self.depth.len() {
            if other.depth[i] < self.depth[i] {
                self.depth[i] = other.depth[i];
                self.color[i] = other.color[i];
            }
        }
    }

    /// The pixels as bytes (RGB interleaved, row-major) for image encoders.
    pub fn rgb_bytes(&self) -> &[u8] {
        self.color.as_flattened()
    }
}

fn edge(a: (f64, f64, f64), b: (f64, f64, f64), p: (f64, f64, f64)) -> f64 {
    (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_soup(z: f64, scalar: f64) -> TriangleSoup {
        TriangleSoup {
            positions: vec![[-1.0, -1.0, z], [1.0, -1.0, z], [0.0, 1.0, z]],
            scalars: vec![scalar; 3],
        }
    }

    fn camera() -> Camera {
        // Look down -z from above at the x-y plane... actually from +z.
        let mut c = Camera::look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0]);
        c.up = crate::math::Vec3::new(0.0, 1.0, 0.0);
        c
    }

    #[test]
    fn draw_covers_center_pixels() {
        let mut fb = Framebuffer::new(64, 64);
        let drawn = fb.draw(
            &camera(),
            &triangle_soup(0.0, 0.5),
            &Colormap::grayscale(),
            (0.0, 1.0),
        );
        assert_eq!(drawn, 1);
        assert!(fb.coverage() > 0.02, "coverage {}", fb.coverage());
        let center = fb.color[32 * 64 + 32];
        assert_ne!(center, BACKGROUND);
        assert!(fb.depth[32 * 64 + 32].is_finite());
    }

    #[test]
    fn nearer_triangle_wins_depth_test() {
        let mut fb = Framebuffer::new(32, 32);
        let cm = Colormap::grayscale();
        fb.draw(&camera(), &triangle_soup(0.0, 0.0), &cm, (0.0, 1.0)); // far, dark
        fb.draw(&camera(), &triangle_soup(1.0, 1.0), &cm, (0.0, 1.0)); // near, bright
        let center = fb.color[16 * 32 + 16];
        assert!(center[0] > 128, "near bright triangle must win: {center:?}");
        // Draw order must not matter.
        let mut fb2 = Framebuffer::new(32, 32);
        fb2.draw(&camera(), &triangle_soup(1.0, 1.0), &cm, (0.0, 1.0));
        fb2.draw(&camera(), &triangle_soup(0.0, 0.0), &cm, (0.0, 1.0));
        assert_eq!(fb.color, fb2.color);
    }

    #[test]
    fn composite_in_keeps_nearest_fragments() {
        let cm = Colormap::grayscale();
        let mut a = Framebuffer::new(32, 32);
        a.draw(&camera(), &triangle_soup(0.0, 0.0), &cm, (0.0, 1.0));
        let mut b = Framebuffer::new(32, 32);
        b.draw(&camera(), &triangle_soup(1.0, 1.0), &cm, (0.0, 1.0));
        let mut direct = Framebuffer::new(32, 32);
        direct.draw(&camera(), &triangle_soup(0.0, 0.0), &cm, (0.0, 1.0));
        direct.draw(&camera(), &triangle_soup(1.0, 1.0), &cm, (0.0, 1.0));
        a.composite_in(&b);
        assert_eq!(a.color, direct.color, "compositing == single-pass render");
    }

    #[test]
    fn degenerate_triangles_are_skipped() {
        let mut fb = Framebuffer::new(16, 16);
        let soup = TriangleSoup {
            positions: vec![[0.0; 3], [0.0; 3], [0.0; 3]],
            scalars: vec![0.0; 3],
        };
        assert_eq!(
            fb.draw(&camera(), &soup, &Colormap::viridis(), (0.0, 1.0)),
            0
        );
        assert_eq!(fb.coverage(), 0.0);
    }

    #[test]
    fn offscreen_triangles_do_not_panic() {
        let mut fb = Framebuffer::new(16, 16);
        let soup = TriangleSoup {
            positions: vec![
                [100.0, 100.0, 0.0],
                [101.0, 100.0, 0.0],
                [100.0, 101.0, 0.0],
            ],
            scalars: vec![0.0; 3],
        };
        fb.draw(&camera(), &soup, &Colormap::viridis(), (0.0, 1.0));
        assert_eq!(fb.coverage(), 0.0);
    }

    #[test]
    fn legend_paints_colormap_strip_with_ticks() {
        let mut fb = Framebuffer::new(200, 100);
        fb.draw_legend(&Colormap::grayscale(), (0.0, 1.0));
        // The strip lives near the right edge; top should be bright (max),
        // bottom dark (min).
        let bar_w = (200usize / 40).clamp(6, 24);
        let x = 200 - bar_w - bar_w / 2;
        let top = fb.color[(100 / 10) * 200 + x];
        let bottom = fb.color[(100 - 100 / 10 - 1) * 200 + x];
        assert!(top[0] > 200, "top of bar near max: {top:?}");
        assert!(bottom[0] < 60, "bottom of bar near min: {bottom:?}");
        // White tick marks appear left of the bar.
        let has_tick = fb.color.contains(&[255, 255, 255]);
        assert!(has_tick);
        // The image center is untouched.
        assert_eq!(fb.color[50 * 200 + 100], BACKGROUND);
    }

    #[test]
    fn legend_skips_tiny_images() {
        let mut fb = Framebuffer::new(16, 16);
        let before = fb.color.clone();
        fb.draw_legend(&Colormap::viridis(), (0.0, 1.0));
        assert_eq!(fb.color, before);
    }

    #[test]
    fn rgb_bytes_layout() {
        let fb = Framebuffer::new(2, 1);
        let bytes = fb.rgb_bytes();
        assert_eq!(bytes.len(), 6);
        assert_eq!(&bytes[0..3], &BACKGROUND);
    }
}
