//! Z-buffered triangle rasterizer with Lambertian shading.
//!
//! One routine ([`Target::fill`]) rasterises a projected triangle into a
//! rectangle of the image. A [`Framebuffer`] is that rectangle at full
//! size; a [`Tile`] is only as large as the bounding box of what one rank
//! draws, which is what sort-last compositing ships (see
//! [`crate::composite`]). Both produce the same pixels, bit for bit.

use crate::camera::{Camera, Projector};
use crate::colormap::Colormap;
use crate::filters::TriangleSoup;
use crate::math::Vec3;

/// The pixel rectangle `[x0, x1) × [y0, y1)` of an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Rect {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

impl Rect {
    const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// All of a `width × height` image.
    fn image(width: usize, height: usize) -> Rect {
        Rect {
            x0: 0,
            y0: 0,
            x1: width,
            y1: height,
        }
    }

    fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    fn width(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    fn area(&self) -> usize {
        self.width() * self.y1.saturating_sub(self.y0)
    }

    /// The smallest rectangle holding both.
    fn union(self, o: Rect) -> Rect {
        if self.is_empty() {
            return o;
        }
        if o.is_empty() {
            return self;
        }
        Rect {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }

    fn contains(&self, o: Rect) -> bool {
        o.is_empty() || (self.x0 <= o.x0 && self.y0 <= o.y0 && o.x1 <= self.x1 && o.y1 <= self.y1)
    }
}

/// An RGB color + depth image.
///
/// The buffer remembers the bounding rectangle of everything drawn,
/// merged or burnt into it since it was last cleared, so clearing,
/// compositing and [`coverage`](Self::coverage) walk that rectangle
/// rather than the image. A buffer fresh from [`new`](Self::new) counts
/// as touched everywhere, so pixels written straight through the public
/// fields are seen; once it has been reset, write through the methods.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// RGB8 pixels, row-major.
    pub color: Vec<[u8; 3]>,
    /// Depth per pixel; `f32::INFINITY` = background.
    pub depth: Vec<f32>,
    /// Every pixel outside it is background at infinite depth.
    dirty: Rect,
}

/// Background color (dark slate, ParaView-like).
pub const BACKGROUND: [u8; 3] = [32, 32, 40];

/// Bytes of one full color + depth image: what the virtual machine is
/// charged per rank and per composited message (ParaView holds and ships
/// whole images), whatever this host holds.
pub(crate) fn image_bytes(width: usize, height: usize) -> u64 {
    (width * height * (3 + 4)) as u64
}

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
            dirty: Rect::image(width, height),
        }
    }

    /// Clear to background without touching the allocations (buffer reuse
    /// across passes/triggers).
    pub fn reset(&mut self) {
        let Rect { x0, y0, x1, y1 } = self.dirty;
        for y in y0..y1 {
            let row = y * self.width;
            self.color[row + x0..row + x1].fill(BACKGROUND);
            self.depth[row + x0..row + x1].fill(f32::INFINITY);
        }
        self.dirty = Rect::EMPTY;
    }

    /// Resize if needed, then clear. When the size already matches, the
    /// existing allocations are reused as-is.
    pub fn reset_to(&mut self, width: usize, height: usize) {
        if self.width == width && self.height == height {
            return self.reset();
        }
        self.width = width;
        self.height = height;
        self.color.clear();
        self.color.resize(width * height, BACKGROUND);
        self.depth.clear();
        self.depth.resize(width * height, f32::INFINITY);
        self.dirty = Rect::EMPTY;
    }

    /// Fraction of pixels covered by geometry.
    pub fn coverage(&self) -> f64 {
        let view = self.pixels(self.dirty);
        let hit: usize = (0..view.rows())
            .map(|r| view.row(r).1.iter().filter(|d| d.is_finite()).count())
            .sum();
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
        let size = (self.width, self.height);
        let projector = camera.projector(self.width, self.height);
        let mut drawn = 0;
        for t in 0..soup.n_triangles() {
            if let Some(tri) = ScreenTriangle::project(&projector, soup, t, size) {
                drawn += usize::from(self.fill(&tri, colormap, range));
            }
        }
        drawn
    }

    fn fill(&mut self, tri: &ScreenTriangle, colormap: &Colormap, range: (f64, f64)) -> bool {
        self.dirty = self.dirty.union(tri.bounds);
        let mut target = Target {
            rect: Rect::image(self.width, self.height),
            color: &mut self.color,
            depth: &mut self.depth,
        };
        target.fill(tri, colormap, range)
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
        self.dirty = self.dirty.union(Rect {
            x0: x0.saturating_sub(4),
            y0,
            x1: x0 + bar_w,
            y1,
        });
    }

    /// Merge another framebuffer into this one by depth test (the
    /// compositing operator for sort-last parallel rendering).
    pub fn composite_in(&mut self, other: &Framebuffer) {
        assert_eq!(self.width, other.width, "framebuffer size mismatch");
        assert_eq!(self.height, other.height, "framebuffer size mismatch");
        self.merge(other.pixels(other.dirty));
    }

    /// Depth-merge a tile of an image of this size.
    pub(crate) fn composite_tile(&mut self, tile: &Tile) {
        assert_eq!(
            (self.width, self.height),
            tile.image_size,
            "tile of a different image size"
        );
        self.merge(tile.pixels());
    }

    /// Everything this buffer holds that is not background, as a tile.
    pub(crate) fn dirty_tile(&self) -> Tile {
        let view = self.pixels(self.dirty);
        let mut tile = Tile {
            rect: view.rect,
            image_size: (self.width, self.height),
            color: Vec::with_capacity(view.rect.area()),
            depth: Vec::with_capacity(view.rect.area()),
            triangles: Vec::new(),
        };
        for r in 0..view.rows() {
            let (color, depth) = view.row(r);
            tile.color.extend_from_slice(color);
            tile.depth.extend_from_slice(depth);
        }
        tile
    }

    fn merge(&mut self, src: Pixels<'_>) {
        let rect = src.rect;
        for r in 0..src.rows() {
            let (src_color, src_depth) = src.row(r);
            let at = (rect.y0 + r) * self.width + rect.x0;
            let color = &mut self.color[at..at + rect.width()];
            let depth = &mut self.depth[at..at + rect.width()];
            for i in 0..rect.width() {
                if src_depth[i] < depth[i] {
                    depth[i] = src_depth[i];
                    color[i] = src_color[i];
                }
            }
        }
        self.dirty = self.dirty.union(rect);
    }

    fn pixels(&self, rect: Rect) -> Pixels<'_> {
        let at = if rect.is_empty() {
            0
        } else {
            rect.y0 * self.width + rect.x0
        };
        Pixels {
            rect,
            stride: self.width,
            color: &self.color[at..],
            depth: &self.depth[at..],
        }
    }

    /// The pixels as bytes (RGB interleaved, row-major) for image encoders.
    pub fn rgb_bytes(&self) -> &[u8] {
        self.color.as_flattened()
    }
}

/// One rank's share of a sort-last image: the bounding box of what it
/// drew and that box's color and depth rows — nothing outside it. This is
/// what travels to the compositing root in place of a whole image.
#[derive(Debug, Default)]
pub struct Tile {
    rect: Rect,
    /// Size of the image the rectangle is a part of.
    image_size: (usize, usize),
    /// `rect.area()` pixels, row-major.
    color: Vec<[u8; 3]>,
    depth: Vec<f32>,
    /// The draw call's projected triangles; kept for the allocation.
    triangles: Vec<ScreenTriangle>,
}

impl Tile {
    /// [`Framebuffer::draw`] onto a cleared `width × height` image, of
    /// which only the soup's bounding box is kept. Returns the number of
    /// triangles drawn.
    pub fn draw(
        &mut self,
        camera: &Camera,
        soup: &TriangleSoup,
        colormap: &Colormap,
        range: (f64, f64),
        (width, height): (usize, usize),
    ) -> usize {
        let projector = camera.projector(width, height);
        self.triangles.clear();
        self.triangles.extend(
            (0..soup.n_triangles())
                .filter_map(|t| ScreenTriangle::project(&projector, soup, t, (width, height))),
        );
        self.image_size = (width, height);
        self.fill_triangles(colormap, range)
    }

    /// Size the tile to `self.triangles`' bounding box, clear it and
    /// rasterise them.
    fn fill_triangles(&mut self, colormap: &Colormap, range: (f64, f64)) -> usize {
        let rect = self
            .triangles
            .iter()
            .fold(Rect::EMPTY, |rect, tri| rect.union(tri.bounds));
        self.rect = rect;
        self.color.clear();
        self.color.resize(rect.area(), BACKGROUND);
        self.depth.clear();
        self.depth.resize(rect.area(), f32::INFINITY);
        let mut target = Target {
            rect,
            color: &mut self.color,
            depth: &mut self.depth,
        };
        let mut drawn = 0;
        for tri in &self.triangles {
            drawn += usize::from(target.fill(tri, colormap, range));
        }
        drawn
    }

    /// Pixels held (and sent): the bounding box's area.
    pub fn n_pixels(&self) -> usize {
        self.rect.area()
    }

    /// Size of the image this tile is a part of.
    pub(crate) fn image_size(&self) -> (usize, usize) {
        self.image_size
    }

    /// Move the pixels out as a message payload, leaving an empty tile
    /// that keeps its triangle scratch.
    pub(crate) fn take_pixels(&mut self) -> Tile {
        Tile {
            rect: std::mem::take(&mut self.rect),
            image_size: self.image_size,
            color: std::mem::take(&mut self.color),
            depth: std::mem::take(&mut self.depth),
            triangles: Vec::new(),
        }
    }

    fn pixels(&self) -> Pixels<'_> {
        Pixels {
            rect: self.rect,
            stride: self.rect.width(),
            color: &self.color,
            depth: &self.depth,
        }
    }
}

/// Borrowed pixel rows covering `rect` of an image: row `r` starts
/// `r × stride` into both slices.
struct Pixels<'a> {
    rect: Rect,
    stride: usize,
    color: &'a [[u8; 3]],
    depth: &'a [f32],
}

impl Pixels<'_> {
    fn rows(&self) -> usize {
        if self.rect.is_empty() {
            0
        } else {
            self.rect.y1 - self.rect.y0
        }
    }

    fn row(&self, r: usize) -> (&[[u8; 3]], &[f32]) {
        let span = r * self.stride..r * self.stride + self.rect.width();
        (&self.color[span.clone()], &self.depth[span])
    }
}

/// A triangle in pixel coordinates with everything the fill loop needs.
#[derive(Debug, Clone, Copy)]
struct ScreenTriangle {
    /// `(pixel_x, pixel_y, depth)` per vertex.
    v: [(f64, f64, f64); 3],
    /// Color scalar per vertex.
    s: [f64; 3],
    /// Lambertian shade of the whole face.
    intensity: f64,
    /// Twice the signed screen-space area.
    area: f64,
    /// Bounding box clamped to the image; never empty.
    bounds: Rect,
}

impl ScreenTriangle {
    /// Triangle `t` of `soup` on a `width × height` image; `None` when a
    /// vertex is behind the near plane or [`Self::new`] drops it.
    fn project(
        projector: &Projector,
        soup: &TriangleSoup,
        t: usize,
        (width, height): (usize, usize),
    ) -> Option<Self> {
        let p = [
            soup.positions[3 * t],
            soup.positions[3 * t + 1],
            soup.positions[3 * t + 2],
        ];
        let v = [
            projector.project(p[0])?,
            projector.project(p[1])?,
            projector.project(p[2])?,
        ];
        let s = [
            soup.scalars[3 * t],
            soup.scalars[3 * t + 1],
            soup.scalars[3 * t + 2],
        ];
        // World-space normal for shading.
        let light = Vec3::new(0.4, 0.3, 0.85).normalized();
        let e1 = Vec3::from_array(p[1]) - Vec3::from_array(p[0]);
        let e2 = Vec3::from_array(p[2]) - Vec3::from_array(p[0]);
        let normal = e1.cross(e2).normalized();
        let intensity = 0.35 + 0.65 * normal.dot(light).abs();
        Self::new(v, s, intensity, (width, height))
    }

    /// Set up a triangle given in pixel coordinates; `None` when it is
    /// degenerate on screen or lies wholly outside the image.
    fn new(
        v: [(f64, f64, f64); 3],
        s: [f64; 3],
        intensity: f64,
        (width, height): (usize, usize),
    ) -> Option<Self> {
        let [v0, v1, v2] = v;
        let area = edge(v0, v1, v2);
        if area.abs() < 1e-12 {
            return None;
        }
        let min_x = v0.0.min(v1.0).min(v2.0).floor().max(0.0) as usize;
        let max_x = (v0.0.max(v1.0).max(v2.0).ceil() as isize).min(width as isize - 1);
        let min_y = v0.1.min(v1.1).min(v2.1).floor().max(0.0) as usize;
        let max_y = (v0.1.max(v1.1).max(v2.1).ceil() as isize).min(height as isize - 1);
        if max_x < min_x as isize || max_y < min_y as isize {
            return None;
        }
        Some(Self {
            v,
            s,
            intensity,
            area,
            bounds: Rect {
                x0: min_x,
                y0: min_y,
                x1: max_x as usize + 1,
                y1: max_y as usize + 1,
            },
        })
    }
}

/// Mutable pixel rows covering `rect` of an image, `rect.width()` apart:
/// what the rasteriser writes into.
struct Target<'a> {
    rect: Rect,
    color: &'a mut [[u8; 3]],
    depth: &'a mut [f32],
}

/// Reads `edge / area < 0.0` off the signs, without dividing, wherever
/// that is certain.
///
/// The quotient is negative exactly when the signs differ and it does not
/// underflow to -0.0, which `|edge|` above the smallest normal and
/// `|area|` below 2⁵⁰ rule out (the quotient stays above 2⁻¹⁰⁷², a
/// subnormal). Anything else — tiny or NaN edge values, huge or NaN areas
/// — is never rejected here and is left to the division.
#[derive(Debug, Clone, Copy)]
struct SignReject {
    /// ±1, the sign of the area.
    sign: f64,
    /// `edge × sign` below this is a negative weight.
    below: f64,
}

impl SignReject {
    const MAX_AREA: f64 = (1u64 << 50) as f64;

    fn new(area: f64) -> Self {
        Self {
            sign: if area < 0.0 { -1.0 } else { 1.0 },
            below: if area.abs() < Self::MAX_AREA {
                -f64::MIN_POSITIVE
            } else {
                f64::NEG_INFINITY
            },
        }
    }

    fn rejects(&self, edge: f64) -> bool {
        edge * self.sign < self.below
    }
}

impl Target<'_> {
    /// Depth-test and shade every pixel centre inside `tri`; true when a
    /// pixel was written. `tri.bounds` must lie inside the target.
    fn fill(&mut self, tri: &ScreenTriangle, colormap: &Colormap, range: (f64, f64)) -> bool {
        assert!(self.rect.contains(tri.bounds), "triangle outside target");
        let [v0, v1, v2] = tri.v;
        let (s, area, intensity) = (tri.s, tri.area, tri.intensity);
        // Most of the bounding box is outside the triangle: drop it on the
        // signs. What survives runs the exact test, whose verdict counts.
        let outside = SignReject::new(area);
        let stride = self.rect.width();
        let mut touched = false;
        for y in tri.bounds.y0..tri.bounds.y1 {
            let row = (y - self.rect.y0) * stride;
            for x in tri.bounds.x0..tri.bounds.x1 {
                let pt = (x as f64 + 0.5, y as f64 + 0.5, 0.0);
                let e0 = edge(v1, v2, pt);
                let e1 = edge(v2, v0, pt);
                let e2 = edge(v0, v1, pt);
                if outside.rejects(e0) || outside.rejects(e1) || outside.rejects(e2) {
                    continue;
                }
                let w0 = e0 / area;
                let w1 = e1 / area;
                let w2 = e2 / area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = (w0 * v0.2 + w1 * v1.2 + w2 * v2.2) as f32;
                let idx = row + (x - self.rect.x0);
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
}

fn edge(a: (f64, f64, f64), b: (f64, f64, f64), p: (f64, f64, f64)) -> f64 {
    (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0)
}

/// The rasteriser and the merge this module shipped before tiles, dirty
/// rectangles and the sign reject: every triangle re-projects its vertices
/// through a freshly built matrix, every bounding-box pixel is divided
/// before it is tested, every merge and clear walks the whole image. Kept
/// verbatim as the oracle the tests here and in [`crate::composite`]
/// compare colour and depth against, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{edge, BACKGROUND};
    use crate::camera::Camera;
    use crate::colormap::Colormap;
    use crate::filters::TriangleSoup;
    use crate::math::Vec3;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Framebuffer {
        pub width: usize,
        pub height: usize,
        pub color: Vec<[u8; 3]>,
        pub depth: Vec<f32>,
    }

    impl Framebuffer {
        pub fn new(width: usize, height: usize) -> Self {
            Self {
                width,
                height,
                color: vec![BACKGROUND; width * height],
                depth: vec![f32::INFINITY; width * height],
            }
        }

        pub fn coverage(&self) -> f64 {
            let hit = self.depth.iter().filter(|d| d.is_finite()).count();
            hit as f64 / self.depth.len().max(1) as f64
        }

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

                let Some(v0) = reference_project(camera, p[0], self.width, self.height) else {
                    continue;
                };
                let Some(v1) = reference_project(camera, p[1], self.width, self.height) else {
                    continue;
                };
                let Some(v2) = reference_project(camera, p[2], self.width, self.height) else {
                    continue;
                };
                if self.raster_one(v0, v1, v2, s, intensity, colormap, range) {
                    drawn += 1;
                }
            }
            drawn
        }

        #[allow(clippy::too_many_arguments)]
        pub fn raster_one(
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
    }

    /// `Camera::project` as it was: the view-projection matrix rebuilt for
    /// the one point.
    pub fn reference_project(
        camera: &Camera,
        p: [f64; 3],
        width: usize,
        height: usize,
    ) -> Option<(f64, f64, f64)> {
        let aspect = width as f64 / height as f64;
        let vp = camera.projection_matrix(aspect).mul(&camera.view_matrix());
        let h = vp.transform_point(Vec3::from_array(p));
        if h[3] <= 1e-12 {
            return None;
        }
        let ndc = [h[0] / h[3], h[1] / h[3], h[2] / h[3]];
        let x = (ndc[0] * 0.5 + 0.5) * width as f64;
        let y = (1.0 - (ndc[1] * 0.5 + 0.5)) * height as f64;
        Some((x, y, h[3]))
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        // The legend is part of what a reset has to clear.
        fb.reset();
        fb.draw_legend(&Colormap::grayscale(), (0.0, 1.0));
        fb.reset();
        assert!(fb.color.iter().all(|&c| c == BACKGROUND));
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

    #[test]
    fn fresh_buffer_written_through_its_public_fields_encodes_and_resets() {
        use crate::image::encode_png;
        let blank = encode_png(&Framebuffer::new(40, 30));
        let mut fb = Framebuffer::new(40, 30);
        fb.color[7] = [255, 0, 0];
        fb.depth[7] = 1.0;
        assert_eq!(fb.rgb_bytes()[21..24], [255, 0, 0]);
        assert_ne!(encode_png(&fb), blank);
        assert_eq!(fb.coverage(), 1.0 / 1200.0);
        let mut same_size = fb.clone();
        fb.reset();
        same_size.reset_to(40, 30);
        for fb in [&fb, &same_size] {
            assert_eq!(fb.color[7], BACKGROUND);
            assert_eq!(fb.coverage(), 0.0);
            assert_eq!(encode_png(fb), blank);
        }
    }

    // ---- The oracle: everything below compares against `reference` ----

    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    pub(crate) fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        lo + rng.next_f64() * (hi - lo)
    }

    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// Magnitudes the fast paths must hand back to the exact test: signed
    /// zeros, subnormals (an edge value the division flushes to -0.0),
    /// coordinates whose doubled area passes 2⁵⁰, overflow, NaN.
    const ODD: [f64; 23] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        -1e-310,
        f64::MIN_POSITIVE,
        3e-308,
        1e-300,
        -1e-160,
        3.4e7,
        -3.4e7,
        1e16,
        -1e16,
        1e20,
        1e154,
        -1e154,
        1e300,
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    fn odd(rng: &mut TestRng) -> f64 {
        ODD[below(rng, ODD.len() as u64) as usize]
    }

    /// A pixel coordinate along an axis `extent` pixels long: mostly near
    /// the image, often exactly on a pixel centre or corner (edge values of
    /// exactly zero), sometimes far outside or from [`ODD`].
    fn screen_coord(rng: &mut TestRng, extent: usize) -> f64 {
        let cell = below(rng, extent as u64 + 4) as f64 - 2.0;
        match below(rng, 10) {
            0..=3 => uniform(rng, -8.0, extent as f64 + 8.0),
            4 | 5 => cell + 0.5,
            6 => cell,
            7 => uniform(rng, -1e4, 1e4),
            _ => odd(rng),
        }
    }

    fn scalar(rng: &mut TestRng) -> f64 {
        match below(rng, 12) {
            0 => f64::NAN,
            1 => odd(rng),
            _ => uniform(rng, -0.5, 1.5),
        }
    }

    pub(crate) fn colormap(rng: &mut TestRng) -> Colormap {
        [
            Colormap::viridis(),
            Colormap::cool_warm(),
            Colormap::grayscale(),
        ][below(rng, 3) as usize]
            .clone()
    }

    type ScreenVertex = (f64, f64, f64);

    fn screen_triangle(rng: &mut TestRng, (w, h): (usize, usize)) -> [ScreenVertex; 3] {
        let vertex = |rng: &mut TestRng| {
            let depth = match below(rng, 10) {
                0 => odd(rng),
                _ => uniform(rng, 0.1, 10.0),
            };
            (screen_coord(rng, w), screen_coord(rng, h), depth)
        };
        let (v0, v1) = (vertex(rng), vertex(rng));
        let v2 = match below(rng, 8) {
            // A sliver: the third vertex a hair off the first edge.
            0 => {
                let t = uniform(rng, -0.2, 1.2);
                let off = uniform(rng, -1e-7, 1e-7);
                (
                    v0.0 + t * (v1.0 - v0.0) + off,
                    v0.1 + t * (v1.1 - v0.1) - off,
                    v0.2,
                )
            }
            // Degenerate.
            1 => v1,
            _ => vertex(rng),
        };
        // Both windings.
        if below(rng, 2) == 0 {
            [v0, v1, v2]
        } else {
            [v0, v2, v1]
        }
    }

    pub(crate) fn assert_same_pixels(got: &Framebuffer, want: &reference::Framebuffer, what: &str) {
        assert_eq!((got.width, got.height), (want.width, want.height), "{what}");
        assert_eq!(got.color, want.color, "{what}: colour");
        // Bit patterns: `==` would let 0.0 pass for -0.0 and fail NaN.
        let bits = |d: &[f32]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.depth), bits(&want.depth), "{what}: depth");
        assert_eq!(got.coverage(), want.coverage(), "{what}: coverage");
    }

    /// `tile` composited into an otherwise clear image of its size.
    fn expand(tile: &Tile) -> Framebuffer {
        let (w, h) = tile.image_size();
        // A wrong size first, so the image the tile lands on was resized.
        let mut image = Framebuffer::new(w + 1, h);
        image.reset_to(w, h);
        image.composite_tile(tile);
        image
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn screen_triangles_fill_as_the_reference_does(
            seed in 0u64..u64::MAX,
            w in 1usize..=97,
            h in 1usize..=71,
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let cm = colormap(rng);
            let range = (uniform(rng, -0.2, 0.4), uniform(rng, 0.3, 1.2));
            let mut want = reference::Framebuffer::new(w, h);
            let mut fb = Framebuffer::new(w, h);
            fb.reset();
            let mut tile = Tile {
                image_size: (w, h),
                ..Tile::default()
            };
            for _ in 0..=below(rng, 12) {
                let [v0, v1, v2] = screen_triangle(rng, (w, h));
                let s = [scalar(rng), scalar(rng), scalar(rng)];
                let intensity = uniform(rng, 0.35, 1.0);
                let touched = want.raster_one(v0, v1, v2, s, intensity, &cm, range);
                let tri = ScreenTriangle::new([v0, v1, v2], s, intensity, (w, h));
                prop_assert_eq!(tri.is_some_and(|tri| fb.fill(&tri, &cm, range)), touched);
                tile.triangles.extend(tri);
            }
            assert_same_pixels(&fb, &want, "whole-image target");
            tile.fill_triangles(&cm, range);
            prop_assert!(tile.n_pixels() <= w * h);
            assert_same_pixels(&expand(&tile), &want, "tile target");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The reject is sound: whatever it drops, the division drops.
        #[test]
        fn sign_reject_never_outvotes_the_division(seed in 0u64..u64::MAX) {
            const AREAS: [f64; 13] = [
                1e-12,
                1e-3,
                1.0,
                4.0,
                1e10,
                SignReject::MAX_AREA - 0.125,
                SignReject::MAX_AREA,
                1e16,
                1.5e17,
                1e100,
                1e300,
                f64::INFINITY,
                f64::NAN,
            ];
            let rng = &mut TestRng::from_seed(seed);
            let any = |rng: &mut TestRng, odd: f64| match below(rng, 3) {
                0 => f64::from_bits(rng.next_u64()),
                1 => -odd,
                _ => odd,
            };
            let pick = AREAS[below(rng, AREAS.len() as u64) as usize];
            let area = any(rng, pick);
            let pick = odd(rng);
            let edge = any(rng, pick);
            let rejected = SignReject::new(area).rejects(edge);
            prop_assert!(!rejected || edge / area < 0.0, "edge {edge:e} area {area:e}");
            // And it is not vacuous: ordinary outside pixels are dropped.
            if area.abs() < 1e15 && edge.abs() > 1e-300 && (edge < 0.0) != (area < 0.0) {
                prop_assert!(rejected, "edge {edge:e} area {area:e}");
            }
        }
    }

    pub(crate) fn camera_for(rng: &mut TestRng) -> Camera {
        let dir = [
            uniform(rng, -1.0, 1.0),
            uniform(rng, -1.0, 1.0),
            uniform(rng, -1.0, 1.0),
        ];
        if below(rng, 2) == 0 {
            Camera::framing([-1.0, 1.0, -1.0, 1.0, -1.5, 1.5], dir)
        } else {
            let r = uniform(rng, 0.5, 6.0);
            Camera::look_at(
                [dir[0] * r, dir[1] * r + 0.1, dir[2] * r],
                [uniform(rng, -0.3, 0.3), 0.0, 0.0],
            )
        }
    }

    /// World-space triangles around the origin: some far enough away that
    /// the doubled screen area passes 2⁵⁰, some behind any camera, some
    /// degenerate or slivers, some with NaN scalars.
    pub(crate) fn world_soup(rng: &mut TestRng, max_triangles: u64) -> TriangleSoup {
        let mut soup = TriangleSoup::default();
        for _ in 0..below(rng, max_triangles + 1) {
            let scale = match below(rng, 10) {
                0 => 1e7,
                1 => 1e13,
                2 => 0.05,
                _ => 1.0,
            };
            let point = |rng: &mut TestRng| {
                [
                    uniform(rng, -1.5, 1.5) * scale,
                    uniform(rng, -1.5, 1.5) * scale,
                    uniform(rng, -2.0, 2.0) * scale,
                ]
            };
            let (a, b) = (point(rng), point(rng));
            let c = match below(rng, 8) {
                0 => b,
                1 => {
                    let t = uniform(rng, 0.0, 1.0);
                    [
                        a[0] + t * (b[0] - a[0]),
                        a[1] + t * (b[1] - a[1]) + 1e-9,
                        a[2] + t * (b[2] - a[2]),
                    ]
                }
                _ => point(rng),
            };
            soup.positions.extend([a, b, c]);
            soup.scalars.extend([scalar(rng), scalar(rng), scalar(rng)]);
        }
        soup
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn soups_draw_as_the_reference_does(
            seed in 0u64..u64::MAX,
            (w, h) in (1usize..=97, 1usize..=71),
            (w2, h2) in (1usize..=97, 1usize..=71),
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let (cam, cm) = (camera_for(rng), colormap(rng));
            let range = (0.0, uniform(rng, 0.5, 1.5));
            let (first, second) = (world_soup(rng, 40), world_soup(rng, 40));

            // A draw, then a second one onto the dirty buffer.
            let mut want = reference::Framebuffer::new(w, h);
            let mut fb = Framebuffer::default();
            fb.reset_to(w, h);
            for soup in [&first, &second] {
                prop_assert_eq!(
                    fb.draw(&cam, soup, &cm, range),
                    want.draw(&cam, soup, &cm, range)
                );
                assert_same_pixels(&fb, &want, "draw");
            }

            // The same two soups as tiles, merged in either order.
            let mut tile = Tile::default();
            let mut merged = Framebuffer::new(w, h);
            for soup in [&second, &first] {
                tile.draw(&cam, soup, &cm, range, (w, h));
                merged.composite_tile(&tile);
            }
            assert_same_pixels(&merged, &want, "tiles");

            // The tile of everything the buffer holds is the buffer.
            assert_same_pixels(&expand(&fb.dirty_tile()), &want, "dirty tile");

            // Reuse at another size (one time in four, the same size).
            let (w2, h2) = if seed % 4 == 0 { (w, h) } else { (w2, h2) };
            let mut want = reference::Framebuffer::new(w2, h2);
            want.draw(&cam, &second, &cm, range);
            fb.reset_to(w2, h2);
            fb.draw(&cam, &second, &cm, range);
            assert_same_pixels(&fb, &want, "draw after reset_to");
            tile.draw(&cam, &second, &cm, range, (w2, h2));
            assert_same_pixels(&expand(&tile), &want, "tile reused at a new size");
        }

        #[test]
        fn composite_in_merges_as_the_reference_does(
            seed in 0u64..u64::MAX,
            (w, h) in (1usize..=97, 1usize..=71),
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let cam = camera_for(rng);
            let mut want = reference::Framebuffer::new(w, h);
            let mut acc = Framebuffer::new(w, h);
            let mut soup = TriangleSoup::default();
            for round in 0..3 {
                // The last round repeats the geometry in other colours:
                // equal depths, and the image's own pixels must stay.
                if round < 2 {
                    soup = world_soup(rng, 12);
                }
                let cm = colormap(rng);
                let mut want_other = reference::Framebuffer::new(w, h);
                want_other.draw(&cam, &soup, &cm, (0.0, 1.0));
                let mut other = Framebuffer::new(w, h);
                other.reset();
                other.draw(&cam, &soup, &cm, (0.0, 1.0));
                want.composite_in(&want_other);
                acc.composite_in(&other);
                assert_same_pixels(&acc, &want, "composite_in");
            }
            acc.reset();
            assert_same_pixels(&acc, &reference::Framebuffer::new(w, h), "reset");
        }
    }
}
