//! Look-at camera with perspective projection.

use crate::math::{Mat4, Vec3};

/// A pinhole camera; `project` maps world points to pixel coordinates plus
/// a depth value suitable for z-buffering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Eye position.
    pub eye: Vec3,
    /// Point the camera looks at.
    pub target: Vec3,
    /// Up direction hint.
    pub up: Vec3,
    /// Vertical field of view in radians.
    pub fov_y: f64,
    /// Near clip distance.
    pub near: f64,
    /// Far clip distance.
    pub far: f64,
}

impl Camera {
    /// A camera at `eye` looking at `target` with a 60° field of view.
    pub fn look_at(eye: [f64; 3], target: [f64; 3]) -> Self {
        Self {
            eye: Vec3::from_array(eye),
            target: Vec3::from_array(target),
            up: Vec3::new(0.0, 0.0, 1.0),
            fov_y: 60f64.to_radians(),
            near: 0.01,
            far: 1000.0,
        }
    }

    /// Frame an axis-aligned bounding box from direction `dir` so it fills
    /// most of the view — what a ParaView script's `ResetCamera` does.
    pub fn framing(bounds: [f64; 6], dir: [f64; 3]) -> Self {
        let center = Vec3::new(
            0.5 * (bounds[0] + bounds[1]),
            0.5 * (bounds[2] + bounds[3]),
            0.5 * (bounds[4] + bounds[5]),
        );
        let diag = Vec3::new(
            bounds[1] - bounds[0],
            bounds[3] - bounds[2],
            bounds[5] - bounds[4],
        )
        .length()
        .max(1e-9);
        let d = Vec3::from_array(dir).normalized();
        // Fit the bounding sphere in the vertical field of view with a
        // small margin (what ParaView's ResetCamera does).
        let fov_y = 50f64.to_radians();
        let distance = (0.5 * diag) / (fov_y * 0.5).tan() * 1.15;
        let eye = center + d * distance;
        let up = if d.cross(Vec3::new(0.0, 0.0, 1.0)).length() < 1e-6 {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        Self {
            eye,
            target: center,
            up,
            fov_y: 50f64.to_radians(),
            near: diag * 0.01,
            far: diag * 10.0,
        }
    }

    /// The view matrix (world → camera).
    pub fn view_matrix(&self) -> Mat4 {
        let f = (self.target - self.eye).normalized();
        let s = f.cross(self.up.normalized()).normalized();
        let u = s.cross(f);
        let mut m = Mat4::identity();
        m.m[0] = [s.x, s.y, s.z, -s.dot(self.eye)];
        m.m[1] = [u.x, u.y, u.z, -u.dot(self.eye)];
        m.m[2] = [-f.x, -f.y, -f.z, f.dot(self.eye)];
        m
    }

    /// The perspective projection matrix for an image aspect ratio.
    pub fn projection_matrix(&self, aspect: f64) -> Mat4 {
        let t = 1.0 / (self.fov_y * 0.5).tan();
        let (n, fr) = (self.near, self.far);
        let mut m = Mat4 { m: [[0.0; 4]; 4] };
        m.m[0][0] = t / aspect;
        m.m[1][1] = t;
        m.m[2][2] = (fr + n) / (n - fr);
        m.m[2][3] = 2.0 * fr * n / (n - fr);
        m.m[3][2] = -1.0;
        m
    }

    /// The world → pixel map for a `width × height` image, with the
    /// view-projection matrix built once: what a draw call projects every
    /// vertex through.
    pub fn projector(&self, width: usize, height: usize) -> Projector {
        let aspect = width as f64 / height as f64;
        Projector {
            view_projection: self.projection_matrix(aspect).mul(&self.view_matrix()),
            width: width as f64,
            height: height as f64,
        }
    }

    /// Project a world point to `(pixel_x, pixel_y, depth)`; `None` when
    /// behind the near plane. Depth increases away from the camera.
    pub fn project(&self, p: [f64; 3], width: usize, height: usize) -> Option<(f64, f64, f64)> {
        self.projector(width, height).project(p)
    }
}

/// A [`Camera`] bound to an image size (see [`Camera::projector`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projector {
    view_projection: Mat4,
    width: f64,
    height: f64,
}

impl Projector {
    /// [`Camera::project`] for this camera and image size.
    pub fn project(&self, p: [f64; 3]) -> Option<(f64, f64, f64)> {
        let h = self.view_projection.transform_point(Vec3::from_array(p));
        if h[3] <= 1e-12 {
            return None;
        }
        let ndc = [h[0] / h[3], h[1] / h[3], h[2] / h[3]];
        let x = (ndc[0] * 0.5 + 0.5) * self.width;
        let y = (1.0 - (ndc[1] * 0.5 + 0.5)) * self.height;
        Some((x, y, h[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_projects_to_image_center() {
        let cam = Camera::look_at([5.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        let (x, y, depth) = cam.project([0.0, 0.0, 0.0], 200, 100).unwrap();
        assert!((x - 100.0).abs() < 1e-9);
        assert!((y - 50.0).abs() < 1e-9);
        assert!(
            (depth - 5.0).abs() < 1e-9,
            "depth is eye distance along view"
        );
    }

    #[test]
    fn points_behind_camera_are_rejected() {
        let cam = Camera::look_at([5.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        assert!(cam.project([10.0, 0.0, 0.0], 100, 100).is_none());
    }

    #[test]
    fn nearer_points_have_smaller_depth() {
        let cam = Camera::look_at([5.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        let (_, _, d_near) = cam.project([2.0, 0.0, 0.0], 100, 100).unwrap();
        let (_, _, d_far) = cam.project([-2.0, 0.0, 0.0], 100, 100).unwrap();
        assert!(d_near < d_far);
    }

    #[test]
    fn framing_sees_the_whole_box() {
        let bounds = [0.0, 1.0, 0.0, 1.0, 0.0, 2.0];
        let cam = Camera::framing(bounds, [1.0, 1.0, 0.3]);
        for corner in [
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 2.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 2.0],
        ] {
            let p = cam.project(corner, 400, 400);
            assert!(p.is_some());
            let (x, y, _) = p.unwrap();
            assert!(x > -40.0 && x < 440.0, "x={x}");
            assert!(y > -40.0 && y < 440.0, "y={y}");
        }
    }

    #[test]
    fn framing_straight_down_picks_valid_up() {
        let cam = Camera::framing([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0]);
        assert!(cam.project([0.5, 0.5, 0.5], 100, 100).is_some());
    }
}
