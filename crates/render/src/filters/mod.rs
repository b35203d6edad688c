//! Geometry-extraction filters over unstructured grids.
//!
//! Slices and isocontours both reduce to marching tetrahedra: every
//! hexahedron is split into six tets, a level field is interpolated along
//! tet edges, and the zero crossing is triangulated. This is the same
//! strategy VTK's cutter/contour filters use on unstructured cells.

use meshdata::{Centering, DataArray, UnstructuredGrid};

/// Extracted triangles: three consecutive vertices per triangle, with one
/// color scalar per vertex.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriangleSoup {
    /// Vertex positions (len = 3 × triangles).
    pub positions: Vec<[f64; 3]>,
    /// Color scalar per vertex.
    pub scalars: Vec<f64>,
}

impl TriangleSoup {
    /// Number of triangles.
    pub fn n_triangles(&self) -> usize {
        self.positions.len() / 3
    }

    /// Append another soup.
    pub fn extend(&mut self, other: TriangleSoup) {
        self.positions.extend(other.positions);
        self.scalars.extend(other.scalars);
    }

    /// Drop all triangles but keep the allocations, so a soup can be
    /// refilled across passes/triggers without reallocating.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.scalars.clear();
    }

    /// Heap bytes (memory accounting for the render stage).
    pub fn heap_bytes(&self) -> u64 {
        (self.positions.capacity() * 24 + self.scalars.capacity() * 8) as u64
    }
}

/// Six-tet decomposition of a VTK-ordered hexahedron around diagonal 0–6.
const HEX_TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// Per-point scalar view of an array: component 0 for scalars, magnitude
/// for vectors (ParaView's default coloring behavior).
pub fn scalar_view(array: &DataArray) -> Vec<f64> {
    if array.components == 1 {
        (0..array.len()).map(|i| array.get(i, 0)).collect()
    } else {
        (0..array.len()).map(|i| array.tuple_magnitude(i)).collect()
    }
}

/// Append the isosurface `level(x) = iso` of `grid`, colored by the point
/// scalars `color`, to `soup`.
///
/// `level` and `color` are per-point values (use [`scalar_view`]).
pub fn marching_tets_into(
    grid: &UnstructuredGrid,
    level: &[f64],
    iso: f64,
    color: &[f64],
    soup: &mut TriangleSoup,
) {
    assert_eq!(level.len(), grid.n_points(), "level field size mismatch");
    assert_eq!(color.len(), grid.n_points(), "color field size mismatch");
    for c in 0..grid.n_cells() {
        let pts = grid.cell_points(c);
        match grid.types[c] {
            meshdata::CellType::Hexahedron => {
                for tet in &HEX_TETS {
                    let ids = [
                        pts[tet[0]] as usize,
                        pts[tet[1]] as usize,
                        pts[tet[2]] as usize,
                        pts[tet[3]] as usize,
                    ];
                    march_one_tet(grid, &ids, level, iso, color, soup);
                }
            }
            meshdata::CellType::Tetra => {
                let ids = [
                    pts[0] as usize,
                    pts[1] as usize,
                    pts[2] as usize,
                    pts[3] as usize,
                ];
                march_one_tet(grid, &ids, level, iso, color, soup);
            }
            _ => { /* 1-D/2-D cells carry no isosurface */ }
        }
    }
}

fn march_one_tet(
    grid: &UnstructuredGrid,
    ids: &[usize; 4],
    level: &[f64],
    iso: f64,
    color: &[f64],
    soup: &mut TriangleSoup,
) {
    let d: [f64; 4] = [
        level[ids[0]] - iso,
        level[ids[1]] - iso,
        level[ids[2]] - iso,
        level[ids[3]] - iso,
    ];
    let mut above = [false; 4];
    let mut n_above = 0;
    for (i, &v) in d.iter().enumerate() {
        above[i] = v > 0.0;
        if above[i] {
            n_above += 1;
        }
    }
    if n_above == 0 || n_above == 4 {
        return;
    }
    // Edge crossing between local verts a and b.
    let crossing = |a: usize, b: usize| -> ([f64; 3], f64) {
        let t = d[a] / (d[a] - d[b]);
        let pa = grid.points[ids[a]];
        let pb = grid.points[ids[b]];
        let p = [
            pa[0] + t * (pb[0] - pa[0]),
            pa[1] + t * (pb[1] - pa[1]),
            pa[2] + t * (pb[2] - pa[2]),
        ];
        let s = color[ids[a]] + t * (color[ids[b]] - color[ids[a]]);
        (p, s)
    };
    // Collect the vertices on the minority side.
    let minority_above = n_above == 1;
    let minority: Vec<usize> = (0..4).filter(|&i| above[i] == minority_above).collect();
    let majority: Vec<usize> = (0..4).filter(|&i| above[i] != minority_above).collect();
    if minority.len() == 1 {
        // One triangle: crossings from the lone vertex to the other three.
        let a = minority[0];
        let v0 = crossing(a, majority[0]);
        let v1 = crossing(a, majority[1]);
        let v2 = crossing(a, majority[2]);
        push_tri(soup, v0, v1, v2);
    } else {
        // Two-two case: a quad from the four crossing edges, split into two
        // triangles. Edges: (m0,M0),(m0,M1),(m1,M1),(m1,M0) forms the loop.
        let (m0, m1) = (minority[0], minority[1]);
        let (ma, mb) = (majority[0], majority[1]);
        let v0 = crossing(m0, ma);
        let v1 = crossing(m0, mb);
        let v2 = crossing(m1, mb);
        let v3 = crossing(m1, ma);
        push_tri(soup, v0, v1, v2);
        push_tri(soup, v0, v2, v3);
    }
}

fn push_tri(soup: &mut TriangleSoup, a: ([f64; 3], f64), b: ([f64; 3], f64), c: ([f64; 3], f64)) {
    soup.positions.push(a.0);
    soup.positions.push(b.0);
    soup.positions.push(c.0);
    soup.scalars.push(a.1);
    soup.scalars.push(b.1);
    soup.scalars.push(c.1);
}

/// Cut `grid` with the plane through `origin` with `normal`, colored by the
/// point-centered array `color_array`, appending to `soup`.
///
/// Appends nothing if the array is missing (blocks without the array
/// contribute nothing, as in VTK).
pub fn slice_plane_into(
    grid: &UnstructuredGrid,
    origin: [f64; 3],
    normal: [f64; 3],
    color_array: &str,
    soup: &mut TriangleSoup,
) {
    let Some(color) = grid.find_array(color_array, Centering::Point) else {
        return;
    };
    let color = scalar_view(color);
    let level: Vec<f64> = grid
        .points
        .iter()
        .map(|p| {
            (p[0] - origin[0]) * normal[0]
                + (p[1] - origin[1]) * normal[1]
                + (p[2] - origin[2]) * normal[2]
        })
        .collect();
    marching_tets_into(grid, &level, 0.0, &color, soup);
}

/// Append the isosurface `array = value`, colored by the same array.
pub fn contour_into(grid: &UnstructuredGrid, array: &str, value: f64, soup: &mut TriangleSoup) {
    let Some(a) = grid.find_array(array, Centering::Point) else {
        return;
    };
    let level = scalar_view(a);
    marching_tets_into(grid, &level, value, &level, soup);
}

/// Append the external surface (faces owned by exactly one cell), colored
/// by a point array. Quads are emitted as two triangles.
pub fn surface_into(grid: &UnstructuredGrid, color_array: &str, soup: &mut TriangleSoup) {
    use std::collections::HashMap;
    let color: Vec<f64> = match grid.find_array(color_array, Centering::Point) {
        Some(a) => scalar_view(a),
        None => vec![0.0; grid.n_points()],
    };
    // VTK hex faces (corner indices).
    const HEX_FACES: [[usize; 4]; 6] = [
        [0, 1, 5, 4],
        [1, 2, 6, 5],
        [2, 3, 7, 6],
        [3, 0, 4, 7],
        [0, 3, 2, 1],
        [4, 5, 6, 7],
    ];
    let mut faces: HashMap<[i64; 4], ([i64; 4], u32)> = HashMap::new();
    for c in 0..grid.n_cells() {
        if grid.types[c] != meshdata::CellType::Hexahedron {
            continue;
        }
        let pts = grid.cell_points(c);
        for f in &HEX_FACES {
            let quad = [pts[f[0]], pts[f[1]], pts[f[2]], pts[f[3]]];
            let mut key = quad;
            key.sort_unstable();
            faces
                .entry(key)
                .and_modify(|(_, count)| *count += 1)
                .or_insert((quad, 1));
        }
    }
    let mut external: Vec<[i64; 4]> = faces
        .into_values()
        .filter_map(|(quad, count)| (count == 1).then_some(quad))
        .collect();
    external.sort_unstable(); // deterministic output order
    for quad in external {
        let p = |i: i64| grid.points[i as usize];
        let s = |i: i64| color[i as usize];
        push_tri(
            soup,
            (p(quad[0]), s(quad[0])),
            (p(quad[1]), s(quad[1])),
            (p(quad[2]), s(quad[2])),
        );
        push_tri(
            soup,
            (p(quad[0]), s(quad[0])),
            (p(quad[2]), s(quad[2])),
            (p(quad[3]), s(quad[3])),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshdata::CellType;

    /// The soup one `_into` filter call appends to an empty one.
    fn extract(filter: impl FnOnce(&mut TriangleSoup)) -> TriangleSoup {
        let mut soup = TriangleSoup::default();
        filter(&mut soup);
        soup
    }

    /// Unit cube hex with a point scalar equal to z.
    fn unit_cube() -> UnstructuredGrid {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "height",
            g.points.iter().map(|p| p[2]).collect(),
        ))
        .unwrap();
        g
    }

    #[test]
    fn slice_through_cube_center_covers_unit_area() {
        let g = unit_cube();
        let soup = extract(|s| slice_plane_into(&g, [0.5, 0.5, 0.5], [0.0, 0.0, 1.0], "height", s));
        assert!(soup.n_triangles() >= 2, "{} triangles", soup.n_triangles());
        // All vertices on the plane and inside the cube.
        for p in &soup.positions {
            assert!((p[2] - 0.5).abs() < 1e-12);
            assert!(p[0] >= -1e-12 && p[0] <= 1.0 + 1e-12);
        }
        // Total area of the cut is the unit square.
        let mut area = 0.0;
        for t in 0..soup.n_triangles() {
            let [a, b, c] = [
                soup.positions[3 * t],
                soup.positions[3 * t + 1],
                soup.positions[3 * t + 2],
            ];
            let u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            let v = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
            let cx = u[1] * v[2] - u[2] * v[1];
            let cy = u[2] * v[0] - u[0] * v[2];
            let cz = u[0] * v[1] - u[1] * v[0];
            area += 0.5 * (cx * cx + cy * cy + cz * cz).sqrt();
        }
        assert!((area - 1.0).abs() < 1e-9, "area = {area}");
        // Colors on the z=0.5 plane interpolate to 0.5.
        for &s in &soup.scalars {
            assert!((s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn slice_missing_the_cell_is_empty() {
        let g = unit_cube();
        let soup = extract(|s| slice_plane_into(&g, [0.0, 0.0, 5.0], [0.0, 0.0, 1.0], "height", s));
        assert_eq!(soup.n_triangles(), 0);
    }

    #[test]
    fn contour_equals_slice_for_coordinate_field() {
        // height == z, so contour(height=0.3) is the z=0.3 plane cut.
        let g = unit_cube();
        let soup = extract(|s| contour_into(&g, "height", 0.3, s));
        assert!(soup.n_triangles() >= 2);
        for p in &soup.positions {
            assert!((p[2] - 0.3).abs() < 1e-12);
        }
        for &s in &soup.scalars {
            assert!((s - 0.3).abs() < 1e-12);
        }
    }

    #[test]
    fn contour_outside_range_is_empty() {
        let g = unit_cube();
        assert_eq!(
            extract(|s| contour_into(&g, "height", 2.0, s)).n_triangles(),
            0
        );
        assert_eq!(
            extract(|s| contour_into(&g, "height", -1.0, s)).n_triangles(),
            0
        );
    }

    #[test]
    fn missing_array_yields_empty_not_panic() {
        let g = unit_cube();
        assert_eq!(
            extract(|s| contour_into(&g, "nope", 0.5, s)).n_triangles(),
            0
        );
        assert_eq!(
            extract(|s| slice_plane_into(&g, [0.5; 3], [0.0, 0.0, 1.0], "nope", s)).n_triangles(),
            0
        );
    }

    #[test]
    fn surface_of_single_hex_is_twelve_triangles() {
        let g = unit_cube();
        let soup = extract(|s| surface_into(&g, "height", s));
        assert_eq!(soup.n_triangles(), 12, "6 quad faces × 2");
    }

    #[test]
    fn shared_faces_are_not_external() {
        // Two hexes sharing a face: 10 external quads → 20 triangles.
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0, 2.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        let id = |x: i64, y: i64, z: i64| x + 3 * y + 6 * z;
        g.add_cell(
            CellType::Hexahedron,
            &[
                id(0, 0, 0),
                id(1, 0, 0),
                id(1, 1, 0),
                id(0, 1, 0),
                id(0, 0, 1),
                id(1, 0, 1),
                id(1, 1, 1),
                id(0, 1, 1),
            ],
        );
        g.add_cell(
            CellType::Hexahedron,
            &[
                id(1, 0, 0),
                id(2, 0, 0),
                id(2, 1, 0),
                id(1, 1, 0),
                id(1, 0, 1),
                id(2, 0, 1),
                id(2, 1, 1),
                id(1, 1, 1),
            ],
        );
        let soup = extract(|s| surface_into(&g, "none", s));
        assert_eq!(soup.n_triangles(), 20);
    }

    #[test]
    fn vector_arrays_color_by_magnitude() {
        let mut g = unit_cube();
        g.add_point_data(DataArray::vectors_f64(
            "velocity",
            (0..8).flat_map(|_| [3.0, 4.0, 0.0]).collect(),
        ))
        .unwrap();
        let a = g.find_array("velocity", Centering::Point).unwrap();
        let view = scalar_view(a);
        assert!(view.iter().all(|&v| (v - 5.0).abs() < 1e-12));
    }

    #[test]
    fn soup_bookkeeping() {
        let g = unit_cube();
        let mut soup = extract(|s| surface_into(&g, "height", s));
        let n = soup.n_triangles();
        let other = extract(|s| surface_into(&g, "height", s));
        soup.extend(other);
        assert_eq!(soup.n_triangles(), 2 * n);
        assert!(soup.heap_bytes() > 0);
    }
}
