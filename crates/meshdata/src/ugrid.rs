//! Unstructured grids (the `vtkUnstructuredGrid` analogue).

use crate::array::{Centering, DataArray};
use crate::{Error, Result};

/// VTK cell types (numeric values match VTK's so written files are honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CellType {
    /// A single point.
    Vertex = 1,
    /// Two-point line segment.
    Line = 3,
    /// Three-point triangle.
    Triangle = 5,
    /// Four-point quadrilateral.
    Quad = 9,
    /// Four-point tetrahedron.
    Tetra = 10,
    /// Eight-point hexahedron (the SEM sub-element).
    Hexahedron = 12,
}

impl CellType {
    /// Number of points in a cell of this type.
    pub fn n_points(self) -> usize {
        match self {
            CellType::Vertex => 1,
            CellType::Line => 2,
            CellType::Triangle => 3,
            CellType::Quad => 4,
            CellType::Tetra => 4,
            CellType::Hexahedron => 8,
        }
    }

    /// Parse a VTK numeric cell type.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => CellType::Vertex,
            3 => CellType::Line,
            5 => CellType::Triangle,
            9 => CellType::Quad,
            10 => CellType::Tetra,
            12 => CellType::Hexahedron,
            _ => return None,
        })
    }
}

/// Points + mixed cells + attribute arrays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnstructuredGrid {
    /// Point coordinates.
    pub points: Vec<[f64; 3]>,
    /// Flat connectivity (point ids, cell after cell).
    pub connectivity: Vec<i64>,
    /// Exclusive end offset of each cell in `connectivity` (VTU convention).
    pub offsets: Vec<i64>,
    /// Cell type of each cell.
    pub types: Vec<CellType>,
    /// Point-centered arrays.
    pub point_data: Vec<DataArray>,
    /// Cell-centered arrays.
    pub cell_data: Vec<DataArray>,
}

impl UnstructuredGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.types.len()
    }

    /// Append a point, returning its id.
    pub fn add_point(&mut self, p: [f64; 3]) -> i64 {
        self.points.push(p);
        (self.points.len() - 1) as i64
    }

    /// Append a cell of `ctype` over existing point ids.
    ///
    /// # Panics
    /// Panics if `ids.len()` does not match the cell type's arity.
    pub fn add_cell(&mut self, ctype: CellType, ids: &[i64]) {
        assert_eq!(
            ids.len(),
            ctype.n_points(),
            "cell of type {ctype:?} needs {} points",
            ctype.n_points()
        );
        self.connectivity.extend_from_slice(ids);
        self.offsets.push(self.connectivity.len() as i64);
        self.types.push(ctype);
    }

    /// Point ids of cell `c`.
    pub fn cell_points(&self, c: usize) -> &[i64] {
        let end = self.offsets[c] as usize;
        let start = if c == 0 {
            0
        } else {
            self.offsets[c - 1] as usize
        };
        &self.connectivity[start..end]
    }

    /// Attach a point-centered array.
    ///
    /// # Errors
    /// Rejects arrays whose tuple count differs from `n_points`.
    pub fn add_point_data(&mut self, array: DataArray) -> Result<()> {
        if array.len() != self.n_points() {
            return Err(Error::Invalid(format!(
                "point array '{}' has {} tuples for {} points",
                array.name,
                array.len(),
                self.n_points()
            )));
        }
        self.point_data.push(array);
        Ok(())
    }

    /// Attach a cell-centered array.
    ///
    /// # Errors
    /// Rejects arrays whose tuple count differs from `n_cells`.
    pub fn add_cell_data(&mut self, array: DataArray) -> Result<()> {
        if array.len() != self.n_cells() {
            return Err(Error::Invalid(format!(
                "cell array '{}' has {} tuples for {} cells",
                array.name,
                array.len(),
                self.n_cells()
            )));
        }
        self.cell_data.push(array);
        Ok(())
    }

    /// Find an attached array by name and centering.
    pub fn find_array(&self, name: &str, centering: Centering) -> Option<&DataArray> {
        let list = match centering {
            Centering::Point => &self.point_data,
            Centering::Cell => &self.cell_data,
        };
        list.iter().find(|a| a.name == name)
    }

    /// Axis-aligned bounding box `[xmin,xmax,ymin,ymax,zmin,zmax]`; `None`
    /// for an empty grid.
    pub fn bounds(&self) -> Option<[f64; 6]> {
        if self.points.is_empty() {
            return None;
        }
        let mut b = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for p in &self.points {
            for d in 0..3 {
                b[2 * d] = b[2 * d].min(p[d]);
                b[2 * d + 1] = b[2 * d + 1].max(p[d]);
            }
        }
        Some(b)
    }

    /// Total heap bytes held by the grid (geometry + arrays), for the
    /// memory-footprint accounting of Figures 3 and 6.
    pub fn heap_bytes(&self) -> u64 {
        let geom = (self.points.capacity() * 24
            + self.connectivity.capacity() * 8
            + self.offsets.capacity() * 8
            + self.types.capacity()) as u64;
        let arrays: u64 = self
            .point_data
            .iter()
            .chain(&self.cell_data)
            .map(|a| a.heap_bytes())
            .sum();
        geom + arrays
    }

    /// Check structural invariants: monotone offsets, in-range connectivity,
    /// type/offset agreement, array lengths.
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        if self.offsets.len() != self.types.len() {
            return Err(Error::Invalid(format!(
                "{} offsets vs {} types",
                self.offsets.len(),
                self.types.len()
            )));
        }
        let mut prev = 0i64;
        for (c, (&off, &ty)) in self.offsets.iter().zip(&self.types).enumerate() {
            let n = off - prev;
            if n != ty.n_points() as i64 {
                return Err(Error::Invalid(format!(
                    "cell {c} of type {ty:?} spans {n} points, expected {}",
                    ty.n_points()
                )));
            }
            prev = off;
        }
        if prev != self.connectivity.len() as i64 {
            return Err(Error::Invalid(format!(
                "last offset {prev} != connectivity length {}",
                self.connectivity.len()
            )));
        }
        let np = self.n_points() as i64;
        if let Some(&bad) = self.connectivity.iter().find(|&&id| id < 0 || id >= np) {
            return Err(Error::Invalid(format!(
                "connectivity references point {bad}, grid has {np} points"
            )));
        }
        for a in &self.point_data {
            if a.len() != self.n_points() {
                return Err(Error::Invalid(format!(
                    "point array '{}' length mismatch",
                    a.name
                )));
            }
        }
        for a in &self.cell_data {
            if a.len() != self.n_cells() {
                return Err(Error::Invalid(format!(
                    "cell array '{}' length mismatch",
                    a.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayData;

    /// A unit cube as one hexahedron, with a point scalar.
    pub(crate) fn unit_hex() -> UnstructuredGrid {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        // VTK hexahedron ordering: bottom quad CCW, then top quad CCW.
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "height",
            g.points.iter().map(|p| p[2]).collect(),
        ))
        .unwrap();
        g
    }

    #[test]
    fn build_and_validate_unit_hex() {
        let g = unit_hex();
        assert_eq!(g.n_points(), 8);
        assert_eq!(g.n_cells(), 1);
        g.validate().unwrap();
        assert_eq!(g.cell_points(0), &[0, 1, 3, 2, 4, 5, 7, 6]);
        assert_eq!(g.bounds(), Some([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]));
    }

    #[test]
    fn point_data_length_is_enforced() {
        let mut g = unit_hex();
        let err = g.add_point_data(DataArray::scalars_f64("bad", vec![1.0]));
        assert!(err.is_err());
    }

    #[test]
    fn cell_data_length_is_enforced() {
        let mut g = unit_hex();
        g.add_cell_data(DataArray::scalars_f64("c", vec![7.0]))
            .unwrap();
        assert!(g
            .add_cell_data(DataArray::scalars_f64("bad", vec![1.0, 2.0]))
            .is_err());
    }

    #[test]
    fn validate_catches_out_of_range_connectivity() {
        let mut g = unit_hex();
        g.connectivity[0] = 99;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_offset_type_mismatch() {
        let mut g = unit_hex();
        g.types[0] = CellType::Tetra; // hex footprint, tetra type
        assert!(g.validate().is_err());
    }

    #[test]
    fn find_array_respects_centering() {
        let mut g = unit_hex();
        g.add_cell_data(DataArray::scalars_f64("height", vec![0.5]))
            .unwrap();
        let p = g.find_array("height", Centering::Point).unwrap();
        assert_eq!(p.len(), 8);
        let c = g.find_array("height", Centering::Cell).unwrap();
        assert_eq!(c.len(), 1);
        assert!(g.find_array("nope", Centering::Point).is_none());
    }

    #[test]
    fn empty_grid_bounds_none_and_validates() {
        let g = UnstructuredGrid::new();
        assert!(g.bounds().is_none());
        g.validate().unwrap();
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let empty = UnstructuredGrid::new().heap_bytes();
        let full = unit_hex().heap_bytes();
        assert!(full > empty);
        // 8 points × 24 B is a hard lower bound.
        assert!(full >= 8 * 24);
    }

    #[test]
    fn mixed_cell_types_validate() {
        let mut g = UnstructuredGrid::new();
        for i in 0..4 {
            g.add_point([i as f64, 0.0, 0.0]);
        }
        g.add_cell(CellType::Line, &[0, 1]);
        g.add_cell(CellType::Triangle, &[0, 1, 2]);
        g.add_cell(CellType::Tetra, &[0, 1, 2, 3]);
        g.validate().unwrap();
        assert_eq!(g.cell_points(1), &[0, 1, 2]);
        assert_eq!(
            ArrayData::U8(g.types.iter().map(|t| *t as u8).collect()).scalar_len(),
            3
        );
    }

    #[test]
    fn cell_type_numeric_roundtrip() {
        for t in [
            CellType::Vertex,
            CellType::Line,
            CellType::Triangle,
            CellType::Quad,
            CellType::Tetra,
            CellType::Hexahedron,
        ] {
            assert_eq!(CellType::from_u8(t as u8), Some(t));
        }
        assert_eq!(CellType::from_u8(42), None);
    }
}
