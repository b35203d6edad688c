//! Structured hexahedral SEM meshes with solid masks and slab partitioning.
//!
//! The reproduction's geometry substitution (documented in DESIGN.md): the
//! paper's body-fitted pebble-bed mesh becomes a Cartesian box with
//! **solid-masked elements** approximating the pebbles — flow solves skip
//! solid elements and impose no-slip on their surfaces. The RBC slab is a
//! plain box. Both preserve what the evaluation measures: field sizes, data
//! movement, and assembly/communication structure.
//!
//! Domain decomposition is by contiguous element slabs along z (NekRS uses
//! general element partitions; slabs keep the halo pattern to two
//! neighbors, which is what a box-shaped mesh partition largely degenerates
//! to anyway).

use crate::field::FieldLayout;
use std::sync::Arc;

/// Boundary condition for one scalar field on one face.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bc {
    /// Fixed value on the boundary.
    Dirichlet(f64),
    /// Natural (zero-flux) boundary; nothing is imposed.
    Neumann,
}

/// Boundary conditions for one scalar field: the six box faces
/// (x-min, x-max, y-min, y-max, z-min, z-max) plus internal solid surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcSet {
    /// Face conditions in (x-,x+,y-,y+,z-,z+) order. Ignored on periodic
    /// axes.
    pub faces: [Bc; 6],
    /// Condition on solid-element (pebble) surfaces.
    pub solid_surface: Bc,
}

impl BcSet {
    /// All-Neumann (natural) conditions.
    pub fn all_neumann() -> Self {
        Self {
            faces: [Bc::Neumann; 6],
            solid_surface: Bc::Neumann,
        }
    }

    /// Homogeneous Dirichlet everywhere (no-slip walls + surfaces).
    pub fn all_dirichlet_zero() -> Self {
        Self {
            faces: [Bc::Dirichlet(0.0); 6],
            solid_surface: Bc::Dirichlet(0.0),
        }
    }
}

/// Global mesh description, identical on every rank.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSpec {
    /// Polynomial order N.
    pub order: usize,
    /// Global element counts per axis.
    pub elems: [usize; 3],
    /// Physical domain lengths per axis.
    pub lengths: [f64; 3],
    /// Periodicity per axis.
    pub periodic: [bool; 3],
    /// Solid mask, one flag per global element (x fastest); `true` = solid.
    pub solid: Vec<bool>,
}

impl MeshSpec {
    /// A plain box with no solids.
    pub fn box_mesh(
        order: usize,
        elems: [usize; 3],
        lengths: [f64; 3],
        periodic: [bool; 3],
    ) -> Self {
        assert!(order >= 1, "polynomial order must be >= 1");
        assert!(elems.iter().all(|&e| e >= 1), "need >= 1 element per axis");
        let n = elems[0] * elems[1] * elems[2];
        Self {
            order,
            elems,
            lengths,
            periodic,
            solid: vec![false; n],
        }
    }

    /// Flat index of a global element coordinate.
    pub fn elem_index(&self, e: [usize; 3]) -> usize {
        e[0] + self.elems[0] * (e[1] + self.elems[1] * e[2])
    }

    /// Is this global element solid?
    pub fn is_solid(&self, e: [usize; 3]) -> bool {
        self.solid[self.elem_index(e)]
    }

    /// Mark every element whose centroid lies inside the sphere as solid.
    pub fn add_solid_sphere(&mut self, center: [f64; 3], radius: f64) {
        let h = self.h();
        for ez in 0..self.elems[2] {
            for ey in 0..self.elems[1] {
                for ex in 0..self.elems[0] {
                    let c = [
                        (ex as f64 + 0.5) * h[0],
                        (ey as f64 + 0.5) * h[1],
                        (ez as f64 + 0.5) * h[2],
                    ];
                    let d2: f64 = (0..3).map(|d| (c[d] - center[d]).powi(2)).sum();
                    if d2 <= radius * radius {
                        let idx = self.elem_index([ex, ey, ez]);
                        self.solid[idx] = true;
                    }
                }
            }
        }
    }

    /// Element sizes per axis.
    pub fn h(&self) -> [f64; 3] {
        [
            self.lengths[0] / self.elems[0] as f64,
            self.lengths[1] / self.elems[1] as f64,
            self.lengths[2] / self.elems[2] as f64,
        ]
    }

    /// Global continuous nodes along `axis` (shared faces counted once;
    /// periodic axes wrap, so no +1).
    pub fn n_nodes_axis(&self, axis: usize) -> usize {
        let n = self.elems[axis] * self.order;
        if self.periodic[axis] {
            n
        } else {
            n + 1
        }
    }

    /// Total global fluid elements.
    pub fn n_fluid_elems(&self) -> usize {
        self.solid.iter().filter(|&&s| !s).count()
    }

    /// Global continuous node id for local node (i,j,k) of element `e`.
    pub fn gid(&self, e: [usize; 3], i: usize, j: usize, k: usize) -> u64 {
        let nn = [
            self.n_nodes_axis(0),
            self.n_nodes_axis(1),
            self.n_nodes_axis(2),
        ];
        let local = [i, j, k];
        let mut g = [0usize; 3];
        for d in 0..3 {
            let raw = e[d] * self.order + local[d];
            g[d] = if self.periodic[d] { raw % nn[d] } else { raw };
        }
        (g[0] + nn[0] * (g[1] + nn[1] * g[2])) as u64
    }
}

/// One rank's slab of the mesh: its fluid elements, geometry, and the
/// reference basis info needed for node coordinates.
#[derive(Debug, Clone)]
pub struct LocalMesh {
    /// Shared global spec.
    pub spec: Arc<MeshSpec>,
    /// This rank.
    pub rank: usize,
    /// Total ranks.
    pub nranks: usize,
    /// Slab range along z: elements with `ez0 <= ez < ez1`.
    pub ez0: usize,
    /// Exclusive slab end.
    pub ez1: usize,
    /// Local fluid elements (global coordinates, x fastest order).
    pub elems: Vec<[usize; 3]>,
    /// Reference GLL nodes (length N+1), cached for coordinates.
    pub ref_nodes: Vec<f64>,
}

impl LocalMesh {
    /// Partition `spec` into `nranks` z-slabs and take slab `rank`.
    ///
    /// # Panics
    /// Panics when there are fewer z-element layers than ranks.
    pub fn new(spec: Arc<MeshSpec>, rank: usize, nranks: usize) -> Self {
        assert!(
            spec.elems[2] >= nranks,
            "slab partition needs elems_z ({}) >= ranks ({nranks})",
            spec.elems[2]
        );
        let ez0 = rank * spec.elems[2] / nranks;
        let ez1 = (rank + 1) * spec.elems[2] / nranks;
        let mut elems = Vec::new();
        for ez in ez0..ez1 {
            for ey in 0..spec.elems[1] {
                for ex in 0..spec.elems[0] {
                    if !spec.is_solid([ex, ey, ez]) {
                        elems.push([ex, ey, ez]);
                    }
                }
            }
        }
        let (ref_nodes, _) = crate::quadrature::gll(spec.order);
        Self {
            spec,
            rank,
            nranks,
            ez0,
            ez1,
            elems,
            ref_nodes,
        }
    }

    /// Field layout for this rank.
    pub fn layout(&self) -> FieldLayout {
        FieldLayout::new(self.spec.order, self.elems.len())
    }

    /// Physical coordinates of local node (i,j,k) in local element `le`.
    pub fn node_coords(&self, le: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        let e = self.elems[le];
        let h = self.spec.h();
        let local = [i, j, k];
        let mut x = [0.0; 3];
        for d in 0..3 {
            x[d] = (e[d] as f64 + (self.ref_nodes[local[d]] + 1.0) * 0.5) * h[d];
        }
        x
    }

    /// Global node id of a local node.
    pub fn gid(&self, le: usize, i: usize, j: usize, k: usize) -> u64 {
        self.spec.gid(self.elems[le], i, j, k)
    }

    /// Evaluate `f` at every local node into an element-major field.
    pub fn eval_nodal(&self, f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        let l = self.layout();
        let mut out = vec![0.0; l.n_nodes()];
        for le in 0..self.elems.len() {
            for k in 0..l.np {
                for j in 0..l.np {
                    for i in 0..l.np {
                        out[l.idx(le, i, j, k)] = f(self.node_coords(le, i, j, k));
                    }
                }
            }
        }
        out
    }

    /// Does any element adjacent to local node (i,j,k) of `le` lie outside
    /// the fluid (i.e. is solid)? Used for no-slip on pebble surfaces. The
    /// search walks ranges of offsets: it allocates nothing.
    pub fn node_touches_solid(&self, le: usize, i: usize, j: usize, k: usize) -> bool {
        let e = self.elems[le];
        let n = self.spec.order;
        // Offsets of elements sharing this node along one axis: the one
        // below on the element's low face, the one above on its high face.
        let offsets = |c: usize| -isize::from(c == 0)..=isize::from(c == n);
        for dz in offsets(k) {
            for dy in offsets(j) {
                for dx in offsets(i) {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    if let Some(ne) = self.neighbor_elem(e, [dx, dy, dz]) {
                        if self.spec.is_solid(ne) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Neighboring global element coordinate with periodic wrapping;
    /// `None` outside the domain on non-periodic axes.
    pub fn neighbor_elem(&self, e: [usize; 3], offset: [isize; 3]) -> Option<[usize; 3]> {
        let mut out = [0usize; 3];
        for d in 0..3 {
            let ne = e[d] as isize + offset[d];
            let n = self.spec.elems[d] as isize;
            out[d] = if self.spec.periodic[d] {
                (ne.rem_euclid(n)) as usize
            } else if (0..n).contains(&ne) {
                ne as usize
            } else {
                return None;
            };
        }
        Some(out)
    }

    /// Build the Dirichlet mask (1 = free, 0 = constrained) and boundary
    /// value field for one scalar field under `bc`. The two fields are its
    /// only allocations: nothing is allocated per node.
    pub fn dirichlet_mask(&self, bc: &BcSet) -> (Vec<f64>, Vec<f64>) {
        let l = self.layout();
        let n = self.spec.order;
        let mut mask = vec![1.0; l.n_nodes()];
        let mut values = vec![0.0; l.n_nodes()];
        for le in 0..self.elems.len() {
            let e = self.elems[le];
            for k in 0..l.np {
                for j in 0..l.np {
                    for i in 0..l.np {
                        let idx = l.idx(le, i, j, k);
                        let local = [i, j, k];
                        // Box faces on non-periodic axes.
                        for d in 0..3 {
                            if self.spec.periodic[d] {
                                continue;
                            }
                            let on_min = e[d] == 0 && local[d] == 0;
                            let on_max = e[d] == self.spec.elems[d] - 1 && local[d] == n;
                            let face = if on_min {
                                Some(2 * d)
                            } else if on_max {
                                Some(2 * d + 1)
                            } else {
                                None
                            };
                            if let Some(f) = face {
                                if let Bc::Dirichlet(v) = bc.faces[f] {
                                    mask[idx] = 0.0;
                                    values[idx] = v;
                                }
                            }
                        }
                        // Pebble surfaces.
                        if let Bc::Dirichlet(v) = bc.solid_surface {
                            if self.node_touches_solid(le, i, j, k) {
                                mask[idx] = 0.0;
                                values[idx] = v;
                            }
                        }
                    }
                }
            }
        }
        (mask, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(order: usize, elems: [usize; 3], periodic: [bool; 3]) -> Arc<MeshSpec> {
        Arc::new(MeshSpec::box_mesh(
            order,
            elems,
            [1.0, 1.0, elems[2] as f64 / elems[0] as f64],
            periodic,
        ))
    }

    #[test]
    fn slab_partition_covers_all_elements_once() {
        let s = spec(2, [2, 3, 8], [false; 3]);
        let mut seen = [0; 2 * 3 * 8];
        for rank in 0..4 {
            let m = LocalMesh::new(Arc::clone(&s), rank, 4);
            assert_eq!(m.ez1 - m.ez0, 2);
            for e in &m.elems {
                seen[s.elem_index(*e)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn uneven_slabs_still_cover() {
        let s = spec(2, [1, 1, 7], [false; 3]);
        let total: usize = (0..3)
            .map(|r| LocalMesh::new(Arc::clone(&s), r, 3).elems.len())
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    #[should_panic(expected = "slab partition")]
    fn too_many_ranks_rejected() {
        let s = spec(2, [1, 1, 2], [false; 3]);
        LocalMesh::new(s, 0, 3);
    }

    #[test]
    fn gids_are_shared_across_element_faces() {
        let s = spec(3, [2, 2, 2], [false; 3]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        // Node (N,j,k) of element (0,·,·) == node (0,j,k) of element (1,·,·).
        let e0 = m.elems.iter().position(|e| *e == [0, 0, 0]).unwrap();
        let e1 = m.elems.iter().position(|e| *e == [1, 0, 0]).unwrap();
        assert_eq!(m.gid(e0, 3, 1, 2), m.gid(e1, 0, 1, 2));
        assert_ne!(m.gid(e0, 2, 1, 2), m.gid(e1, 0, 1, 2));
    }

    #[test]
    fn periodic_axis_wraps_gids() {
        let s = spec(2, [3, 1, 2], [true, false, false]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        let left = m.elems.iter().position(|e| *e == [0, 0, 0]).unwrap();
        let right = m.elems.iter().position(|e| *e == [2, 0, 0]).unwrap();
        // Right face of the last element wraps to the left face of the first.
        assert_eq!(m.gid(right, 2, 0, 0), m.gid(left, 0, 0, 0));
    }

    #[test]
    fn node_coords_span_the_domain() {
        let s = spec(4, [2, 2, 2], [false; 3]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        let l = m.layout();
        let mut min = [f64::INFINITY; 3];
        let mut max = [f64::NEG_INFINITY; 3];
        for le in 0..m.elems.len() {
            for k in 0..l.np {
                for j in 0..l.np {
                    for i in 0..l.np {
                        let x = m.node_coords(le, i, j, k);
                        for d in 0..3 {
                            min[d] = min[d].min(x[d]);
                            max[d] = max[d].max(x[d]);
                        }
                    }
                }
            }
        }
        for d in 0..3 {
            assert!((min[d]).abs() < 1e-14);
            assert!((max[d] - s.lengths[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn solid_sphere_masks_elements_and_excludes_them() {
        let mut raw = MeshSpec::box_mesh(2, [4, 4, 4], [1.0, 1.0, 1.0], [false; 3]);
        raw.add_solid_sphere([0.5, 0.5, 0.5], 0.3);
        assert!(raw.is_solid([1, 1, 1]) || raw.is_solid([2, 2, 2]));
        let n_solid = raw.solid.iter().filter(|&&s| s).count();
        assert!(n_solid > 0 && n_solid < 64);
        let s = Arc::new(raw);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        assert_eq!(m.elems.len(), 64 - n_solid);
        assert_eq!(s.n_fluid_elems(), 64 - n_solid);
    }

    #[test]
    fn nodes_adjacent_to_solid_are_detected() {
        let mut raw = MeshSpec::box_mesh(2, [3, 3, 3], [1.0, 1.0, 1.0], [false; 3]);
        let center = raw.elem_index([1, 1, 1]);
        raw.solid[center] = true;
        let m = LocalMesh::new(Arc::new(raw), 0, 1);
        // Element (0,1,1) is left of the solid: its i=N face touches it.
        let le = m.elems.iter().position(|e| *e == [0, 1, 1]).unwrap();
        assert!(m.node_touches_solid(le, 2, 1, 1));
        assert!(!m.node_touches_solid(le, 0, 1, 1));
    }

    #[test]
    fn dirichlet_mask_marks_faces_and_values() {
        let s = spec(2, [2, 2, 2], [false; 3]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        let bc = BcSet {
            faces: [
                Bc::Neumann,
                Bc::Neumann,
                Bc::Neumann,
                Bc::Neumann,
                Bc::Dirichlet(3.0), // z-min (inflow)
                Bc::Neumann,
            ],
            solid_surface: Bc::Neumann,
        };
        let (mask, values) = m.dirichlet_mask(&bc);
        let l = m.layout();
        let mut constrained = 0;
        for le in 0..m.elems.len() {
            for k in 0..l.np {
                for j in 0..l.np {
                    for i in 0..l.np {
                        let idx = l.idx(le, i, j, k);
                        let z = m.node_coords(le, i, j, k)[2];
                        if z.abs() < 1e-14 {
                            assert_eq!(mask[idx], 0.0);
                            assert_eq!(values[idx], 3.0);
                            constrained += 1;
                        } else {
                            assert_eq!(mask[idx], 1.0, "le={le} i={i} j={j} k={k}");
                        }
                    }
                }
            }
        }
        // 4 bottom elements × 3×3 bottom-face nodes.
        assert_eq!(constrained, 4 * 9);
    }

    #[test]
    fn periodic_axis_has_no_face_dirichlet() {
        let s = spec(2, [2, 2, 2], [true, true, true]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        let (mask, _) = m.dirichlet_mask(&BcSet::all_dirichlet_zero());
        assert!(mask.iter().all(|&v| v == 1.0));
    }

    /// The solid search as first written, three `Vec`s of offsets per
    /// node: the oracle for [`LocalMesh::node_touches_solid`].
    fn touches_solid_reference(m: &LocalMesh, le: usize, i: usize, j: usize, k: usize) -> bool {
        let e = m.elems[le];
        let n = m.spec.order;
        let local = [i, j, k];
        let mut axis_offsets: [Vec<isize>; 3] = [vec![0], vec![0], vec![0]];
        for d in 0..3 {
            if local[d] == 0 {
                axis_offsets[d].push(-1);
            }
            if local[d] == n {
                axis_offsets[d].push(1);
            }
        }
        for &dz in &axis_offsets[2] {
            for &dy in &axis_offsets[1] {
                for &dx in &axis_offsets[0] {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    if let Some(ne) = m.neighbor_elem(e, [dx, dy, dz]) {
                        if m.spec.is_solid(ne) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// `dirichlet_mask` through the oracle: the box faces as
    /// `dirichlet_mask` sets them with the solid surface left natural (the
    /// solid search never runs), then the reference search over them, the
    /// order in which `dirichlet_mask` visits the two at a node.
    fn dirichlet_mask_reference(m: &LocalMesh, bc: &BcSet) -> (Vec<f64>, Vec<f64>) {
        let faces_only = BcSet {
            solid_surface: Bc::Neumann,
            ..*bc
        };
        let (mut mask, mut values) = m.dirichlet_mask(&faces_only);
        if let Bc::Dirichlet(v) = bc.solid_surface {
            let l = m.layout();
            for idx in 0..l.n_nodes() {
                let (le, i, j, k) = l.coords(idx);
                if touches_solid_reference(m, le, i, j, k) {
                    mask[idx] = 0.0;
                    values[idx] = v;
                }
            }
        }
        (mask, values)
    }

    #[test]
    fn dirichlet_mask_matches_the_allocating_search_bit_for_bit() {
        use crate::cases::{pb146, rbc, CaseParams};
        let mut meshes: Vec<(String, Arc<MeshSpec>, Vec<BcSet>)> = Vec::new();
        for order in [1, 2, 3, 7] {
            let mut params = CaseParams::pb146_default();
            (params.order, params.elems) = (order, [4, 4, 8]);
            let case = pb146(&params, 146);
            assert!(case.spec.solid.contains(&true), "pb146 has solids");
            let mut bcs = case.bcs.velocity.to_vec();
            bcs.push(case.bcs.pressure);
            meshes.push((format!("pb146 order {order}"), case.spec, bcs));
        }
        // A plane of solid elements at x-max, touching the y and z faces.
        let mut plane = MeshSpec::box_mesh(2, [3, 3, 3], [1.0; 3], [false; 3]);
        for (ey, ez) in (0..3).flat_map(|ey| (0..3).map(move |ez| (ey, ez))) {
            let at = plane.elem_index([2, ey, ez]);
            plane.solid[at] = true;
        }
        meshes.push(("solid plane".into(), Arc::new(plane), Vec::new()));
        let mut params = CaseParams::rbc_default();
        (params.order, params.elems) = (3, [3, 3, 4]);
        let case = rbc(&params, 1e5, 0.7);
        let mut bcs = case.bcs.velocity.to_vec();
        bcs.push(case.bcs.pressure);
        bcs.extend(case.config.temperature.map(|t| t.bc));
        meshes.push(("rbc".into(), case.spec, bcs));
        let single = MeshSpec::box_mesh(3, [1, 1, 1], [1.0; 3], [true, true, false]);
        meshes.push(("single element".into(), Arc::new(single), Vec::new()));
        // One element across, periodic in x and y, its middle element solid.
        let mut column = MeshSpec::box_mesh(3, [1, 1, 3], [1.0; 3], [true, true, false]);
        column.solid[1] = true;
        meshes.push(("periodic column".into(), Arc::new(column), Vec::new()));

        // Every mesh also gets distinct face values under a Dirichlet solid
        // surface, the no-slip box, and a Dirichlet solid surface alone.
        let mut distinct = BcSet::all_dirichlet_zero();
        for (f, face) in distinct.faces.iter_mut().enumerate() {
            *face = Bc::Dirichlet(1.0 + f as f64);
        }
        distinct.solid_surface = Bc::Dirichlet(-1.5);
        let solid_only = BcSet {
            faces: [Bc::Neumann; 6],
            solid_surface: Bc::Dirichlet(-0.0),
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut solid_nodes = 0;
        for (name, spec, mut bcs) in meshes {
            bcs.extend([distinct, BcSet::all_dirichlet_zero(), solid_only]);
            for ranks in 1..=spec.elems[2].min(3) {
                for rank in 0..ranks {
                    let m = LocalMesh::new(Arc::clone(&spec), rank, ranks);
                    for bc in &bcs {
                        let (mask, values) = m.dirichlet_mask(bc);
                        let (want_mask, want_values) = dirichlet_mask_reference(&m, bc);
                        let what = format!("{name}, rank {rank} of {ranks}, {bc:?}");
                        assert_eq!(bits(&mask), bits(&want_mask), "{what}: mask");
                        assert_eq!(bits(&values), bits(&want_values), "{what}: lift");
                        if *bc == solid_only {
                            solid_nodes += mask.iter().filter(|&&v| v == 0.0).count();
                        }
                    }
                }
            }
        }
        assert!(solid_nodes > 0, "no mesh exercised the solid search");
    }

    #[test]
    fn eval_nodal_matches_coordinates() {
        let s = spec(3, [2, 1, 2], [false; 3]);
        let m = LocalMesh::new(Arc::clone(&s), 0, 1);
        let f = m.eval_nodal(|x| x[0] + 10.0 * x[2]);
        let l = m.layout();
        let le = 0;
        let x = m.node_coords(le, 1, 2, 3);
        assert!((f[l.idx(le, 1, 2, 3)] - (x[0] + 10.0 * x[2])).abs() < 1e-13);
    }
}
