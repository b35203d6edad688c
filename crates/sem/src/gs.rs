//! Gather–scatter: direct stiffness summation across duplicated SEM nodes.
//!
//! NekRS delegates this to `gslib`; here the same operation is built from
//! the structured global numbering. `sum` makes every copy of a shared node
//! hold the sum of all copies (across elements *and* ranks); `average`
//! divides by multiplicity, projecting an arbitrary element-major field
//! onto the continuous subspace.
//!
//! With slab partitioning each rank exchanges only with its z-neighbors
//! (wrapping on periodic meshes), so the communication pattern is two
//! messages per direction per sum — charged to the virtual clock through
//! the ordinary `Comm` send/recv path, like GPU-direct MPI in NekRS.

use crate::mesh::LocalMesh;
use commsim::Comm;
use std::cell::Cell;

const TAG_UP: u64 = 0x6773_0001; // from below-rank to above-rank
const TAG_DOWN: u64 = 0x6773_0002; // from above-rank to below-rank

struct Exchange {
    peer: usize,
    send_tag: u64,
    recv_tag: u64,
    /// Local node indices, grouped by gid (ascending), flattened.
    nodes: Vec<u32>,
    /// Group boundaries into `nodes` (len = n_groups + 1).
    starts: Vec<u32>,
}

/// Accumulated comm/compute overlap accounting for the split-phase
/// exchange: virtual seconds of network latency hidden behind interior
/// gather work vs. still exposed as recv wait, over `sums` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GsOverlap {
    /// Network latency covered by interior compute while in flight.
    pub hidden_s: f64,
    /// Recv wait the interior phase could not cover.
    pub exposed_s: f64,
    /// Number of `sum` calls accumulated.
    pub sums: u64,
}

impl GsOverlap {
    /// Fraction of exchange latency hidden behind interior compute
    /// (0 when nothing was exchanged).
    pub fn ratio(&self) -> f64 {
        let total = self.hidden_s + self.exposed_s;
        if total > 0.0 {
            self.hidden_s / total
        } else {
            0.0
        }
    }
}

/// The assembled-topology handle for one rank's mesh.
pub struct GatherScatter {
    n_nodes: usize,
    /// Local node indices sorted by gid.
    order: Vec<u32>,
    /// Segment boundaries into `order`; each segment is one global node.
    seg_starts: Vec<u32>,
    exchanges: Vec<Exchange>,
    /// 1 / global multiplicity per local node.
    mult_inv: Vec<f64>,
    /// Shared segments (`len ≥ 2`) touching at least one exchanged node —
    /// these must be gathered before the exchange payload is read.
    boundary_segs: Vec<u32>,
    /// Shared segments with no exchanged node — free to gather while the
    /// exchange is in flight.
    interior_segs: Vec<u32>,
    /// Count of distinct local nodes that appear in an exchange.
    n_boundary_nodes: usize,
    overlap: Cell<GsOverlap>,
}

impl GatherScatter {
    /// Build the topology for `mesh`, communicating with z-neighbors to
    /// establish multiplicities.
    pub fn new(mesh: &LocalMesh, comm: &mut Comm) -> Self {
        // Multiplicity via a sum of ones. Every rank with any exchange must
        // participate even if its own field were empty.
        let mut gs = Self::with_mult_inv(mesh, Vec::new());
        let mut ones = vec![1.0; gs.n_nodes];
        gs.sum(comm, &mut ones);
        gs.mult_inv = ones.iter().map(|&m| 1.0 / m).collect();
        gs
    }

    /// The topology for `mesh` when its 1/multiplicity weights are already
    /// known — a p-coarsening of an assembled mesh reads them off the fine
    /// level ([`crate::mg`]) — so nothing is communicated.
    pub fn with_mult_inv(mesh: &LocalMesh, mult_inv: Vec<f64>) -> Self {
        let l = mesh.layout();
        let n_nodes = l.n_nodes();

        // Intra-rank groups.
        let mut gids = vec![0u64; n_nodes];
        for le in 0..mesh.elems.len() {
            for k in 0..l.np {
                for j in 0..l.np {
                    for i in 0..l.np {
                        gids[l.idx(le, i, j, k)] = mesh.gid(le, i, j, k);
                    }
                }
            }
        }
        let mut order: Vec<u32> = (0..n_nodes as u32).collect();
        order.sort_by_key(|&i| gids[i as usize]);
        let mut seg_starts = vec![0u32];
        for w in 1..n_nodes {
            if gids[order[w] as usize] != gids[order[w - 1] as usize] {
                seg_starts.push(w as u32);
            }
        }
        seg_starts.push(n_nodes as u32);

        // Inter-rank interface exchanges.
        let mut exchanges = Vec::new();
        let periodic_z = mesh.spec.periodic[2];
        if mesh.nranks > 1 {
            // Top interface (this rank below, peer above).
            let has_up = mesh.ez1 < mesh.spec.elems[2] || periodic_z;
            if has_up {
                let peer = (mesh.rank + 1) % mesh.nranks;
                if let Some(ex) = build_exchange(mesh, &gids, true, peer, TAG_UP, TAG_DOWN) {
                    exchanges.push(ex);
                }
            }
            // Bottom interface (this rank above, peer below).
            let has_down = mesh.ez0 > 0 || periodic_z;
            if has_down {
                let peer = (mesh.rank + mesh.nranks - 1) % mesh.nranks;
                if let Some(ex) = build_exchange(mesh, &gids, false, peer, TAG_DOWN, TAG_UP) {
                    exchanges.push(ex);
                }
            }
        }

        // Boundary/interior classification: a node is "boundary" when it
        // is exchanged with a neighbor rank; a gid segment is boundary
        // when it contains one. Interior segments can be gathered while
        // the exchange is in flight (comm/compute overlap).
        let mut is_boundary = vec![false; n_nodes];
        for ex in &exchanges {
            for &i in &ex.nodes {
                is_boundary[i as usize] = true;
            }
        }
        let n_boundary_nodes = is_boundary.iter().filter(|&&b| b).count();
        let mut boundary_segs = Vec::new();
        let mut interior_segs = Vec::new();
        for s in 0..seg_starts.len() - 1 {
            let seg = &order[seg_starts[s] as usize..seg_starts[s + 1] as usize];
            if seg.len() < 2 {
                continue;
            }
            if seg.iter().any(|&i| is_boundary[i as usize]) {
                boundary_segs.push(s as u32);
            } else {
                interior_segs.push(s as u32);
            }
        }

        Self {
            n_nodes,
            order,
            seg_starts,
            exchanges,
            mult_inv,
            boundary_segs,
            interior_segs,
            n_boundary_nodes,
            overlap: Cell::new(GsOverlap::default()),
        }
    }

    /// Number of local (duplicated) nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// 1/multiplicity weights — also the quadrature de-duplication weights
    /// used by assembled inner products.
    pub fn mult_inv(&self) -> &[f64] {
        &self.mult_inv
    }

    /// Number of distinct local nodes shared with a neighbor rank.
    pub fn n_boundary_nodes(&self) -> usize {
        self.n_boundary_nodes
    }

    /// Overlap accounting accumulated since construction (or the last
    /// [`Self::take_overlap`]).
    pub fn overlap(&self) -> GsOverlap {
        self.overlap.get()
    }

    /// Drain the overlap accounting, resetting it to zero.
    pub fn take_overlap(&self) -> GsOverlap {
        self.overlap.replace(GsOverlap::default())
    }

    /// Direct stiffness summation: after this call, every copy of a shared
    /// node holds the sum over all copies on all ranks.
    ///
    /// Split-phase: boundary segments (those feeding the neighbor
    /// exchange) are gathered first and the sends posted immediately, so
    /// the wire latency runs concurrently with the interior gather —
    /// interior segments by definition contain no exchanged node, so
    /// their order relative to the sends cannot change any value and the
    /// result stays bitwise identical to the unsplit sweep. The roofline
    /// charge is split proportionally between the phases (it is linear,
    /// so total virtual compute time is unchanged); how much of the
    /// exchange latency the interior phase hid is accumulated in
    /// [`Self::overlap`].
    pub fn sum(&self, comm: &mut Comm, field: &mut [f64]) {
        assert_eq!(field.len(), self.n_nodes, "field/topology size mismatch");
        // Intra-rank gather+scatter is bandwidth-bound: 1 flop + 16 bytes
        // per node, split by boundary fraction across the two phases.
        let (flops, bytes) = (self.n_nodes as f64, (self.n_nodes * 8 * 2) as f64);
        let fb = if self.n_nodes > 0 {
            self.n_boundary_nodes as f64 / self.n_nodes as f64
        } else {
            0.0
        };
        comm.compute_gpu(flops * fb, bytes * fb);
        self.gather_segs(&self.boundary_segs, field);
        // Post the exchange; latency now runs on the virtual wire.
        let wire_s: f64 = self
            .exchanges
            .iter()
            .map(|ex| {
                comm.machine()
                    .network
                    .p2p_time(((ex.starts.len() - 1) * 8) as u64)
            })
            .sum();
        for ex in &self.exchanges {
            let payload: Vec<f64> = (0..ex.starts.len() - 1)
                .map(|g| field[ex.nodes[ex.starts[g] as usize] as usize])
                .collect();
            comm.send_f64s(ex.peer, ex.send_tag, payload);
        }
        // Interior gather overlaps the in-flight exchange.
        comm.compute_gpu(flops * (1.0 - fb), bytes * (1.0 - fb));
        self.gather_segs(&self.interior_segs, field);
        let t_ready = comm.now();
        // Complete the boundary: wait for neighbors and accumulate.
        for ex in &self.exchanges {
            let incoming: Vec<f64> = comm.recv(ex.peer, ex.recv_tag);
            assert_eq!(
                incoming.len(),
                ex.starts.len() - 1,
                "interface size mismatch with rank {}",
                ex.peer
            );
            for g in 0..incoming.len() {
                for &i in &ex.nodes[ex.starts[g] as usize..ex.starts[g + 1] as usize] {
                    field[i as usize] += incoming[g];
                }
            }
        }
        let exposed = (comm.now() - t_ready).max(0.0);
        // Latency the interior phase managed to cover: whatever of the
        // wire time did not resurface as recv wait (peers may add their
        // own send-side delay, so `exposed` can exceed `wire_s`).
        let hidden = (wire_s - exposed).clamp(0.0, wire_s);
        let mut o = self.overlap.get();
        o.hidden_s += hidden;
        o.exposed_s += exposed;
        o.sums += 1;
        self.overlap.set(o);
    }

    fn gather_segs(&self, segs: &[u32], field: &mut [f64]) {
        for &s in segs {
            let s = s as usize;
            let seg = &self.order[self.seg_starts[s] as usize..self.seg_starts[s + 1] as usize];
            let total: f64 = seg.iter().map(|&i| field[i as usize]).sum();
            for &i in seg {
                field[i as usize] = total;
            }
        }
    }

    /// Sum followed by division by multiplicity: the continuous projection.
    pub fn average(&self, comm: &mut Comm, field: &mut [f64]) {
        self.sum(comm, field);
        comm.compute_gpu(self.n_nodes as f64, (self.n_nodes * 8 * 2) as f64);
        for (v, w) in field.iter_mut().zip(&self.mult_inv) {
            *v *= w;
        }
    }
}

/// Collect this rank's nodes on its top (`top = true`) or bottom interface
/// plane that the neighbor also owns, grouped by gid ascending.
fn build_exchange(
    mesh: &LocalMesh,
    gids: &[u64],
    top: bool,
    peer: usize,
    send_tag: u64,
    recv_tag: u64,
) -> Option<Exchange> {
    let l = mesh.layout();
    let n = mesh.spec.order;
    let (ez_layer, k_face, dz) = if top {
        (mesh.ez1 - 1, n, 1isize)
    } else {
        (mesh.ez0, 0, -1isize)
    };
    let mut entries: Vec<(u64, u32)> = Vec::new();
    for (le, e) in mesh.elems.iter().enumerate() {
        if e[2] != ez_layer {
            continue;
        }
        for j in 0..l.np {
            for i in 0..l.np {
                // The neighbor rank owns this node iff any fluid element on
                // the far side of the plane shares it. Offsets fit in stack
                // arrays: a node sits on at most one x- and one y-boundary.
                let mut dxs = [0isize; 2];
                let mut n_dx = 1;
                if i == 0 {
                    dxs[n_dx] = -1;
                    n_dx += 1;
                }
                if i == n {
                    dxs[n_dx] = 1;
                    n_dx += 1;
                }
                let mut dys = [0isize; 2];
                let mut n_dy = 1;
                if j == 0 {
                    dys[n_dy] = -1;
                    n_dy += 1;
                }
                if j == n {
                    dys[n_dy] = 1;
                    n_dy += 1;
                }
                let shared = dxs[..n_dx].iter().any(|&dx| {
                    dys[..n_dy].iter().any(|&dy| {
                        mesh.neighbor_elem(*e, [dx, dy, dz])
                            .is_some_and(|ne| !mesh.spec.is_solid(ne))
                    })
                });
                if shared {
                    let idx = l.idx(le, i, j, k_face) as u32;
                    entries.push((gids[idx as usize], idx));
                }
            }
        }
    }
    if entries.is_empty() {
        return None;
    }
    entries.sort();
    let mut nodes = Vec::with_capacity(entries.len());
    let mut starts = vec![0u32];
    for (w, (gid, idx)) in entries.iter().enumerate() {
        if w > 0 && *gid != entries[w - 1].0 {
            starts.push(w as u32);
        }
        nodes.push(*idx);
    }
    starts.push(entries.len() as u32);
    Some(Exchange {
        peer,
        send_tag,
        recv_tag,
        nodes,
        starts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshSpec;
    use commsim::{run_ranks, MachineModel};
    use std::sync::Arc;

    fn with_mesh<R: Send + 'static>(
        ranks: usize,
        order: usize,
        elems: [usize; 3],
        periodic: [bool; 3],
        f: impl Fn(&LocalMesh, &GatherScatter, &mut Comm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(order, elems, [1.0; 3], periodic));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            f(&mesh, &gs, comm)
        })
    }

    #[test]
    fn multiplicity_single_rank_2x2x2() {
        let res = with_mesh(1, 2, [2, 2, 2], [false; 3], |mesh, gs, comm| {
            let mut ones = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut ones);
            let l = mesh.layout();
            // Center of the mesh: shared by all 8 elements.
            let le = mesh.elems.iter().position(|e| *e == [0, 0, 0]).unwrap();
            let center = ones[l.idx(le, 2, 2, 2)];
            // A face-interior node between two elements.
            let face = ones[l.idx(le, 2, 1, 1)];
            // A node strictly inside one element.
            let interior = ones[l.idx(le, 1, 1, 1)];
            (center, face, interior)
        });
        assert_eq!(res[0], (8.0, 2.0, 1.0));
    }

    #[test]
    fn multiplicity_across_two_ranks() {
        let res = with_mesh(2, 2, [1, 1, 2], [false; 3], |mesh, gs, comm| {
            let mut ones = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut ones);
            let l = mesh.layout();
            // Interface plane nodes (k = N on rank 0, k = 0 on rank 1).
            let k_face = if comm.rank() == 0 { 2 } else { 0 };
            let k_free = if comm.rank() == 0 { 0 } else { 2 };
            (ones[l.idx(0, 1, 1, k_face)], ones[l.idx(0, 1, 1, k_free)])
        });
        for r in res {
            assert_eq!(r, (2.0, 1.0));
        }
    }

    #[test]
    fn periodic_z_wraps_across_ranks() {
        let res = with_mesh(2, 2, [1, 1, 2], [false, false, true], |mesh, gs, comm| {
            let mut ones = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut ones);
            let l = mesh.layout();
            // With periodic z both k-faces are interfaces now.
            let _ = comm.rank();
            (
                ones[l.idx(0, 1, 1, 0)],
                ones[l.idx(0, 1, 1, 2)],
                ones[l.idx(0, 1, 1, 1)],
            )
        });
        for r in res {
            assert_eq!(r, (2.0, 2.0, 1.0));
        }
    }

    #[test]
    fn average_preserves_continuous_fields() {
        // A nodal evaluation of a smooth function is continuous: identical
        // values at duplicated nodes, so average() must be the identity.
        for ranks in [1usize, 3] {
            let res = with_mesh(ranks, 3, [2, 2, 3], [false; 3], |mesh, gs, comm| {
                let f = mesh.eval_nodal(|x| x[0] + 2.0 * x[1] * x[2]);
                let mut g = f.clone();
                gs.average(comm, &mut g);
                f.iter()
                    .zip(&g)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            });
            for err in res {
                assert!(err < 1e-12, "ranks={ranks}: {err}");
            }
        }
    }

    #[test]
    fn sum_is_globally_consistent_for_random_fields() {
        // After sum, the value at a gid must agree across ranks. Verify via
        // the global linear functional Σ mult_inv ⊙ summed == Σ original.
        let res = with_mesh(3, 2, [2, 2, 3], [false; 3], |mesh, gs, comm| {
            let mut field = mesh.eval_nodal(|x| (31.7 * x[0] + 7.3 * x[1] + 3.1 * x[2]).sin());
            let local_total: f64 = field.iter().sum();
            let global_total = comm.allreduce(local_total, commsim::ReduceOp::Sum);
            gs.sum(comm, &mut field);
            let weighted: f64 = field.iter().zip(gs.mult_inv()).map(|(v, w)| v * w).sum();
            let global_weighted = comm.allreduce(weighted, commsim::ReduceOp::Sum);
            (global_total, global_weighted)
        });
        for (a, b) in res {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn solid_elements_break_connectivity() {
        // A solid element in the middle of a 1×1×3 column (3 ranks) means
        // ranks 0 and 2 have no interface with rank 1 at all.
        let res = run_ranks(3, MachineModel::test_tiny(), |comm| {
            let mut raw = MeshSpec::box_mesh(2, [1, 1, 3], [1.0; 3], [false; 3]);
            let mid = raw.elem_index([0, 0, 1]);
            raw.solid[mid] = true;
            let mesh = LocalMesh::new(Arc::new(raw), comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            if mesh.elems.is_empty() {
                return -1.0;
            }
            let mut ones = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut ones);
            ones.iter().cloned().fold(0.0, f64::max)
        });
        // Rank 1 holds the solid element: no fluid elements at all.
        assert_eq!(res[1], -1.0);
        // Ranks 0 and 2: all nodes have multiplicity 1 (no neighbors).
        assert_eq!(res[0], 1.0);
        assert_eq!(res[2], 1.0);
    }

    #[test]
    fn classification_single_rank_has_no_boundary() {
        let res = with_mesh(1, 2, [2, 2, 2], [false; 3], |_mesh, gs, _comm| {
            gs.n_boundary_nodes()
        });
        assert_eq!(res[0], 0, "single rank exchanges nothing");
    }

    #[test]
    fn classification_multi_rank_counts_the_interface_plane() {
        // 1×1×4 column over 2 ranks: each rank holds 2 elements and shares
        // one plane of (N+1)² nodes with its neighbor.
        let res = with_mesh(2, 2, [1, 1, 4], [false; 3], |mesh, gs, _comm| {
            (gs.n_boundary_nodes(), mesh.layout().np)
        });
        for (nb, np) in res {
            assert_eq!(nb, np * np);
        }
    }

    #[test]
    fn classification_periodic_wrap_exchanges_both_faces() {
        // Periodic z with one element per rank: both k-faces of every
        // element are inter-rank interfaces.
        let res = with_mesh(2, 2, [1, 1, 2], [false, false, true], |mesh, gs, _comm| {
            (gs.n_boundary_nodes(), mesh.layout().np)
        });
        for (nb, np) in res {
            assert_eq!(nb, 2 * np * np, "both faces exchanged");
        }
    }

    #[test]
    fn classification_severed_column_has_no_boundary() {
        // Solid mid-element severs the column: no rank exchanges, even
        // though the rank count > 1.
        let res = run_ranks(3, MachineModel::test_tiny(), |comm| {
            let mut raw = MeshSpec::box_mesh(2, [1, 1, 3], [1.0; 3], [false; 3]);
            let mid = raw.elem_index([0, 0, 1]);
            raw.solid[mid] = true;
            let mesh = LocalMesh::new(Arc::new(raw), comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            (mesh.elems.len(), gs.n_boundary_nodes())
        });
        assert_eq!(res[1], (0, 0), "solid rank holds no fluid elements");
        for &(ne, nb) in [&res[0], &res[2]] {
            assert_eq!(ne, 1);
            assert_eq!(nb, 0, "severed column exchanges nothing");
        }
    }

    #[test]
    fn overlap_accounting_accumulates_and_drains() {
        let res = with_mesh(2, 2, [1, 1, 2], [false; 3], |mesh, gs, comm| {
            gs.take_overlap(); // discard the construction-time sum
            let mut f = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut f);
            gs.sum(comm, &mut f);
            let o = gs.take_overlap();
            let drained = gs.overlap();
            (o, drained)
        });
        for (o, drained) in res {
            assert_eq!(o.sums, 2);
            assert!(o.hidden_s >= 0.0 && o.exposed_s >= 0.0, "{o:?}");
            assert!((0.0..=1.0).contains(&o.ratio()), "{o:?}");
            assert_eq!(drained, GsOverlap::default(), "take must reset");
        }
    }

    #[test]
    fn sum_twice_multiplies_by_multiplicity() {
        let res = with_mesh(2, 2, [1, 1, 2], [false; 3], |mesh, gs, comm| {
            let mut f = vec![1.0; mesh.layout().n_nodes()];
            gs.sum(comm, &mut f);
            let mut g = f.clone();
            gs.sum(comm, &mut g);
            // At an interface node: first sum gives 2, second gives 2+2=4.
            let l = mesh.layout();
            let k_face = if comm.rank() == 0 { 2 } else { 0 };
            (f[l.idx(0, 0, 0, k_face)], g[l.idx(0, 0, 0, k_face)])
        });
        for r in res {
            assert_eq!(r, (2.0, 4.0));
        }
    }
}
