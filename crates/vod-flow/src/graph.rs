//! Residual-graph record contract.
//!
//! The solvers and the Lemma-1 shape analysis (`dinic`, `hopcroft_karp`,
//! `bitset`, `shard`) read [`ArenaEdge`] records directly instead of going
//! through the [`FlowArena`] accessors: a forward edge is recognised by a
//! non-zero `original_cap`, and its residual twin lives at `e ^ 1` with
//! `original_cap == 0`, pointing back at the source. These tests pin that
//! record layout; the arena's own tests check the same behaviour through
//! the accessors.

#[cfg(test)]
mod tests {
    use crate::{ArenaEdge, FlowArena};

    #[test]
    fn add_edge_creates_residual_twin() {
        let mut g = FlowArena::new();
        g.clear(2);
        let e = g.add_edge(0, 1, 5);
        assert_eq!(e, 0);
        assert_eq!(
            g.edge(e),
            ArenaEdge {
                to: 1,
                cap: 5,
                original_cap: 5
            }
        );
        assert_eq!(
            g.edge(e ^ 1),
            ArenaEdge {
                to: 0,
                cap: 0,
                original_cap: 0
            }
        );
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn push_moves_capacity_to_twin() {
        let mut g = FlowArena::new();
        g.clear(2);
        let e = g.add_edge(0, 1, 5);
        let before = (g.edge(e), g.edge(e ^ 1));
        g.push(e, 3);
        assert_eq!(g.edge(e).cap, 2);
        assert_eq!(g.edge(e ^ 1).cap, 3);
        // Pushes never touch original_cap, so a twin still reads as a twin.
        assert_eq!(g.edge(e).original_cap, 5);
        assert_eq!(g.edge(e ^ 1).original_cap, 0);
        g.reset_flow();
        assert_eq!((g.edge(e), g.edge(e ^ 1)), before);
    }

    #[test]
    fn residual_reachability() {
        let mut g = FlowArena::new();
        g.clear(4);
        let e01 = g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        // A zero-capacity forward edge is never a residual path.
        g.add_edge(0, 3, 0);
        // Saturate 0→1: nodes 1 and 2 become unreachable from 0.
        g.push(e01, 1);
        assert_eq!(g.residual_reachable(0), vec![true, false, false, false]);
        // From node 1, 2 is reachable forward and 0 through the twin of 0→1.
        assert_eq!(g.residual_reachable(1), vec![true, true, true, false]);
        // Every edge record leaving the reached set is saturated.
        let reach = g.residual_reachable(0);
        for v in (0..g.node_count()).filter(|&v| reach[v]) {
            for idx in g.edges_from(v) {
                let rec = g.edge(idx);
                assert!(reach[rec.to as usize] || rec.cap == 0, "edge {idx}");
            }
        }
    }

    #[test]
    fn net_outflow_conservation() {
        // Diamond 0 → {1, 2} → 3, two units per path, then one unit on the
        // 0→1→3 path cancelled by pushing on the twins.
        let mut g = FlowArena::new();
        g.clear(4);
        let a = g.add_edge(0, 1, 2);
        let b = g.add_edge(0, 2, 2);
        let c = g.add_edge(1, 3, 2);
        let d = g.add_edge(2, 3, 2);
        for e in [a, b, c, d] {
            g.push(e, 2);
        }
        g.push(c ^ 1, 1);
        g.push(a ^ 1, 1);
        assert_eq!(g.net_outflow(0), 3);
        assert_eq!(g.net_outflow(1), 0);
        assert_eq!(g.net_outflow(2), 0);
        assert_eq!(g.net_outflow(3), -3);
        // The twin records carry exactly the flow on their forward edges.
        for e in [a, b, c, d] {
            assert_eq!(g.edge(e ^ 1).cap, g.flow_on(e));
        }
    }
}
