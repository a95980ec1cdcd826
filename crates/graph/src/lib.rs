//! # tie-graph
//!
//! Graph substrate for the TIMER reproduction ("Topology-induced Enhancement
//! of Mappings", ICPP 2018).
//!
//! The crate provides the data structures and algorithms every other crate in
//! the workspace builds on:
//!
//! * [`Graph`] — an undirected, weighted graph in compressed sparse row (CSR)
//!   form with vertex and edge weights,
//! * [`GraphBuilder`] — an incremental builder that deduplicates parallel
//!   edges and accumulates their weights,
//! * [`generators`] — seeded synthetic-network generators (Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, R-MAT, grids, trees, …) used to stand in
//!   for the paper's complex-network benchmark set,
//! * [`traversal`] — BFS distances, connected components,
//! * [`quotient`] — block contraction (communication-graph construction),
//! * [`bucket_queue`] — the gain bucket priority queue used by the
//!   Fiduccia–Mattheyses refinement in `tie-partition`,
//! * [`union_find`] — a disjoint-set forest,
//! * [`io`] — METIS-format and edge-list readers/writers.
//!
//! All vertex identifiers are `u32` ([`NodeId`]); all weights are `u64`
//! ([`Weight`]). Gains (signed weight differences) are `i64`.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bucket_queue;
pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod quotient;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod union_find;

pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId, Weight};
pub use quotient::{quotient_graph, QuotientGraph};
pub use subgraph::{induced_subgraph, Subgraph};
pub use traversal::{bfs_distances, connected_components, is_connected};
pub use union_find::UnionFind;

/// Signed weight type used for gains and deltas of objective functions.
pub type Gain = i64;

/// Infinity marker for unreachable BFS distances.
pub const UNREACHABLE: u32 = u32::MAX;
