//! Structural decomposition solvers: tree projections, (generalized)
//! hypertree decompositions, tree decompositions, weighted (D-optimal)
//! decompositions and fractional edge covers.
//!
//! The central engine ([`tp`]) decides the existence of a *tree projection*
//! of a pair `(H₁, H₂)` (Section 2 of the paper): an acyclic hypergraph `Hₐ`
//! with `H₁ ≤ Hₐ ≤ H₂`. It exploits a classical reduction: `Hₐ` exists iff
//! the primal graph of `H₁` admits a tree decomposition all of whose bags
//! fit inside a hyperedge of `H₂` — hyperedges of `H₁` are cliques of the
//! primal graph, so the clique-containment lemma covers them automatically.
//! The search is the standard component/connector recursion, memoized per
//! component, FPT in `|nodes(H₁)|` exactly as Theorem 3.6 requires.
//!
//! On top of the engine:
//!
//! * [`ghw`] — width-`k` generalized hypertree decompositions (the view set
//!   `V_Q^k` of Section 4: resources are unions of `k` hyperedges), the
//!   exact widths the paper states;
//! * [`hd`] — normal-form hypertree decompositions over the same unions,
//!   the search the planner runs;
//! * [`treedec`] — plain tree decompositions / treewidth (resources are all
//!   node sets of size `k+1`);
//! * [`weighted`] — minimum-cost decompositions for an additive per-vertex
//!   cost, the engine behind D-optimal decompositions (Theorem C.5);
//! * [`fractional`] — fractional edge covers by exact rational simplex and
//!   fractional hypertree width (Remark 4.4);
//! * [`jointree`] — the hypertree type `⟨T, χ, λ⟩` produced by all searches,
//!   with verification of the decomposition conditions.

pub mod fractional;
pub mod ghw;
pub mod hd;
pub mod jointree;
pub mod tp;
pub mod treedec;
pub mod weighted;

pub use fractional::{fractional_edge_cover_number, fractional_hypertree_width_at_most};
pub use ghw::{ghw_at_most, ghw_exact, tree_projection};
pub use hd::{d_optimal_decomposition, hypertree_width_at_most, hypertree_width_exact};
pub use jointree::Hypertree;
pub use tp::{decompose, Candidate};
pub use treedec::{treewidth_at_most, treewidth_exact};
