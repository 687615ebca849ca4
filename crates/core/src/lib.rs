//! Counting answers to conjunctive queries — the paper's algorithms.
//!
//! This crate is the primary contribution of the reproduced paper: exact
//! counting of `|π_free(Q)(Q^D)|` through structural and hybrid
//! decompositions. The algorithm menu (see `DESIGN.md` at the repository
//! root for the per-theorem mapping):
//!
//! * [`brute`] — baseline enumeration (the "straightforward approach");
//! * [`acyclic`] — Yannakakis-style counting for quantifier-free acyclic
//!   instances (the subroutine Theorem 3.7 bottoms out in);
//! * [`ps`] — the Pichler–Skritek `#`-relation algorithm over hypertree
//!   decompositions (Figure 13), with the degree-bounded cost of
//!   Theorem 6.2;
//! * [`sharp`] — `#`-hypertree decompositions (Definitions 1.2/1.4) and
//!   their search (Theorem 3.6);
//! * [`pipeline`] — the counting pipeline of Theorems 3.7/1.3: colored
//!   core → frontier hypergraph → decomposition → consistency → acyclic
//!   count;
//! * [`hybrid`] — `#ᵦ`-hypertree decompositions (Section 6, Theorems
//!   6.6/6.7): promote low-degree existential variables to pseudo-free;
//! * [`durand_mengel`] — the quantified-star-size method (Appendix A) as
//!   the prior-art comparator;
//! * [`planner`] — width analysis and automatic algorithm selection.
//!
//! ```
//! use cqcount_core::prelude::*;
//! let (q, db) = cqcount_query::parse_program(
//!     "e(a, b). e(b, c). e(a, c). ans(X) :- e(X, Y), e(Y, Z).",
//! ).unwrap();
//! let q = q.unwrap();
//! assert_eq!(count_brute_force(&q, &db), 1u64.into()); // only X = a
//! assert_eq!(count_auto(&q, &db), 1u64.into());
//! ```

pub mod acyclic;
pub mod brute;
pub mod budget;
pub mod durand_mengel;
pub mod enumerate;
pub mod error;
pub mod hybrid;
pub mod pipeline;
pub mod planner;
pub mod ps;
pub mod sharp;
pub mod ucq;
pub mod views;
pub mod width_search;

/// Convenience re-exports of the full counting API.
pub mod prelude {
    pub use crate::acyclic::count_acyclic_full;
    pub use crate::brute::{count_brute_force, count_brute_force_budgeted, count_via_full_join};
    pub use crate::budget::Budget;
    pub use crate::durand_mengel::{count_durand_mengel, durand_mengel_width};
    pub use crate::enumerate::{enumerate_answers, for_each_answer, for_each_answer_with};
    pub use crate::error::PlanError;
    pub use crate::hybrid::{
        count_hybrid, hybrid_decomposition, hybrid_decomposition_guided, key_determined_variables,
        HybridDecomposition,
    };
    pub use crate::pipeline::{count_via_sharp_decomposition, count_with_decomposition};
    pub use crate::planner::{
        count_auto, count_prepared, prepare_plan, prepare_plan_budgeted, Plan, PreparedPlan,
        WidthReport,
    };
    pub use crate::ps::{count_pichler_skritek, degree_bound};
    pub use crate::sharp::{
        sharp_decomposition_wrt_views, sharp_hypertree_decomposition, sharp_hypertree_width,
        SharpDecomposition,
    };
    pub use crate::ucq::{count_union, UnionQuery};
    pub use crate::views::{count_with_view_set, ViewSet};
    pub use crate::width_search::WidthSearch;
}

pub use prelude::*;
