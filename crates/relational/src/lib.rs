//! An in-memory relational engine for conjunctive-query counting.
//!
//! This crate is the data-side substrate of the paper: databases are finite
//! relational structures (Section 2), and every counting algorithm
//! manipulates *sets of substitutions* with the relational algebra of
//! Section 2 (⋈, ⋉, π, σ). The pieces:
//!
//! * [`Value`] / [`Interner`] — interned constants;
//! * [`Relation`] — a positional relation (set of tuples of a fixed arity);
//! * [`Database`] — named relations over a shared interner;
//! * [`Bindings`] — a set of substitutions over a sorted list of columns
//!   (variables), with a hash join-project, hash semijoin (also in place),
//!   projection and selection;
//! * [`consistency`] — the pairwise-consistency fixpoint used by local
//!   consistency arguments (Lemma 4.3, Theorem 3.7) and the join-tree full
//!   reducer (upward + downward semijoin passes, which on an acyclic schema
//!   achieve global consistency);
//! * [`degree`] — the degree statistics `deg_D(X, r)` and per-vertex degree
//!   `deg_D(F, v)` of Definition 6.1, the engine of hybrid decompositions;
//! * [`fxhash`] — a tiny non-cryptographic hasher; joins and fixpoints are
//!   hash-dominated and SipHash would be the bottleneck;
//! * [`store`] — the immutable mmap-able page format behind O(mmap)
//!   startup: relations freeze to sorted pages + persisted dedup index,
//!   thaw lazily on mutation, and share regions copy-on-write;
//! * [`wcoj`] — a leapfrog worst-case-optimal multiway join over the same
//!   sorted order, the planner's kernel for cyclic bags.
//!
//! Columns are opaque `u32` ids; the query crate maps variables onto them.

pub mod algebra;
pub mod consistency;
pub mod database;
pub mod degree;
pub mod fxhash;
pub mod keys;
pub mod relation;
pub mod store;
pub mod value;
pub mod wcoj;

pub use algebra::{Bindings, ColTerm};
pub use database::{Database, MutationError};
pub use fxhash::{FxHashMap, FxHashSet};
pub use relation::Relation;
pub use store::{LoadedStore, StoreError};
pub use value::{Interner, Value};
pub use wcoj::{wcoj_join, WcojInput};

/// A column identifier (the relational engine's view of a query variable).
pub type Col = u32;

/// A tuple of interned values.
pub type Tuple = Box<[Value]>;
