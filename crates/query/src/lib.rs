//! Conjunctive queries: representation, parsing, homomorphisms, cores and
//! colorings (Sections 2, 3.1 and 5.3 of the paper).
//!
//! * [`cq`] — the [`ConjunctiveQuery`] type: atoms over variables and
//!   constants, free (output) variables, the associated hypergraph, the
//!   re-quantification `Q[S̄]` of Section 6 and the `simple(Q)` renaming of
//!   Section 5.4;
//! * [`parser`] — a datalog-style text format for queries and databases;
//! * [`hom`] — a backtracking homomorphism solver between query structures
//!   (and onto databases), the engine behind cores and brute-force counting;
//! * [`canonical`] — the canonical database `D_Q` of a query and atom
//!   evaluation against databases (query ↔ relational bridge);
//! * [`core_of`] — exact cores by greedy atom removal, plus the
//!   polynomial-time core computation of Lemma 4.3 via pairwise consistency;
//! * [`mod@color`] — `color(Q)` and `fullcolor(Q)` (Sections 3.1, 5.3);
//! * [`starsize`] — the quantified star size of Durand–Mengel (Appendix A);
//! * [`mod@fingerprint`] — canonical, renaming/order-invariant query
//!   fingerprints (the serving layer's plan-cache key).

pub mod canonical;
pub mod color;
pub mod core_of;
pub mod cq;
pub mod fingerprint;
pub mod hom;
pub mod parser;
pub mod starsize;

pub use color::{color, fullcolor, is_coloring_atom, uncolor};
pub use core_of::{core_exact, core_via_consistency, is_hom_equivalent};
pub use cq::{Atom, ConjunctiveQuery, Term, Var};
pub use fingerprint::{canonical_text, fingerprint, QueryFingerprint};
pub use hom::{enumerate_homomorphisms_to_db, find_homomorphism, has_homomorphism};
pub use parser::{parse_database, parse_program, parse_query, ParseError};
pub use starsize::quantified_star_size;
