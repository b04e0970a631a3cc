//! # hka-anonymity
//!
//! The privacy-evaluation framework of Section 5: service-request
//! linkability, LT-consistency, and **historical k-anonymity**.
//!
//! * [`Pseudonym`] / [`MsgId`] / [`SpRequest`] — the service model's
//!   request shape: "Service Providers (SP) receive from TS service
//!   requests of the form (msgid, UserPseudonym, Area, TimeInterval,
//!   Data)" (Section 3).
//! * [`Linker`] (Definition 4) — "linkability is represented by a partial
//!   function Link() from R × R to \[0,1\]", with the symmetry and
//!   reflexivity properties the paper requires. [`PseudonymLinker`] links
//!   requests sharing a pseudonym; [`TrackerLinker`] implements the
//!   multi-target-tracking association of the paper's ref. \[12\]
//!   (max-speed feasibility gating plus proximity likelihood);
//!   [`CompositeLinker`] takes the best attack.
//! * [`link_components`] (Definition 5) — maximal Θ-link-connected subsets
//!   as connected components of the threshold graph.
//! * [`lt_consistent`] (Definition 7) — whether a PHL is location-time-
//!   consistent with a set of generalized requests.
//! * [`historical_k_anonymity`] (Definition 8) — whether k−1 *other*
//!   users' PHLs are LT-consistent with a user's request set, with the
//!   witness set for auditing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsu;
mod hkanon;
mod linker;
mod request;

pub use dsu::DisjointSets;
pub use hkanon::{anonymity_set, historical_k_anonymity, lt_consistent, HkOutcome};
pub use linker::{CompositeLinker, Linker, PseudonymLinker, TrackerLinker, TrackerParams};
pub use request::{MsgId, Pseudonym, ServiceId, SpRequest};

/// Maximal Θ-link-connected subsets of `requests` (Definition 5), as index
/// sets into the input slice — the connected components of the graph with
/// an edge wherever `Link(r_i, r_j) ≥ θ`.
///
/// Components are returned sorted by their smallest index; each component
/// is sorted ascending.
pub fn link_components<L: Linker + ?Sized>(
    requests: &[SpRequest],
    linker: &L,
    theta: f64,
) -> Vec<Vec<usize>> {
    let mut dsu = DisjointSets::new(requests.len());
    for i in 0..requests.len() {
        for j in (i + 1)..requests.len() {
            if linker.link(&requests[i], &requests[j]) >= theta {
                dsu.union(i, j);
            }
        }
    }
    dsu.components()
}

/// Definition 5, verbatim: whether the subset `R′` of `requests`
/// (given by indices) "is link-connected with likelihood Θ", i.e. every
/// pair of its members is joined by a chain `r_{i1}, …, r_{ik}` **drawn
/// from R′ itself** with `Link(r_il, r_il+1) ≥ Θ` along the chain.
///
/// Note this is strictly stronger than the pair lying in the same
/// component of the *full* request set: the definition requires the
/// connecting chain to stay inside R′. The vacuous cases (empty and
/// singleton subsets) are link-connected.
pub fn is_link_connected<L: Linker + ?Sized>(
    requests: &[SpRequest],
    subset: &[usize],
    linker: &L,
    theta: f64,
) -> bool {
    if subset.len() <= 1 {
        return true;
    }
    let mut dsu = DisjointSets::new(subset.len());
    for a in 0..subset.len() {
        for b in (a + 1)..subset.len() {
            if linker.link(&requests[subset[a]], &requests[subset[b]]) >= theta {
                dsu.union(a, b);
            }
        }
    }
    (1..subset.len()).all(|b| dsu.connected(0, b))
}
