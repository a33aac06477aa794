//! Timestamped claims and the construction of the `SC` and `D` matrices.
//!
//! The paper's estimator consumes two `n × m` binary matrices:
//!
//! * `SC[i, j] = 1` — source `i` asserted `C_j` (at least once);
//! * `D[i, j] = 1` — the *(potential)* claim of `i` on `C_j` is dependent.
//!
//! For a cell where `i` actually claimed `j`, the paper's rule applies
//! directly: the claim is dependent iff an ancestor of `i` asserted `C_j`
//! strictly earlier. The paper leaves `D` undefined on non-claim cells, yet
//! the EM M-step (Eqs. 10–13) partitions *non-claims* by `D` as well; we
//! complete the definition in the natural way — a non-claim cell is
//! dependent iff an ancestor asserted `C_j` at any time (had `i` spoken, it
//! would have spoken after hearing its ancestor). This choice is recorded
//! in `DESIGN.md` §4.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

use socsense_matrix::{SparseBinaryMatrix, SparseBinaryMatrixBuilder};

use crate::follow::FollowerGraph;

/// One act of sensing: `source` asserted `assertion` at `time`.
///
/// Times are opaque monotone ticks; only their relative order matters.
/// Repeated claims by the same source on the same assertion collapse to
/// the earliest occurrence.
///
/// Serialized as the array `[source, assertion, time]`, not as an object
/// with named keys: claim logs are most of what the durable serving tier
/// writes and decodes (WAL records and checkpoints), and an array holds
/// no key strings. Decoding refuses an array of another length, an
/// out-of-range id, and the object form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimedClaim {
    /// Claiming source id.
    pub source: u32,
    /// Asserted statement id.
    pub assertion: u32,
    /// Claim timestamp (monotone tick).
    pub time: u64,
}

impl TimedClaim {
    /// Creates a claim record.
    pub fn new(source: u32, assertion: u32, time: u64) -> Self {
        Self {
            source,
            assertion,
            time,
        }
    }
}

impl Serialize for TimedClaim {
    fn serialize_value(&self) -> Value {
        (self.source, self.assertion, self.time).serialize_value()
    }
}

impl Deserialize for TimedClaim {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let (source, assertion, time) = <(u32, u32, u64)>::deserialize_value(value)?;
        Ok(Self::new(source, assertion, time))
    }
}

/// Builds the source-claim matrix `SC` and dependency matrix `D` from a
/// timestamped claim log and the follow relation.
///
/// Returns `(sc, d)`, both `n × m`. The dependency rule is described in
/// the module docs; ties in time do **not** create dependencies (a claim
/// is dependent only on *strictly earlier* ancestor claims, matching the
/// paper's walk-through where simultaneous tweets stay independent).
///
/// # Panics
///
/// Panics if a claim references `source >= n` or `assertion >= m`.
pub fn build_matrices(
    n: u32,
    m: u32,
    claims: &[TimedClaim],
    graph: &FollowerGraph,
) -> (SparseBinaryMatrix, SparseBinaryMatrix) {
    // Earliest claim time per (source, assertion).
    // BTreeMap: the builder sorts entries anyway, but iterating in key
    // order below keeps this function free of hash-order escapes.
    let mut first_claim: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for c in claims {
        assert!(
            c.source < n && c.assertion < m,
            "claim ({}, {}) out of bounds for {}x{}",
            c.source,
            c.assertion,
            n,
            m
        );
        first_claim
            .entry((c.source, c.assertion))
            .and_modify(|t| *t = (*t).min(c.time))
            .or_insert(c.time);
    }

    // Earliest ancestor claim time per (follower, assertion).
    let mut anc_time: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (&(s, a), &t) in &first_claim {
        for &f in graph.followers(s) {
            anc_time
                .entry((f, a))
                .and_modify(|tt| *tt = (*tt).min(t))
                .or_insert(t);
        }
    }

    matrices_from_maps(n, m, &first_claim, &anc_time)
}

/// Materialises `(SC, D)` from the earliest-claim and earliest-ancestor
/// maps. Shared by [`build_matrices`] and [`ClaimLogIndex::build`] so the
/// batch and incremental paths cannot drift: identical maps produce
/// identical (structurally `==`) matrices.
fn matrices_from_maps(
    n: u32,
    m: u32,
    first_claim: &BTreeMap<(u32, u32), u64>,
    anc_time: &BTreeMap<(u32, u32), u64>,
) -> (SparseBinaryMatrix, SparseBinaryMatrix) {
    let mut sc_builder = SparseBinaryMatrixBuilder::with_capacity(n, m, first_claim.len());
    for &(s, a) in first_claim.keys() {
        sc_builder.insert(s, a);
    }
    let sc = sc_builder.build();

    let mut d_builder = SparseBinaryMatrixBuilder::with_capacity(n, m, anc_time.len());
    for (&(f, a), &t_anc) in anc_time {
        match first_claim.get(&(f, a)) {
            // Claim cell: dependent only if an ancestor spoke strictly first.
            Some(&t_own) if t_anc >= t_own => {}
            _ => d_builder.insert(f, a),
        }
    }
    (sc, d_builder.build())
}

/// The `(SC, D)` membership of one `(source, assertion)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellState {
    /// `SC[i, j] = 1` — the source has claimed the assertion.
    pub claimed: bool,
    /// `D[i, j] = 1` — the (actual or would-be) claim is dependent.
    pub dependent: bool,
}

/// One cell whose `SC`/`D` membership changed during an
/// [`ingest`](ClaimLogIndex::ingest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellChange {
    /// Row (source id) of the changed cell.
    pub source: u32,
    /// Column (assertion id) of the changed cell.
    pub assertion: u32,
    /// Membership before the batch.
    pub before: CellState,
    /// Membership after the batch.
    pub after: CellState,
}

/// Incrementally maintained claim-log index: the earliest-own-claim and
/// earliest-ancestor-claim maps behind [`build_matrices`], kept up to
/// date batch by batch.
///
/// Both maps are *min-merges* over the log, so their contents depend only
/// on the set of claims seen — never on how the log was split into
/// batches. [`build`](Self::build) therefore produces matrices
/// structurally equal to a fresh [`build_matrices`] over the whole log,
/// at `O(nnz)` instead of `O(claims)` cost, and
/// [`ingest`](Self::ingest) reports exactly which cells changed `SC`/`D`
/// membership — the seed of a delta refit's touched set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimLogIndex {
    n: u32,
    m: u32,
    first_claim: BTreeMap<(u32, u32), u64>,
    anc_time: BTreeMap<(u32, u32), u64>,
}

impl ClaimLogIndex {
    /// Creates an empty index over `n` sources and `m` assertions.
    pub fn new(n: u32, m: u32) -> Self {
        Self {
            n,
            m,
            first_claim: BTreeMap::new(),
            anc_time: BTreeMap::new(),
        }
    }

    /// Number of sources.
    pub fn source_count(&self) -> u32 {
        self.n
    }

    /// Number of assertions.
    pub fn assertion_count(&self) -> u32 {
        self.m
    }

    /// Current `SC`/`D` membership of cell `(i, j)`.
    pub fn cell_state(&self, i: u32, j: u32) -> CellState {
        let own = self.first_claim.get(&(i, j));
        let dependent = match (self.anc_time.get(&(i, j)), own) {
            // Claim cell: dependent only if an ancestor spoke strictly
            // first (build_matrices' rule; ties stay independent).
            (Some(&t_anc), Some(&t_own)) => t_anc < t_own,
            (Some(_), None) => true,
            (None, _) => false,
        };
        CellState {
            claimed: own.is_some(),
            dependent,
        }
    }

    /// Folds a batch of claims into the index, returning every cell whose
    /// `SC`/`D` membership changed (deduplicated, in `(source,
    /// assertion)` order).
    ///
    /// # Panics
    ///
    /// As [`merge`](Self::merge).
    pub fn ingest(&mut self, graph: &FollowerGraph, batch: &[TimedClaim]) -> Vec<CellChange> {
        // Pass 1: snapshot the prior state of every cell this batch can
        // touch — the claim cells themselves plus each claimant's
        // follower cells (the only rows of `anc_time` a claim reaches).
        let mut before: BTreeMap<(u32, u32), CellState> = BTreeMap::new();
        for c in batch {
            before
                .entry((c.source, c.assertion))
                .or_insert_with(|| self.cell_state(c.source, c.assertion));
            for &f in graph.followers(c.source) {
                before
                    .entry((f, c.assertion))
                    .or_insert_with(|| self.cell_state(f, c.assertion));
            }
        }

        // Pass 2: min-merge the batch into both maps.
        self.merge(graph, batch);

        // Pass 3: report the cells whose membership actually changed.
        before
            .into_iter()
            .filter_map(|((i, j), prior)| {
                let after = self.cell_state(i, j);
                (after != prior).then_some(CellChange {
                    source: i,
                    assertion: j,
                    before: prior,
                    after,
                })
            })
            .collect()
    }

    /// Folds a batch of claims into the index without reporting which
    /// cells changed: [`ingest`](Self::ingest)'s min-merge alone, for
    /// callers that have no reader for the changes.
    ///
    /// # Panics
    ///
    /// Panics if a claim references `source >= n` or `assertion >= m` —
    /// the same contract as [`build_matrices`] — before any claim is
    /// merged. Validate first when the batch must be rejected without a
    /// panic.
    pub fn merge(&mut self, graph: &FollowerGraph, batch: &[TimedClaim]) {
        for c in batch {
            assert!(
                c.source < self.n && c.assertion < self.m,
                "claim ({}, {}) out of bounds for {}x{}",
                c.source,
                c.assertion,
                self.n,
                self.m
            );
        }
        for c in batch {
            self.first_claim
                .entry((c.source, c.assertion))
                .and_modify(|t| *t = (*t).min(c.time))
                .or_insert(c.time);
            for &f in graph.followers(c.source) {
                self.anc_time
                    .entry((f, c.assertion))
                    .and_modify(|t| *t = (*t).min(c.time))
                    .or_insert(c.time);
            }
        }
    }

    /// Materialises the current `(SC, D)` pair.
    ///
    /// Structurally equal to [`build_matrices`] over the full log the
    /// index has ingested, but `O(nnz)` — it never re-walks the claims.
    pub fn build(&self) -> (SparseBinaryMatrix, SparseBinaryMatrix) {
        matrices_from_maps(self.n, self.m, &self.first_claim, &self.anc_time)
    }
}

/// The sorted set of assertions claimed by any ancestor of `source`.
///
/// This is the "Dependent Assertion" candidate set of the paper's Sec. V-A
/// generator, and also `D`'s support restricted to row `source` before the
/// who-spoke-first refinement.
pub fn dependent_assertions(source: u32, claims: &[TimedClaim], graph: &FollowerGraph) -> Vec<u32> {
    let mut out: Vec<u32> = claims
        .iter()
        .filter(|c| graph.follows(source, c.source))
        .map(|c| c.assertion)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1: John(0) follows Sally(1); Heather(2) independent.
    fn fig1() -> (FollowerGraph, Vec<TimedClaim>) {
        let mut g = FollowerGraph::new(3);
        g.add_follow(0, 1);
        let claims = vec![
            TimedClaim::new(1, 0, 1), // Sally -> C1 @ t1
            TimedClaim::new(2, 1, 1), // Heather -> C2 @ t1
            TimedClaim::new(0, 0, 2), // John -> C1 @ t2 (dependent)
            TimedClaim::new(0, 1, 3), // John -> C2 @ t3 (independent)
        ];
        (g, claims)
    }

    #[test]
    fn fig1_walkthrough_matches_paper() {
        let (g, claims) = fig1();
        let (sc, d) = build_matrices(3, 2, &claims, &g);
        // SC: John claims both, Sally C1, Heather C2.
        assert!(sc.contains(0, 0) && sc.contains(0, 1));
        assert!(sc.contains(1, 0) && !sc.contains(1, 1));
        assert!(!sc.contains(2, 0) && sc.contains(2, 1));
        // D: only John's repeat of Sally's claim is dependent.
        assert!(d.contains(0, 0));
        assert!(!d.contains(0, 1));
        assert!(!d.contains(1, 0));
        assert!(!d.contains(2, 1));
    }

    #[test]
    fn simultaneous_claims_stay_independent() {
        let mut g = FollowerGraph::new(2);
        g.add_follow(0, 1);
        let claims = vec![TimedClaim::new(1, 0, 5), TimedClaim::new(0, 0, 5)];
        let (_, d) = build_matrices(2, 1, &claims, &g);
        assert!(!d.contains(0, 0), "tie in time must not be dependent");
    }

    #[test]
    fn non_claim_cell_is_dependent_when_ancestor_spoke() {
        let mut g = FollowerGraph::new(2);
        g.add_follow(0, 1);
        let claims = vec![TimedClaim::new(1, 0, 1)]; // only the ancestor speaks
        let (sc, d) = build_matrices(2, 1, &claims, &g);
        assert!(!sc.contains(0, 0));
        assert!(d.contains(0, 0), "silent follower cell is a dependent cell");
    }

    #[test]
    fn repeated_claims_collapse_to_earliest() {
        let mut g = FollowerGraph::new(2);
        g.add_follow(0, 1);
        // Follower speaks at t=1 then again at t=10; ancestor at t=5.
        let claims = vec![
            TimedClaim::new(0, 0, 10),
            TimedClaim::new(0, 0, 1),
            TimedClaim::new(1, 0, 5),
        ];
        let (sc, d) = build_matrices(2, 1, &claims, &g);
        assert_eq!(sc.nnz(), 2);
        // Earliest own claim (t=1) precedes the ancestor's (t=5): independent.
        assert!(!d.contains(0, 0));
    }

    #[test]
    fn multiple_ancestors_earliest_wins() {
        let mut g = FollowerGraph::new(3);
        g.add_follow(0, 1);
        g.add_follow(0, 2);
        let claims = vec![
            TimedClaim::new(1, 0, 8),
            TimedClaim::new(2, 0, 2),
            TimedClaim::new(0, 0, 5),
        ];
        let (_, d) = build_matrices(3, 1, &claims, &g);
        // Ancestor 2 spoke at t=2 < 5, so dependent even though ancestor 1 was later.
        assert!(d.contains(0, 0));
    }

    #[test]
    fn dependent_assertions_lists_ancestor_claims() {
        let (g, claims) = fig1();
        assert_eq!(dependent_assertions(0, &claims, &g), vec![0]);
        assert!(dependent_assertions(1, &claims, &g).is_empty());
        assert!(dependent_assertions(2, &claims, &g).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_claim_panics() {
        let g = FollowerGraph::new(1);
        build_matrices(1, 1, &[TimedClaim::new(0, 7, 0)], &g);
    }

    #[test]
    fn empty_claim_log_yields_empty_matrices() {
        let g = FollowerGraph::new(3);
        let (sc, d) = build_matrices(3, 2, &[], &g);
        assert_eq!(sc.nnz(), 0);
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn index_matches_batch_build_on_fig1() {
        let (g, claims) = fig1();
        let mut index = ClaimLogIndex::new(3, 2);
        // Ingest claim by claim — the least favourable batching.
        for c in &claims {
            index.ingest(&g, std::slice::from_ref(c));
        }
        let built = index.build();
        assert_eq!(built.0.nnz(), 4);
        assert_eq!(built, build_matrices(3, 2, &claims, &g));
    }

    #[test]
    fn index_is_batching_invariant() {
        // Min-merges are order-independent, so any split of the log into
        // batches — including time-travelling late arrivals — must land
        // on the same maps and therefore the same matrices.
        let mut g = FollowerGraph::new(4);
        g.add_follow(0, 1);
        g.add_follow(2, 1);
        g.add_follow(3, 2);
        let claims = vec![
            TimedClaim::new(1, 0, 4),
            TimedClaim::new(0, 0, 6),
            TimedClaim::new(2, 0, 2), // earlier than its ancestor: independent
            TimedClaim::new(1, 1, 9),
            TimedClaim::new(3, 1, 10),
            TimedClaim::new(1, 0, 1), // late-arriving earlier duplicate
        ];
        let fresh = build_matrices(4, 2, &claims, &g);
        for split in 0..=claims.len() {
            let mut index = ClaimLogIndex::new(4, 2);
            index.ingest(&g, &claims[..split]);
            index.ingest(&g, &claims[split..]);
            assert_eq!(index.build(), fresh, "split at {split}");
            // `merge` is `ingest` without the change report: same maps.
            let mut merged = ClaimLogIndex::new(4, 2);
            merged.merge(&g, &claims[..split]);
            merged.ingest(&g, &claims[split..]);
            assert_eq!(merged, index, "split at {split}");
        }
    }

    #[test]
    fn ingest_reports_membership_changes_only() {
        let mut g = FollowerGraph::new(2);
        g.add_follow(0, 1);
        let mut index = ClaimLogIndex::new(2, 1);
        // Ancestor speaks: its own cell joins SC; the silent follower
        // cell becomes dependent.
        let changes = index.ingest(&g, &[TimedClaim::new(1, 0, 5)]);
        assert_eq!(
            changes,
            vec![
                CellChange {
                    source: 0,
                    assertion: 0,
                    before: CellState {
                        claimed: false,
                        dependent: false
                    },
                    after: CellState {
                        claimed: false,
                        dependent: true
                    },
                },
                CellChange {
                    source: 1,
                    assertion: 0,
                    before: CellState {
                        claimed: false,
                        dependent: false
                    },
                    after: CellState {
                        claimed: true,
                        dependent: false
                    },
                },
            ]
        );
        // A later repeat by the ancestor changes nothing.
        assert!(index.ingest(&g, &[TimedClaim::new(1, 0, 9)]).is_empty());
        // The follower then speaks (after the ancestor): claimed and
        // still dependent.
        let changes = index.ingest(&g, &[TimedClaim::new(0, 0, 7)]);
        assert_eq!(changes.len(), 1);
        assert_eq!(
            changes[0].after,
            CellState {
                claimed: true,
                dependent: true
            }
        );
        // A late earlier copy of the follower's claim flips the cell
        // back to independent.
        let changes = index.ingest(&g, &[TimedClaim::new(0, 0, 2)]);
        assert_eq!(changes.len(), 1);
        assert_eq!(
            changes[0].after,
            CellState {
                claimed: true,
                dependent: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_ingest_panics_out_of_bounds() {
        let g = FollowerGraph::new(1);
        let mut index = ClaimLogIndex::new(1, 1);
        index.ingest(&g, &[TimedClaim::new(0, 7, 0)]);
    }

    #[test]
    fn index_merge_panics_out_of_bounds_before_merging_any_claim() {
        let g = FollowerGraph::new(1);
        let mut index = ClaimLogIndex::new(1, 1);
        let batch = [TimedClaim::new(0, 0, 1), TimedClaim::new(0, 7, 0)];
        let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.merge(&g, &batch);
        }));
        assert!(merged.is_err());
        assert_eq!(index, ClaimLogIndex::new(1, 1));
    }

    #[test]
    fn timed_claim_persists_as_a_three_element_array() {
        let claim = TimedClaim::new(3, 7, u64::MAX);
        let value = claim.serialize_value();
        assert_eq!(value, (3u32, 7u32, u64::MAX).serialize_value());
        assert_eq!(TimedClaim::deserialize_value(&value), Ok(claim));
        // A wrong length, an id past `u32`, and the object form are refused.
        for bad in [
            (3u32, 7u32).serialize_value(),
            (3u32, 7u32, 1u64, 0u64).serialize_value(),
            (u64::from(u32::MAX) + 1, 7u32, 1u64).serialize_value(),
            Value::Object(
                [("source", 3u64), ("assertion", 7), ("time", 1)]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.serialize_value()))
                    .collect(),
            ),
        ] {
            assert!(TimedClaim::deserialize_value(&bad).is_err(), "{bad:?}");
        }
    }
}
