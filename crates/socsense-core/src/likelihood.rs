//! Log-likelihood kernels (Eqs. 4, 5, 7 and 9 of the paper).
//!
//! The naive evaluation of `P(SC_j | C_j; D, θ)` multiplies one Bernoulli
//! factor per source per assertion — `O(n·m)` per EM iteration, which is
//! prohibitive at Twitter scale. The kernels here instead precompute, for
//! each hypothesis `C_j ∈ {0, 1}`, the log-probability of the *all-silent,
//! all-independent* pattern and then apply sparse corrections:
//!
//! 1. for every dependent cell (column of `D`), switch the silent factor
//!    from `1 - a_i` to `1 - f_i` (resp. `1 - b_i` → `1 - g_i`);
//! 2. for every claim (column of `SC`), switch the silent factor to the
//!    claiming one (`a_i`, `f_i`, `b_i`, or `g_i` according to `D`).
//!
//! Total cost per pass is `O(nnz(SC) + nnz(D))`. [`LikelihoodTables`]
//! holds three `[C = 1, C = 0]` correction pairs per source in one flat
//! array, and a column is the list of *slots* into it that its cells
//! read: its `D` cells first, then its claimants, each an independent or
//! a dependent claim. One accumulation adds a slot list to the base sums,
//! and [`LikelihoodTables::column`] turns the resulting pair of
//! log-likelihoods into everything a pass over the assertions needs at
//! once: the posterior (Eq. 9), the log-odds, and the column's term of
//! the observed-data log-likelihood (Eq. 7).
//!
//! Callers that hold the sorted `SC` and `D` columns (the functions
//! below and the delta engine) pass them to `column`, which merges them
//! into slots on the fly, over tables with one row per source. EM-Ext
//! builds a [`ClaimLayout`] once per fit instead: a partition of the
//! sources and one of the columns into classes whose members EM cannot
//! tell apart, found by ordered colour refinement. Its tables hold one
//! row per source class, its passes evaluate one column per column class
//! from a slot list over those rows, and its M-step gathers each source
//! class's sums from lists of column classes, without a merge.
//!
//! A table build takes each logarithm once per row, and fewer where a
//! row's rate has the same bits as the previous row's: it reuses that
//! row's `ln x` and `ln(1−x)`. The base sums add every source's
//! `ln(1−a)` and `ln(1−b)` in source order, reading its row, so tables
//! over classes have the bits of tables over sources. Built with a
//! [`ShrinkagePrior`], the tables also sum, the same way, the log-prior
//! that turns Eq. 7 into the objective the shrinkage M-step ascends,
//! which EM-Ext's warm runs use to safeguard their extrapolations.

use socsense_matrix::logprob::{log_sum_exp2, safe_ln, safe_ln_1m};
use socsense_matrix::parallel::{par_map_collect, par_map_reduce, Parallelism};

use crate::data::ClaimData;
use crate::error::SenseError;
use crate::model::{SourceParams, Theta};

/// The slot of row `r`'s independent-claim pair, `ln a − ln(1−a)` and
/// `ln b − ln(1−b)`. Row `r`'s three pairs sit at `3r + kind`.
const CLAIM: usize = 0;
/// The slot of a dependent-cell pair, `ln(1−f) − ln(1−a)` and
/// `ln(1−g) − ln(1−b)`.
const DEP: usize = 1;
/// The slot of a dependent-claim pair, `ln f − ln(1−f)` and
/// `ln g − ln(1−g)`.
const DEP_CLAIM: usize = 2;

/// Not computed: a left-out term holds NaN, so reading one poisons the
/// result instead of passing unnoticed.
const LEFT_OUT: [f64; 2] = [f64::NAN; 2];

/// Each of the sorted `items`, with whether the sorted `marks` hold it
/// too, by a linear merge of the two lists.
fn marked<'a>(items: &'a [u32], marks: &'a [u32]) -> impl Iterator<Item = (u32, bool)> + 'a {
    let mut marks = marks.iter().peekable();
    items.iter().map(move |&x| {
        while marks.peek().is_some_and(|&&m| m < x) {
            marks.next();
        }
        (x, marks.peek() == Some(&&x))
    })
}

/// The slots a column reads, given its sorted claimants and `D` rows, in
/// the order the kernel adds them: every `D` cell, then every claimant
/// as an independent or a dependent claim.
fn merged_slots<'a>(claimants: &'a [u32], dep_rows: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
    let claims = marked(claimants, dep_rows)
        .map(|(i, dependent)| 3 * i as usize + if dependent { DEP_CLAIM } else { CLAIM });
    dep_rows.iter().map(|&i| 3 * i as usize + DEP).chain(claims)
}

/// Precomputed per-row log-probability tables for one `θ`.
///
/// A row is a source, or, in tables over EM-Ext's claim layout, a
/// source class. Rebuild after every M-step; construction is `O(n)`. Tables
/// built by [`for_data`](Self::for_data) leave out the terms no cell of
/// that data reads: a source with no claim never needs `ln a`, `ln b`,
/// and one with no dependent cell never needs its four `f`/`g`
/// logarithms.
#[derive(Debug, Clone)]
pub struct LikelihoodTables {
    /// Three correction pairs per row, at the slots `3r + kind`;
    /// left-out pairs hold NaN.
    terms: Vec<[f64; 2]>,
    /// Per row, its `ln(1−a)`, `ln(1−b)` and prior term, which the sums
    /// below add once per source.
    row_sums: Vec<[f64; 3]>,
    /// `Σ_i ln(1-a_i)` — all-silent all-independent pattern under `C = 1`.
    base1: f64,
    /// `Σ_i ln(1-b_i)` — same under `C = 0`.
    base0: f64,
    ln_z: f64,
    ln_1z: f64,
    /// The log-prior of `θ` under the tables' [`ShrinkagePrior`]; `0.0`
    /// when built without one.
    log_prior: f64,
    /// The logarithms the last build took.
    logs: u64,
}

/// The Beta prior behind the M-step's shrinkage: each rate update
/// `(num + s·w)/(den + s)` maximises the expected complete-data
/// log-likelihood plus `s·[w·ln x + (1−w)·ln(1−x)]` for the rate `x`, at
/// the population rate `w` of its kind. Summed over every rate of every
/// source, that term turns Eq. 7 into the objective the M-step ascends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShrinkagePrior {
    /// The pseudo-count `s` ([`EmConfig::smoothing`](crate::EmConfig::smoothing)).
    pub smoothing: f64,
    /// The population rates `w` of `a`, `b`, `f` and `g`.
    pub rates: [f64; 4],
}

impl ShrinkagePrior {
    /// One source's prior term before scaling by `s`: the sum over its
    /// rates `x` (in `a, b, f, g` order) of `ln(1−x) + w·(ln x − ln(1−x))`,
    /// from each rate's `ln(1−x)` and log-odds `ln x − ln(1−x)`.
    pub(crate) fn source_term(&self, ln_1m: [f64; 4], log_odds: [f64; 4]) -> f64 {
        let mut sum = 0.0;
        for ((ln_1m, w), log_odds) in ln_1m.into_iter().zip(self.rates).zip(log_odds) {
            sum += ln_1m + w * log_odds;
        }
        sum
    }
}

/// What one column contributes to a pass over the assertions under the
/// tables' `θ` (see [`LikelihoodTables::column`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColumnFit {
    /// `P(C_j = 1 | SC_j; D, θ)` (Eq. 9); `0.5` when both joint weights
    /// are `−∞`.
    pub posterior: f64,
    /// `ln P(C_j=1|·) − ln P(C_j=0|·)`. Monotone in the posterior but
    /// never saturates, so it remains a usable *ranking* key when
    /// posteriors round to exactly 0.0 or 1.0 in `f64`.
    pub log_odds: f64,
    /// `ln( z·P(SC_j|C_j=1) + (1-z)·P(SC_j|C_j=0) )`, the column's term of
    /// the observed-data log-likelihood (Eq. 7).
    pub log_marginal: f64,
}

/// One rate's two logarithms, kept for the next row while its rate has
/// the same bits. After a map, every source with no claim and no `D`
/// cell shares `a` and `b`, and every source without a `D` cell shares
/// `f` and `g`, so table builds meet long runs of equal rates.
#[derive(Debug, Default)]
struct RateLogs {
    bits: u64,
    ln_1m: Option<f64>,
    ln: Option<f64>,
}

impl RateLogs {
    /// Forgets the kept logarithms unless `x` has the kept rate's bits.
    fn at(&mut self, x: f64) -> &mut Self {
        if x.to_bits() != self.bits {
            *self = Self {
                bits: x.to_bits(),
                ln_1m: None,
                ln: None,
            };
        }
        self
    }

    /// `ln(1−x)`, counting it in `logs` when it is taken.
    fn ln_1m(&mut self, x: f64, logs: &mut u64) -> f64 {
        *self.at(x).ln_1m.get_or_insert_with(|| {
            *logs += 1;
            safe_ln_1m(x)
        })
    }

    /// `ln x`, counting it in `logs` when it is taken.
    fn ln(&mut self, x: f64, logs: &mut u64) -> f64 {
        *self.at(x).ln.get_or_insert_with(|| {
            *logs += 1;
            safe_ln(x)
        })
    }
}

/// One table build's running state: the logarithms kept for the next
/// row, and the logarithms taken.
struct Build<'p> {
    rates: [RateLogs; 4],
    logs: u64,
    prior: Option<&'p ShrinkagePrior>,
}

impl Build<'_> {
    /// Writes the three pairs of the row with rates `s` into `row`: its
    /// claim pair when `claims`, its dependent pairs when `deps`, and the
    /// rest [`LEFT_OUT`]. Returns its `ln(1−a)`, `ln(1−b)` and, with a
    /// prior, its prior term (else `0.0`).
    #[inline(always)]
    fn row(
        &mut self,
        s: &SourceParams,
        row: &mut [[f64; 2]],
        claims: bool,
        deps: bool,
    ) -> [f64; 3] {
        let [a, b, f, g] = &mut self.rates;
        let logs = &mut self.logs;
        let ln_1a = a.ln_1m(s.a, logs);
        let ln_1b = b.ln_1m(s.b, logs);
        let mut claim = LEFT_OUT;
        if claims {
            claim = [a.ln(s.a, logs) - ln_1a, b.ln(s.b, logs) - ln_1b];
        }
        let (mut ln_1fg, mut dep, mut dep_claim) = (LEFT_OUT, LEFT_OUT, LEFT_OUT);
        if deps {
            ln_1fg = [f.ln_1m(s.f, logs), g.ln_1m(s.g, logs)];
            dep = [ln_1fg[0] - ln_1a, ln_1fg[1] - ln_1b];
            dep_claim = [f.ln(s.f, logs) - ln_1fg[0], g.ln(s.g, logs) - ln_1fg[1]];
        }
        let mut prior_term = 0.0;
        if let Some(p) = self.prior {
            prior_term = p.source_term(
                [ln_1a, ln_1b, ln_1fg[0], ln_1fg[1]],
                [claim[0], claim[1], dep_claim[0], dep_claim[1]],
            );
        }
        row[CLAIM] = claim;
        row[DEP] = dep;
        row[DEP_CLAIM] = dep_claim;
        [ln_1a, ln_1b, prior_term]
    }
}

impl LikelihoodTables {
    /// Builds the tables for `theta`, every term of every source.
    pub fn new(theta: &Theta) -> Self {
        Self::compact(theta, |_| true, |_| true)
    }

    /// Builds the tables for evaluating the columns of `data` under
    /// `theta`, leaving out the terms no cell of `data` reads.
    ///
    /// Every column of `data` evaluates to the same bits as under
    /// [`new`](Self::new).
    pub fn for_data(theta: &Theta, data: &ClaimData) -> Self {
        Self::compact(
            theta,
            |i| data.sc().row_nnz(i as u32) > 0,
            |i| data.d().row_nnz(i as u32) > 0,
        )
    }

    /// Builds the tables for `theta`, one row per source, filling source
    /// `i`'s claim terms only when `has_claims(i)` and its dependent-cell
    /// and dependent-claim terms only when `has_deps(i)`. Each filled term
    /// is the same subtraction [`new`](Self::new) performs, so every
    /// column that reads only filled terms evaluates to the same bits.
    pub(crate) fn compact(
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
    ) -> Self {
        let mut tables = Self::empty();
        tables.fill(theta, has_claims, has_deps, None, 0..theta.source_count());
        tables
    }

    /// Tables over no row, for a buffer that [`refill`](Self::refill)
    /// fills.
    pub(crate) fn empty() -> Self {
        Self {
            terms: Vec::new(),
            row_sums: Vec::new(),
            base1: 0.0,
            base0: 0.0,
            ln_z: 0.0,
            ln_1z: 0.0,
            log_prior: 0.0,
            logs: 0,
        }
    }

    /// Rebuilds the tables in place for evaluating `layout`'s column
    /// classes under `classes`, which holds one rate set per source class
    /// of `layout` ([`ClaimLayout::classes_of`]): one row per class,
    /// filled as [`for_data`](Self::for_data) fills its sources. With a
    /// `prior`, also sums the log-prior, read back by
    /// [`log_prior`](Self::log_prior); every row's terms are then filled,
    /// since the prior reads them all.
    pub(crate) fn refill(
        &mut self,
        classes: &Theta,
        layout: &ClaimLayout,
        prior: Option<&ShrinkagePrior>,
    ) {
        let members = layout.source_class().iter().map(|&c| c as usize);
        self.fill(
            classes,
            |c| layout.has_claims(c),
            |c| layout.has_deps(c),
            prior,
            members,
        );
    }

    /// Fills one row per source of `theta` in place, as
    /// [`compact`](Self::compact) fills them, also summing the log-prior
    /// when a `prior` is given: `s` times the per-source
    /// [`ShrinkagePrior::source_term`]s. The prior reuses the logarithms
    /// the terms take, so with one every term of every row is filled.
    /// Each logarithm is reused from the previous row when its rate has
    /// the same bits.
    ///
    /// `members` yields every source's row in source order. The base sums
    /// and the log-prior fold the rows' `ln(1−a)`, `ln(1−b)` and prior
    /// terms in that order from `0.0`, so tables over rows whose sources
    /// all hold their row's rates have the bits of tables over the
    /// sources.
    fn fill(
        &mut self,
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
        prior: Option<&ShrinkagePrior>,
        members: impl Iterator<Item = usize>,
    ) {
        let mut build = Build {
            rates: Default::default(),
            logs: 0,
            prior,
        };
        // The prior reads every term.
        let all = prior.is_some();
        self.terms.resize(3 * theta.source_count(), LEFT_OUT);
        self.row_sums.clear();
        let rows = self.terms.chunks_exact_mut(3);
        for (r, (s, row)) in theta.sources().iter().zip(rows).enumerate() {
            let sums = build.row(s, row, all || has_claims(r), all || has_deps(r));
            self.row_sums.push(sums);
        }
        let (mut base1, mut base0, mut prior_sum) = (0.0, 0.0, 0.0);
        for r in members {
            let [ln_1a, ln_1b, prior_term] = self.row_sums[r];
            base1 += ln_1a;
            base0 += ln_1b;
            prior_sum += prior_term;
        }
        self.base1 = base1;
        self.base0 = base0;
        self.ln_z = safe_ln(theta.z());
        self.ln_1z = safe_ln_1m(theta.z());
        self.log_prior = prior.map_or(0.0, |p| p.smoothing * prior_sum);
        self.logs = build.logs + 2;
    }

    /// The log-prior of the tables' `θ` under the [`ShrinkagePrior`]
    /// they were filled with ([`refill`](Self::refill)); `0.0` for
    /// tables built without one.
    pub(crate) fn log_prior(&self) -> f64 {
        self.log_prior
    }

    /// The logarithms the last build took, `ln z` and `ln(1−z)`
    /// included.
    pub(crate) fn logs(&self) -> u64 {
        self.logs
    }

    /// Number of rows the tables cover: sources, or source classes for
    /// tables over a claim layout.
    pub fn source_count(&self) -> usize {
        self.terms.len() / 3
    }

    /// `(ln P(SC_j | C_j = 1), ln P(SC_j | C_j = 0))` for column `j`,
    /// computed with the sparse-correction scheme.
    ///
    /// `claimants` must be the sorted rows of `SC[:, j]` and `dep_rows` the
    /// sorted rows of `D[:, j]`.
    pub fn column_log_likelihood(&self, claimants: &[u32], dep_rows: &[u32]) -> (f64, f64) {
        self.accumulate(merged_slots(claimants, dep_rows))
    }

    /// Evaluates column `j` once for a pass over the assertions: its
    /// posterior (Eq. 9), log-odds, and Eq. 7 term, from the joint
    /// log-weights `w₁ = ln P(SC_j|C_j=1) + ln z` and
    /// `w₀ = ln P(SC_j|C_j=0) + ln(1−z)` and their log-sum-exp.
    ///
    /// Arguments as for [`column_log_likelihood`](Self::column_log_likelihood).
    pub fn column(&self, claimants: &[u32], dep_rows: &[u32]) -> ColumnFit {
        self.fit(self.column_log_likelihood(claimants, dep_rows))
    }

    /// [`column`](Self::column) for a column class given by its
    /// [`ClaimLayout`] slots.
    pub(crate) fn slots_column(&self, slots: &[u32]) -> ColumnFit {
        self.fit(self.accumulate(slots.iter().map(|&s| s as usize)))
    }

    /// The kernel: the base sums plus each slot's pair, in slot order.
    fn accumulate(&self, slots: impl Iterator<Item = usize>) -> (f64, f64) {
        let (mut ln1, mut ln0) = (self.base1, self.base0);
        for slot in slots {
            let [t1, t0] = self.terms[slot];
            ln1 += t1;
            ln0 += t0;
        }
        (ln1, ln0)
    }

    /// A column's [`ColumnFit`] from its pair of log-likelihoods.
    fn fit(&self, (ln1, ln0): (f64, f64)) -> ColumnFit {
        let (w1, w0) = (ln1 + self.ln_z, ln0 + self.ln_1z);
        let lse = log_sum_exp2(w1, w0);
        let posterior = if w1 == f64::NEG_INFINITY && w0 == f64::NEG_INFINITY {
            0.5
        } else {
            (w1 - lse).exp()
        };
        ColumnFit {
            posterior,
            log_odds: w1 - w0,
            log_marginal: lse,
        }
    }
}

/// The most sources a [`ClaimLayout`] indexes: its slots `3i + kind` are
/// `u32`s.
const MAX_LAYOUT_SOURCES: usize = u32::MAX as usize / 3;

/// The most rounds [`ClaimLayout::new`] refines for. A world that needs
/// more, such as a long path of sources each sharing a column with the
/// next, gets the discrete partition, which is valid for every world.
pub(crate) const MAX_ROUNDS: usize = 32;

/// No element, no class: the empty marker of the refinement's tables.
const NONE: u32 = u32::MAX;

/// A partition of `0..len` into numbered classes, which
/// [`split`](Self::split) refines.
struct Partition {
    class_of: Vec<u32>,
    /// Members per class.
    size: Vec<u32>,
}

/// The buffers [`Partition::split`] reuses from one call to the next.
#[derive(Default)]
struct Splitter {
    /// The keys of the elements being split, one after another.
    keys: Vec<u32>,
    key_start: Vec<usize>,
    /// Open addressing over `(key hash, element position)`, looked up,
    /// never iterated.
    table: Vec<(u64, u32)>,
    /// Per position: the first position with its class and key, the
    /// size of the group it leads, and that group's new class.
    leader: Vec<u32>,
    count: Vec<u32>,
    class: Vec<u32>,
    /// Per class: its members among the elements being split, and the
    /// position leading its largest group.
    split_members: Vec<u32>,
    largest: Vec<u32>,
}

impl Partition {
    /// Every element in class 0.
    fn new(len: usize) -> Self {
        Self {
            class_of: vec![0; len],
            size: vec![len as u32],
        }
    }

    /// Splits the classes of the `dirty` elements by their keys: `key(e,
    /// buf)` appends element `e`'s key to `buf`. Dirty members of one
    /// class with equal keys stay together; the members not listed keep
    /// the class's number, or, when every member is listed, the largest
    /// group keeps it (the earliest of equal ones), and every other group
    /// becomes a new class. Writes the elements whose class changed to
    /// `changed`.
    ///
    /// A listed member's key must differ from the keys of the members
    /// left out, which share one key: the refinement lists exactly the
    /// elements next to one whose class changed, or every element.
    fn split(
        &mut self,
        dirty: &[u32],
        mut key: impl FnMut(usize, &mut Vec<u32>),
        s: &mut Splitter,
        changed: &mut Vec<u32>,
    ) {
        changed.clear();
        s.keys.clear();
        s.key_start.clear();
        s.key_start.push(0);
        for &e in dirty {
            key(e as usize, &mut s.keys);
            s.key_start.push(s.keys.len());
        }
        let bits = (2 * dirty.len())
            .max(2)
            .next_power_of_two()
            .trailing_zeros();
        s.table.clear();
        s.table.resize(1 << bits, (0, NONE));
        s.leader.clear();
        let class_of = &self.class_of;
        let (keys, key_start) = (&s.keys, &s.key_start);
        let key_at = |k: usize| &keys[key_start[k]..key_start[k + 1]];
        for (k, &e) in dirty.iter().enumerate() {
            let class = class_of[e as usize];
            let key = key_at(k);
            // FNV-1a over the class and the key; Fibonacci hashing picks
            // the slot from the product's top bits.
            let hash = key
                .iter()
                .fold(fnv(0xcbf2_9ce4_8422_2325, class), |h, &x| fnv(h, x));
            let mut slot = (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
            let leader = loop {
                match s.table[slot] {
                    (_, NONE) => {
                        s.table[slot] = (hash, k as u32);
                        break k as u32;
                    }
                    (h, l)
                        if h == hash
                            && class_of[dirty[l as usize] as usize] == class
                            && key_at(l as usize) == key =>
                    {
                        break l
                    }
                    _ => slot = (slot + 1) & (s.table.len() - 1),
                }
            };
            s.leader.push(leader);
        }

        s.count.clear();
        s.count.resize(dirty.len(), 0);
        for &l in &s.leader {
            s.count[l as usize] += 1;
        }
        let classes = self.size.len();
        s.split_members.resize(classes, 0);
        s.largest.resize(classes, NONE);
        for (k, &e) in dirty.iter().enumerate() {
            let c = class_of[e as usize] as usize;
            s.split_members[c] += 1;
            let largest = s.largest[c];
            if s.leader[k] == k as u32
                && (largest == NONE || s.count[k] > s.count[largest as usize])
            {
                s.largest[c] = k as u32;
            }
        }
        s.class.clear();
        s.class.resize(dirty.len(), NONE);
        for (k, &e) in dirty.iter().enumerate() {
            if s.leader[k] != k as u32 {
                continue;
            }
            let c = class_of[e as usize];
            let whole = s.split_members[c as usize] == self.size[c as usize];
            s.class[k] = if whole && s.largest[c as usize] == k as u32 {
                c
            } else {
                self.size.push(0);
                (self.size.len() - 1) as u32
            };
        }
        for &e in dirty {
            let c = class_of[e as usize] as usize;
            s.split_members[c] = 0;
            s.largest[c] = NONE;
        }
        for (k, &e) in dirty.iter().enumerate() {
            let (old, new) = (self.class_of[e as usize], s.class[s.leader[k] as usize]);
            if new != old {
                self.size[old as usize] -= 1;
                self.size[new as usize] += 1;
                self.class_of[e as usize] = new;
                changed.push(e);
            }
        }
    }

    /// Renumbers the classes in the order of their first members.
    fn into_classes(mut self) -> Vec<u32> {
        let mut number = vec![NONE; self.size.len()];
        let mut classes = 0;
        for c in &mut self.class_of {
            if number[*c as usize] == NONE {
                number[*c as usize] = classes;
                classes += 1;
            }
            *c = number[*c as usize];
        }
        self.class_of
    }
}

/// One FNV-1a step over a 32-bit word.
fn fnv(hash: u64, x: u32) -> u64 {
    (hash ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3)
}

/// Writes to `out`, in order, every element next to one in `changed`:
/// `next_to(e, seen)` marks `e`'s neighbours in `seen`, which this
/// clears again.
fn neighbours(
    changed: &[u32],
    mut next_to: impl FnMut(usize, &mut [bool]),
    seen: &mut [bool],
    out: &mut Vec<u32>,
) {
    for &e in changed {
        next_to(e as usize, seen);
    }
    out.clear();
    for (x, seen) in seen.iter_mut().enumerate() {
        if std::mem::take(seen) {
            out.push(x as u32);
        }
    }
}

/// `SC` and `D` arranged for EM-Ext's passes, built once per fit: a
/// partition of the sources and one of the columns into classes whose
/// members EM cannot tell apart, and per class the lists its passes read.
///
/// * A column's *key* is the sequence of (slot kind, source class) in
///   its slot order ([`merged_slots`]): its slot list with every source
///   replaced by its class. A source's key is the sequence of column
///   classes along its `D` row, then its independent claims, then its
///   dependent claims.
/// * The partition is the coarsest one, finer than the seed, in which
///   the members of every class have equal keys. A cold fit's seed puts
///   every source in one class; a warm fit's puts sources together only
///   when their starting rates have the same bits. Ordered colour
///   refinement finds it: each round re-keys, then splits by key, the
///   columns and then the sources next to an element whose class
///   changed, and the first round that splits nothing ends it. Keys are
///   sequences, not multisets, because every fold in a pass adds its
///   terms in a fixed order and floating-point addition is not
///   associative: two columns whose claimants' classes come in another
///   order can differ in the last bit. A world that needs more than
///   [`MAX_ROUNDS`] rounds gets the discrete partition.
/// * By induction over maps, every member of a class holds its class's
///   bits: a source class's members start with equal rates, so get equal
///   table terms; a column class's members add the same terms in the same
///   order, so get equal fits; and a source class's members gather those
///   fits in the same order, so get equal M-step counts and equal new
///   rates. So the tables hold one row per source class, and a pass
///   evaluates each column class once, from its first column's slot
///   list over the class rows (`3·class + kind`). Per source class the
///   layout keeps its first source's three lists as column classes, so
///   the M-step counts each class once from its own lists.
/// * Classes are numbered in the order of their first members.
#[derive(Debug, Clone)]
pub(crate) struct ClaimLayout {
    /// The class of each source and of each column.
    source_class: Vec<u32>,
    column_class: Vec<u32>,
    /// Column class `c`'s slots are
    /// `column_slots[column_start[c]..column_start[c + 1]]`.
    column_start: Vec<usize>,
    column_slots: Vec<u32>,
    /// Source class `c`'s `D` row, independent claims and dependent
    /// claims, as column classes, are the three runs of `row_cols` that
    /// `row_start[3c..3c + 4]` bound.
    row_start: Vec<usize>,
    row_cols: Vec<u32>,
}

impl ClaimLayout {
    /// Lays out `data`, its partition finer than the one `seed` gives:
    /// with a seed, which must cover `data`'s sources, sources share a
    /// class only when their rates in it have the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::DimensionMismatch`] when `data` has more
    /// sources than `u32` slots can index (`u32::MAX / 3`).
    pub(crate) fn new(data: &ClaimData, seed: Option<&Theta>) -> Result<Self, SenseError> {
        let (n, m) = (data.source_count(), data.assertion_count());
        if n > MAX_LAYOUT_SOURCES {
            return Err(SenseError::DimensionMismatch {
                what: "source count vs the most a claim layout indexes",
                expected: MAX_LAYOUT_SOURCES,
                actual: n,
            });
        }
        // Every column's slots; `n` is in range, so each fits a `u32`.
        let mut col_start = Vec::with_capacity(m + 1);
        col_start.push(0);
        let mut col_slots = Vec::with_capacity(data.sc().nnz() + data.d().nnz());
        for j in 0..m as u32 {
            col_slots.extend(merged_slots(data.sc().col(j), data.d().col(j)).map(|s| s as u32));
            col_start.push(col_slots.len());
        }
        let col = |j: usize| &col_slots[col_start[j]..col_start[j + 1]];

        // Every source's `D` row, independent claims and dependent claims.
        let mut row_start = Vec::with_capacity(3 * n + 1);
        row_start.push(0);
        let mut row_cols = Vec::with_capacity(data.sc().nnz() + data.d().nnz());
        let mut dependent = Vec::new();
        for i in 0..n as u32 {
            let dep_row = data.d().row(i);
            row_cols.extend_from_slice(dep_row);
            row_start.push(row_cols.len());
            dependent.clear();
            for (j, is_dep) in marked(data.sc().row(i), dep_row) {
                if is_dep {
                    dependent.push(j);
                } else {
                    row_cols.push(j);
                }
            }
            row_start.push(row_cols.len());
            row_cols.extend_from_slice(&dependent);
            row_start.push(row_cols.len());
        }
        let row = |i: usize| &row_cols[row_start[3 * i]..row_start[3 * i + 3]];

        // A column's key is its slot list over source classes; a
        // source's is the lengths of its first two lists, then its
        // three lists over column classes.
        let column_key = |classes: &[u32], j: usize, key: &mut Vec<u32>| {
            key.extend(col(j).iter().map(|&s| 3 * classes[s as usize / 3] + s % 3));
        };
        let source_key = |classes: &[u32], i: usize, key: &mut Vec<u32>| {
            let bounds = &row_start[3 * i..3 * i + 3];
            key.extend([bounds[1] - bounds[0], bounds[2] - bounds[1]].map(|len| len as u32));
            key.extend(row(i).iter().map(|&j| classes[j as usize]));
        };

        let (mut sources, mut columns) = (Partition::new(n), Partition::new(m));
        let mut s = Splitter::default();
        let (mut changed, mut dirty) = (Vec::new(), Vec::new());
        // The first round keys every element, and a source by its seed
        // rates too; a later one keys only the elements next to one whose
        // class changed.
        let (every_source, every_column): (Vec<u32>, Vec<u32>) =
            ((0..n as u32).collect(), (0..m as u32).collect());
        let key = |j: usize, buf: &mut Vec<u32>| column_key(&sources.class_of, j, buf);
        columns.split(&every_column, key, &mut s, &mut changed);
        let key = |i: usize, buf: &mut Vec<u32>| {
            if let Some(p) = seed.map(|seed| seed.source(i)) {
                for x in [p.a, p.b, p.f, p.g].map(f64::to_bits) {
                    buf.extend([x as u32, (x >> 32) as u32]);
                }
            }
            source_key(&columns.class_of, i, buf);
        };
        sources.split(&every_source, key, &mut s, &mut changed);
        let (mut seen_sources, mut seen_columns) = (vec![false; n], vec![false; m]);
        let mut rounds = 1;
        while !changed.is_empty() {
            if rounds == MAX_ROUNDS {
                sources.class_of = (0..n as u32).collect();
                columns.class_of = (0..m as u32).collect();
                sources.size = vec![1; n];
                columns.size = vec![1; m];
                break;
            }
            rounds += 1;
            let next_to = |i: usize, seen: &mut [bool]| {
                for &j in row(i) {
                    seen[j as usize] = true;
                }
            };
            neighbours(&changed, next_to, &mut seen_columns, &mut dirty);
            let key = |j: usize, buf: &mut Vec<u32>| column_key(&sources.class_of, j, buf);
            columns.split(&dirty, key, &mut s, &mut changed);
            if changed.is_empty() {
                break;
            }
            let next_to = |j: usize, seen: &mut [bool]| {
                for &s in col(j) {
                    seen[s as usize / 3] = true;
                }
            };
            neighbours(&changed, next_to, &mut seen_sources, &mut dirty);
            let key = |i: usize, buf: &mut Vec<u32>| source_key(&columns.class_of, i, buf);
            sources.split(&dirty, key, &mut s, &mut changed);
        }
        // The refinement's buffers go before the class lists are built.
        drop(s);
        let (source_class, column_class) = (sources.into_classes(), columns.into_classes());

        // Each class's lists, from its first member.
        let mut column_start = vec![0];
        let mut column_slots = Vec::new();
        for (j, &c) in column_class.iter().enumerate() {
            if c as usize + 1 == column_start.len() {
                column_key(&source_class, j, &mut column_slots);
                column_start.push(column_slots.len());
            }
        }
        let mut class_row_start = vec![0];
        let mut class_row_cols = Vec::new();
        for (i, &c) in source_class.iter().enumerate() {
            if 3 * c as usize + 1 == class_row_start.len() {
                for k in 0..3 {
                    let cells = &row_cols[row_start[3 * i + k]..row_start[3 * i + k + 1]];
                    class_row_cols.extend(cells.iter().map(|&j| column_class[j as usize]));
                    class_row_start.push(class_row_cols.len());
                }
            }
        }
        Ok(Self {
            source_class,
            column_class,
            column_start,
            column_slots,
            row_start: class_row_start,
            row_cols: class_row_cols,
        })
    }

    /// Number of sources `n`.
    pub(crate) fn source_count(&self) -> usize {
        self.source_class.len()
    }

    /// Number of assertions `m`.
    pub(crate) fn assertion_count(&self) -> usize {
        self.column_class.len()
    }

    /// The class of every source, in source order.
    pub(crate) fn source_class(&self) -> &[u32] {
        &self.source_class
    }

    /// The class of every column, in column order.
    pub(crate) fn column_class(&self) -> &[u32] {
        &self.column_class
    }

    /// Number of source classes.
    pub(crate) fn source_classes(&self) -> usize {
        (self.row_start.len() - 1) / 3
    }

    /// Number of column classes.
    pub(crate) fn column_classes(&self) -> usize {
        self.column_start.len() - 1
    }

    /// Column class `c`'s slots over the source-class rows.
    pub(crate) fn column_slots(&self, c: usize) -> &[u32] {
        &self.column_slots[self.column_start[c]..self.column_start[c + 1]]
    }

    /// Source class `c`'s `D` row, independent claims and dependent
    /// claims, as column classes, each in column order.
    pub(crate) fn source_cells(&self, c: usize) -> (&[u32], &[u32], &[u32]) {
        let run =
            |k: usize| &self.row_cols[self.row_start[3 * c + k]..self.row_start[3 * c + k + 1]];
        (run(0), run(1), run(2))
    }

    /// `theta` over the source classes: each class takes its first
    /// source's rates, which, for a `theta` finer than the layout's
    /// partition, are every member's.
    pub(crate) fn classes_of(&self, theta: &Theta) -> Theta {
        let mut classes = Theta::neutral(self.source_classes());
        let mut seen = 0;
        for (i, &c) in self.source_class.iter().enumerate() {
            if c as usize == seen {
                classes.set_source(seen, *theta.source(i));
                seen += 1;
            }
        }
        classes.set_z(theta.z());
        classes
    }

    /// `classes`, one rate set per source class, over the sources: each
    /// source takes its class's rates.
    pub(crate) fn sources_of(&self, classes: &Theta) -> Theta {
        let mut theta = Theta::neutral(self.source_count());
        for (i, &c) in self.source_class.iter().enumerate() {
            theta.set_source(i, *classes.source(c as usize));
        }
        theta.set_z(classes.z());
        theta
    }

    /// Whether source class `c` claims anything.
    fn has_claims(&self, c: usize) -> bool {
        self.row_start[3 * c + 1] < self.row_start[3 * c + 3]
    }

    /// Whether source class `c` has a `D` cell.
    fn has_deps(&self, c: usize) -> bool {
        self.row_start[3 * c] < self.row_start[3 * c + 1]
    }
}

fn check_dims(data: &ClaimData, theta: &Theta) -> Result<(), SenseError> {
    if data.source_count() != theta.source_count() {
        return Err(SenseError::DimensionMismatch {
            what: "theta source count vs data",
            expected: data.source_count(),
            actual: theta.source_count(),
        });
    }
    Ok(())
}

/// Posterior truth probabilities `P(C_j = 1 | SC_j; D, θ)` for all
/// assertions (Eq. 9).
///
/// # Errors
///
/// Returns [`SenseError::DimensionMismatch`] on inconsistent shapes.
pub fn assertion_posteriors(data: &ClaimData, theta: &Theta) -> Result<Vec<f64>, SenseError> {
    assertion_posteriors_with(data, theta, Parallelism::Auto)
}

/// [`assertion_posteriors`] with an explicit [`Parallelism`] level.
/// Results are bit-identical across levels; each posterior depends on one
/// column only, so the work splits into fixed index chunks.
///
/// # Errors
///
/// As [`assertion_posteriors`].
pub fn assertion_posteriors_with(
    data: &ClaimData,
    theta: &Theta,
    par: Parallelism,
) -> Result<Vec<f64>, SenseError> {
    check_dims(data, theta)?;
    let tables = LikelihoodTables::for_data(theta, data);
    Ok(par_map_collect(par, data.assertion_count(), |j| {
        tables
            .column(data.sc().col(j as u32), data.d().col(j as u32))
            .posterior
    }))
}

/// The observed-data log-likelihood `ln P(SC; D, θ)` (Eq. 7):
/// `Σ_j ln( z·P(SC_j|C_j=1) + (1-z)·P(SC_j|C_j=0) )`.
///
/// The per-assertion terms are summed within fixed index chunks and the
/// chunk sums folded in chunk order, so the (non-associative) floating-
/// point total is bit-identical across levels.
///
/// # Errors
///
/// Returns [`SenseError::DimensionMismatch`] on inconsistent shapes.
pub fn data_log_likelihood_with(
    data: &ClaimData,
    theta: &Theta,
    par: Parallelism,
) -> Result<f64, SenseError> {
    check_dims(data, theta)?;
    let tables = LikelihoodTables::for_data(theta, data);
    Ok(par_map_reduce(
        par,
        data.assertion_count(),
        0.0,
        |range| {
            let mut sum = 0.0;
            for j in range {
                sum += tables
                    .column(data.sc().col(j as u32), data.d().col(j as u32))
                    .log_marginal;
            }
            sum
        },
        |a, b| a + b,
    ))
}

/// Reference `O(n)` per-column evaluation used to validate the sparse
/// kernel in tests.
#[cfg(test)]
pub(crate) fn column_log_likelihood_naive(data: &ClaimData, theta: &Theta, j: u32, c: bool) -> f64 {
    let mut ln = 0.0;
    for i in 0..data.source_count() as u32 {
        let p = theta
            .source(i as usize)
            .claim_prob(c, data.dependent(i, j), data.claimed(i, j));
        ln += safe_ln(p);
    }
    ln
}

/// The sparse kernel with every logarithm taken on the spot: the base
/// sums in source order from `0.0`, then `ln(1−f) − ln(1−a)` per
/// dependent cell and `ln x − ln(1−x)` per claim, each difference formed
/// before it is added. Tests hold the table kernel to it bit for bit.
#[cfg(test)]
pub(crate) fn column_log_likelihood_reference(
    theta: &Theta,
    claimants: &[u32],
    dep_rows: &[u32],
) -> (f64, f64) {
    let (mut ln1, mut ln0) = (0.0, 0.0);
    for s in theta.sources() {
        ln1 += safe_ln_1m(s.a);
        ln0 += safe_ln_1m(s.b);
    }
    for &i in dep_rows {
        let s = theta.source(i as usize);
        ln1 += safe_ln_1m(s.f) - safe_ln_1m(s.a);
        ln0 += safe_ln_1m(s.g) - safe_ln_1m(s.b);
    }
    let mut dep_iter = dep_rows.iter().peekable();
    for &i in claimants {
        while dep_iter.peek().is_some_and(|&&d| d < i) {
            dep_iter.next();
        }
        let s = theta.source(i as usize);
        if dep_iter.peek() == Some(&&i) {
            ln1 += safe_ln(s.f) - safe_ln_1m(s.f);
            ln0 += safe_ln(s.g) - safe_ln_1m(s.g);
        } else {
            ln1 += safe_ln(s.a) - safe_ln_1m(s.a);
            ln0 += safe_ln(s.b) - safe_ln_1m(s.b);
        }
    }
    (ln1, ln0)
}

/// The partition [`ClaimLayout::new`] finds, found the slow way to test
/// it: each round keys every column by its class and its slot list over
/// the source classes, and every source by its class and its three
/// lists over the column classes, both from the previous round's
/// classes, interns the keys in element order through a `BTreeMap`, and
/// the first round that splits nothing ends it. The source classes,
/// then the column classes, each numbered by first member.
#[cfg(test)]
pub(crate) fn naive_partition(data: &ClaimData, seed: Option<&Theta>) -> (Vec<u32>, Vec<u32>) {
    use std::collections::BTreeMap;
    fn intern(keys: impl Iterator<Item = Vec<u32>>) -> Vec<u32> {
        let mut ids = BTreeMap::new();
        keys.map(|key| {
            let next = ids.len() as u32;
            *ids.entry(key).or_insert(next)
        })
        .collect()
    }
    let distinct = |classes: &[u32]| classes.iter().max().map_or(0, |&c| c + 1);
    let (n, m) = (data.source_count() as u32, data.assertion_count() as u32);
    let mut sources = intern((0..n).map(|i| {
        let Some(seed) = seed else {
            return Vec::new();
        };
        let p = seed.source(i as usize);
        let bits = [p.a, p.b, p.f, p.g].map(f64::to_bits);
        bits.iter()
            .flat_map(|&x| [x as u32, (x >> 32) as u32])
            .collect()
    }));
    let mut columns = vec![0; m as usize];
    loop {
        let next_columns = intern((0..m).map(|j| {
            let slots = merged_slots(data.sc().col(j), data.d().col(j));
            let mapped = slots.map(|s| 3 * sources[s / 3] + (s % 3) as u32);
            [columns[j as usize]].into_iter().chain(mapped).collect()
        }));
        let next_sources = intern((0..n).map(|i| {
            let d_row = data.d().row(i);
            let claims: Vec<(u32, bool)> = marked(data.sc().row(i), d_row).collect();
            let independent = claims.iter().filter(|c| !c.1).map(|c| c.0);
            let dependent = claims.iter().filter(|c| c.1).map(|c| c.0);
            let mut key = vec![sources[i as usize]];
            for (kind, cells) in [d_row.to_vec(), independent.collect(), dependent.collect()]
                .into_iter()
                .enumerate()
            {
                key.extend(cells.iter().map(|&j| 3 * columns[j as usize] + kind as u32));
            }
            key
        }));
        let split = distinct(&next_columns) > distinct(&columns)
            || distinct(&next_sources) > distinct(&sources);
        (columns, sources) = (next_columns, next_sources);
        if !split {
            return (sources, columns);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceParams;
    use proptest::prelude::*;
    use socsense_matrix::logprob::normalize_log_pair;
    use socsense_matrix::SparseBinaryMatrix;

    /// A random world of `n` claiming sources, one that never claims
    /// (but may hold dependent cells) and a run of two or three that
    /// hold no cell and share one set of rates, with `D` cells only when
    /// `with_d`, and a random θ. Up to 100 assertions, then copies of up
    /// to 15 of them, so some columns are equal. Last come copies of up
    /// to two claiming sources, `D` cells included, each with its
    /// leader's rates or rates of its own.
    fn random_world() -> impl Strategy<Value = (ClaimData, Theta)> {
        (1u32..8, 1u32..100, 0u32..2, 2u32..4, 0u32..16, 0u32..3).prop_flat_map(
            |(n, m, with_d, idle, copies, dups)| {
                let sc = vec((0..n, 0..m), 0..120);
                let d = vec((0..n + 1, 0..m), 0..(1 + 40 * with_d as usize));
                let rates = (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0);
                let params = vec(rates.clone(), n as usize + 1);
                let dups = dups.min(n);
                let dup_params = vec((0u32..2, rates.clone()), dups as usize);
                (
                    (Just(n + 1), Just(idle), Just(m), Just(copies.min(m))),
                    (sc, d),
                    (params, dup_params),
                    rates,
                    0.0f64..1.0,
                )
                    .prop_map(
                        |(
                            (claimers, idle, m, copies),
                            (sc, d),
                            (params, dup_params),
                            shared,
                            z,
                        )| {
                            let rows = claimers + idle;
                            let dups = dup_params.len() as u32;
                            // Column m + k repeats column k's cells, then
                            // row rows + k repeats row k's.
                            let with_copies = |cells: Vec<(u32, u32)>| {
                                let columns: Vec<(u32, u32)> = cells
                                    .iter()
                                    .filter(|&&(_, j)| j < copies)
                                    .map(|&(i, j)| (i, m + j))
                                    .chain(cells.iter().copied())
                                    .collect();
                                let copied: Vec<(u32, u32)> = columns
                                    .iter()
                                    .filter(|&&(i, _)| i < dups)
                                    .map(|&(i, j)| (rows + i, j))
                                    .collect();
                                columns.into_iter().chain(copied).collect::<Vec<_>>()
                            };
                            let (rows, cols) = (rows + dups, m + copies);
                            let sc = SparseBinaryMatrix::from_entries(rows, cols, with_copies(sc));
                            let d = SparseBinaryMatrix::from_entries(rows, cols, with_copies(d));
                            let dup_rates: Vec<_> = dup_params
                                .into_iter()
                                .zip(&params)
                                .map(
                                    |((own, rates), &leader)| if own == 1 { rates } else { leader },
                                )
                                .collect();
                            let sources = params
                                .into_iter()
                                .chain(std::iter::repeat_n(shared, idle as usize))
                                .chain(dup_rates)
                                .map(|(a, b, f, g)| SourceParams { a, b, f, g })
                                .collect();
                            let theta = Theta::new(sources, z).expect("rates drawn in [0, 1)");
                            (ClaimData::new(sc, d).expect("shapes match"), theta)
                        },
                    )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Compact tables read only filled terms: every column gives the
        /// same bits as under full tables, as through its class's slots in
        /// a claim layout seeded with θ over tables refilled by class, and
        /// as the on-the-spot reference kernel, and `column` derives its
        /// three outputs from them exactly as Eqs. 7 and 9 are written.
        #[test]
        fn compact_tables_match_full_tables_bit_for_bit((data, theta) in random_world()) {
            let full = LikelihoodTables::new(&theta);
            let compact = LikelihoodTables::for_data(&theta, &data);
            let layout = ClaimLayout::new(&data, Some(&theta)).unwrap();
            let mut laid = LikelihoodTables::empty();
            laid.refill(&layout.classes_of(&theta), &layout, None);
            let sources: Vec<u32> = (0..data.source_count() as u32).collect();
            prop_assert_eq!(
                table_bits(&laid, layout.source_class()),
                table_bits(&compact, &sources)
            );
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            for j in 0..data.assertion_count() as u32 {
                let (sc, d) = (data.sc().col(j), data.d().col(j));
                let want = column_log_likelihood_reference(&theta, sc, d);
                prop_assert_eq!(bits(compact.column_log_likelihood(sc, d)), bits(want));
                prop_assert_eq!(bits(full.column_log_likelihood(sc, d)), bits(want));
                let slots = layout.column_slots(layout.column_class()[j as usize] as usize);
                let laid_ln = laid.accumulate(slots.iter().map(|&s| s as usize));
                prop_assert_eq!(bits(laid_ln), bits(want));
                let fit_bits = |f: ColumnFit| {
                    [f.posterior.to_bits(), f.log_odds.to_bits(), f.log_marginal.to_bits()]
                };
                prop_assert_eq!(fit_bits(laid.slots_column(slots)), fit_bits(compact.column(sc, d)));

                let (w1, w0) = (want.0 + safe_ln(theta.z()), want.1 + safe_ln_1m(theta.z()));
                let fit = compact.column(sc, d);
                prop_assert_eq!(fit.posterior.to_bits(), normalize_log_pair(w1, w0).0.to_bits());
                prop_assert_eq!(fit.log_odds.to_bits(), (w1 - w0).to_bits());
                prop_assert_eq!(fit.log_marginal.to_bits(), log_sum_exp2(w1, w0).to_bits());
            }
        }
    }

    /// Every source's three terms, read from its row, then both base sums
    /// and the log-prior, as bits.
    fn table_bits(tables: &LikelihoodTables, rows: &[u32]) -> (Vec<[u64; 2]>, [u64; 3]) {
        let terms = rows
            .iter()
            .flat_map(|&r| &tables.terms[3 * r as usize..3 * r as usize + 3])
            .map(|t| t.map(f64::to_bits))
            .collect();
        let sums = [tables.base1, tables.base0, tables.log_prior].map(f64::to_bits);
        (terms, sums)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The layout's classes, unseeded or seeded with θ, are the naive
        /// refinement's, and each seeded class lies within an unseeded one
        /// and holds one set of rates. A fill over the
        /// classes of the seeded layout, with or without a prior, gives
        /// every source's terms, both base sums and the log-prior the bits
        /// of a fill over the sources, and computes one row per class.
        #[test]
        fn shared_fills_match_unshared_fills_bit_for_bit(
            (data, theta) in random_world(),
            smoothing in 0.0f64..4.0,
            (a, b, f, g) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        ) {
            let plain_layout = ClaimLayout::new(&data, None).unwrap();
            let layout = ClaimLayout::new(&data, Some(&theta)).unwrap();
            for (layout, seed) in [(&plain_layout, None), (&layout, Some(&theta))] {
                let (sources, columns) = naive_partition(&data, seed);
                prop_assert_eq!(layout.source_class(), &sources[..]);
                prop_assert_eq!(layout.column_class(), &columns[..]);
            }
            // Seeded classes lie within the unseeded ones, each with one
            // set of rate bits.
            let n = data.source_count();
            let rates = |i: usize| {
                let p = theta.source(i);
                [p.a, p.b, p.f, p.g].map(f64::to_bits)
            };
            for i in 0..n {
                for k in (0..n).filter(|&k| layout.source_class()[k] == layout.source_class()[i]) {
                    prop_assert_eq!(plain_layout.source_class()[k], plain_layout.source_class()[i]);
                    prop_assert_eq!(rates(k), rates(i));
                }
            }

            let prior = ShrinkagePrior { smoothing, rates: [a, b, f, g] };
            let classes = layout.classes_of(&theta);
            let rows = layout.source_class();
            for prior in [None, Some(&prior)] {
                let mut shared = LikelihoodTables::empty();
                shared.refill(&classes, &layout, prior);
                let mut plain = LikelihoodTables::empty();
                let class = |i: usize| rows[i] as usize;
                plain.fill(
                    &theta,
                    |i| layout.has_claims(class(i)),
                    |i| layout.has_deps(class(i)),
                    prior,
                    0..n,
                );
                let sources: Vec<u32> = (0..n as u32).collect();
                prop_assert_eq!(table_bits(&shared, rows), table_bits(&plain, &sources));
                prop_assert_eq!(plain.source_count(), n);
                prop_assert_eq!(shared.source_count(), layout.source_classes());
            }
        }
    }

    #[test]
    fn compact_tables_poison_what_they_leave_out() {
        // Source 0 claims but has no dependent cell, so tables compacted
        // for this data leave out its dependent terms; a column that
        // reads them anyway comes out NaN instead of plausibly wrong.
        let data = ClaimData::new(
            SparseBinaryMatrix::from_entries(2, 1, [(0, 0)]),
            SparseBinaryMatrix::from_entries(2, 1, [(1, 0)]),
        )
        .unwrap();
        let theta = Theta::neutral(2);
        let compact = LikelihoodTables::for_data(&theta, &data);
        let (ln1, ln0) = compact.column_log_likelihood(&[0], &[1]);
        assert!(ln1.is_finite() && ln0.is_finite());
        let (ln1, ln0) = compact.column_log_likelihood(&[0], &[0]);
        assert!(ln1.is_nan() && ln0.is_nan());
        assert!(LikelihoodTables::new(&theta)
            .column_log_likelihood(&[0], &[0])
            .0
            .is_finite());
    }

    fn small_data() -> ClaimData {
        // 4 sources, 3 assertions.
        let sc = SparseBinaryMatrix::from_entries(4, 3, [(0, 0), (1, 0), (2, 1), (3, 2), (0, 2)]);
        let d = SparseBinaryMatrix::from_entries(4, 3, [(1, 0), (3, 2), (2, 2)]);
        ClaimData::new(sc, d).unwrap()
    }

    fn theta4() -> Theta {
        Theta::new(
            vec![
                SourceParams::new(0.7, 0.2, 0.6, 0.5).unwrap(),
                SourceParams::new(0.5, 0.4, 0.9, 0.1).unwrap(),
                SourceParams::new(0.3, 0.3, 0.2, 0.8).unwrap(),
                SourceParams::new(0.8, 0.1, 0.7, 0.6).unwrap(),
            ],
            0.6,
        )
        .unwrap()
    }

    #[test]
    fn sparse_kernel_matches_naive_product() {
        let data = small_data();
        let theta = theta4();
        let tables = LikelihoodTables::for_data(&theta, &data);
        for j in 0..3u32 {
            let fast = tables.column_log_likelihood(data.sc().col(j), data.d().col(j));
            let naive1 = column_log_likelihood_naive(&data, &theta, j, true);
            let naive0 = column_log_likelihood_naive(&data, &theta, j, false);
            assert!(
                (fast.0 - naive1).abs() < 1e-10,
                "j={j}: {} vs {naive1}",
                fast.0
            );
            assert!((fast.1 - naive0).abs() < 1e-10);
        }
    }

    #[test]
    fn posteriors_are_probabilities_and_match_bayes() {
        let data = small_data();
        let theta = theta4();
        let post = assertion_posteriors(&data, &theta).unwrap();
        for (j, &p) in post.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p));
            let ln1 = column_log_likelihood_naive(&data, &theta, j as u32, true);
            let ln0 = column_log_likelihood_naive(&data, &theta, j as u32, false);
            let expected = (ln1.exp() * 0.6) / (ln1.exp() * 0.6 + ln0.exp() * 0.4);
            assert!((p - expected).abs() < 1e-10, "j={j}");
        }
    }

    #[test]
    fn log_likelihood_is_sum_of_marginals() {
        let data = small_data();
        let theta = theta4();
        let ll = data_log_likelihood_with(&data, &theta, Parallelism::Auto).unwrap();
        let mut expected = 0.0;
        for j in 0..3u32 {
            let p1 = column_log_likelihood_naive(&data, &theta, j, true).exp();
            let p0 = column_log_likelihood_naive(&data, &theta, j, false).exp();
            expected += (0.6 * p1 + 0.4 * p0).ln();
        }
        assert!((ll - expected).abs() < 1e-10);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let data = small_data();
        let theta = Theta::neutral(7);
        assert!(matches!(
            assertion_posteriors(&data, &theta),
            Err(SenseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn neutral_theta_gives_prior_posterior() {
        let data = small_data();
        let theta = Theta::neutral(4);
        let post = assertion_posteriors(&data, &theta).unwrap();
        for &p in &post {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn many_sources_do_not_underflow() {
        // 2000 silent unreliable sources would underflow linear space.
        let n = 2000u32;
        let sc = SparseBinaryMatrix::from_entries(n, 1, [(0u32, 0u32)]);
        let d = SparseBinaryMatrix::empty(n, 1);
        let data = ClaimData::new(sc, d).unwrap();
        let theta = Theta::new(
            vec![SourceParams::new(0.4, 0.35, 0.5, 0.5).unwrap(); n as usize],
            0.5,
        )
        .unwrap();
        let ll = data_log_likelihood_with(&data, &theta, Parallelism::Auto).unwrap();
        assert!(ll.is_finite());
        let post = assertion_posteriors(&data, &theta).unwrap();
        assert!(post[0].is_finite() && (0.0..=1.0).contains(&post[0]));
    }
}
