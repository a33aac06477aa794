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
//! into slots on the fly. EM-Ext builds a [`ClaimLayout`] once per fit
//! instead: every distinct column's slot list, each column's group of
//! equal columns, each source's `D` row and claims split by `D`, and the
//! classes of sources whose three lists are all equal. Its passes
//! evaluate one column per group through the same accumulation, and its
//! M-step gathers from the source lists without a merge.
//!
//! A table build takes each logarithm once per source, and fewer where a
//! source's rate has the same bits as the previous source's: it reuses
//! that source's `ln x` and `ln(1−x)`. Over a layout, a copy in a source
//! class whose rates have its leader's bits takes no logarithm at all:
//! it takes the leader's three pairs, and adds the leader's `ln(1−a)`,
//! `ln(1−b)` and prior term to the sums at its own place in source
//! order, so every sum keeps its bits. Built with a [`ShrinkagePrior`],
//! the tables also sum the log-prior that turns Eq. 7 into the objective
//! the shrinkage M-step ascends, which EM-Ext's warm runs use to
//! safeguard their extrapolations.

use std::ops::Range;

use socsense_matrix::logprob::{log_sum_exp2, safe_ln, safe_ln_1m};
use socsense_matrix::parallel::{par_map_collect, par_map_reduce, Parallelism};

use crate::data::ClaimData;
use crate::error::SenseError;
use crate::model::{SourceParams, Theta};

/// The slot of source `i`'s independent-claim pair, `ln a − ln(1−a)` and
/// `ln b − ln(1−b)`. Source `i`'s three pairs sit at `3i + kind`.
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

/// Precomputed per-source log-probability tables for one `θ`.
///
/// Rebuild after every M-step; construction is `O(n)`. Tables built by
/// [`for_data`](Self::for_data) leave out the terms no cell of that data
/// reads: a source with no claim never needs `ln a`, `ln b`, and one with
/// no dependent cell never needs its four `f`/`g` logarithms.
#[derive(Debug, Clone)]
pub struct LikelihoodTables {
    /// Three correction pairs per source, at the slots `3i + kind`;
    /// left-out pairs hold NaN.
    terms: Vec<[f64; 2]>,
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
    /// The sources whose terms the last build computed; a copy that took
    /// its leader's terms is not one of them.
    source_evals: u64,
    /// Per source class, the leader's `ln(1−a)`, `ln(1−b)` and prior
    /// term from the last build, which its copies add in its place.
    class_sums: Vec<[f64; 3]>,
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

/// One rate's two logarithms, kept for the next source while its rate
/// has the same bits. After a map, every source with no claim and no `D`
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
/// source, the logarithms taken, and the sums in source order.
struct Build<'p> {
    rates: [RateLogs; 4],
    logs: u64,
    base1: f64,
    base0: f64,
    prior_sum: f64,
    prior: Option<&'p ShrinkagePrior>,
}

impl Build<'_> {
    /// Writes source `s`'s three pairs into `row`: its claim pair when
    /// `claims`, its dependent pairs when `deps`, and the rest
    /// [`LEFT_OUT`]. Adds its `ln(1−a)`, `ln(1−b)` and, with a prior, its
    /// prior term to the sums and returns them.
    #[inline(always)]
    fn source(
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
        let sums = [ln_1a, ln_1b, prior_term];
        self.add(sums);
        sums
    }

    /// Adds one source's `ln(1−a)`, `ln(1−b)` and prior term to the sums.
    #[inline(always)]
    fn add(&mut self, [ln_1a, ln_1b, prior_term]: [f64; 3]) {
        self.base1 += ln_1a;
        self.base0 += ln_1b;
        self.prior_sum += prior_term;
    }
}

/// Whether two sources' rates have the same bits.
pub(crate) fn same_rates(p: &SourceParams, q: &SourceParams) -> bool {
    [p.a, p.b, p.f, p.g].map(f64::to_bits) == [q.a, q.b, q.f, q.g].map(f64::to_bits)
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

    /// Builds the tables for `theta`, filling source `i`'s claim terms
    /// only when `has_claims(i)` and its dependent-cell and
    /// dependent-claim terms only when `has_deps(i)`. Each filled term is
    /// the same subtraction [`new`](Self::new) performs, so every column
    /// that reads only filled terms evaluates to the same bits.
    pub(crate) fn compact(
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
    ) -> Self {
        let mut tables = Self::empty();
        tables.fill(theta, has_claims, has_deps, None, &[]);
        tables
    }

    /// Tables over no source, for a buffer that [`refill`](Self::refill)
    /// fills.
    pub(crate) fn empty() -> Self {
        Self {
            terms: Vec::new(),
            base1: 0.0,
            base0: 0.0,
            ln_z: 0.0,
            ln_1z: 0.0,
            log_prior: 0.0,
            logs: 0,
            source_evals: 0,
            class_sums: Vec::new(),
        }
    }

    /// Rebuilds the tables in place for evaluating `layout`'s columns
    /// under `theta`, as [`for_data`](Self::for_data) builds them for the
    /// layout's data. With a `prior`, also sums the log-prior of `theta`,
    /// read back by [`log_prior`](Self::log_prior); every source's terms
    /// are then filled, since the prior reads them all. A copy in one of
    /// the layout's source classes whose rates have its leader's bits
    /// takes the leader's terms.
    pub(crate) fn refill(
        &mut self,
        theta: &Theta,
        layout: &ClaimLayout,
        prior: Option<&ShrinkagePrior>,
    ) {
        self.fill(
            theta,
            |i| layout.has_claims(i),
            |i| layout.has_deps(i),
            prior,
            &layout.shared,
        );
    }

    /// Fills the tables for `theta` in place, as
    /// [`compact`](Self::compact) builds them, also summing the log-prior
    /// when a `prior` is given: `s` times the per-source
    /// [`ShrinkagePrior::source_term`]s, folded in source order from
    /// `0.0`. The prior reuses the logarithms the terms take, so with one
    /// every term of every source is filled. Each logarithm is reused
    /// from the previous source computed when its rate has the same bits.
    ///
    /// `shared` lists the members of the source classes, in source order
    /// ([`ClaimLayout`]). A leader's `ln(1−a)`, `ln(1−b)` and prior term
    /// are kept for its class; a copy whose rates have its leader's bits
    /// takes the leader's three pairs and adds the kept sums at its own
    /// place in the order, so every sum has the bits of a build without
    /// classes. The other sources run the same loop as without classes.
    fn fill(
        &mut self,
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
        prior: Option<&ShrinkagePrior>,
        shared: &[Shared],
    ) {
        let mut build = Build {
            rates: Default::default(),
            logs: 0,
            base1: 0.0,
            base0: 0.0,
            prior_sum: 0.0,
            prior,
        };
        let sources = theta.sources();
        let n = sources.len();
        // The prior reads every term.
        let all = prior.is_some();
        let claims = |i| all || has_claims(i);
        let deps = |i| all || has_deps(i);
        let mut copies = 0;
        self.terms.resize(3 * n, LEFT_OUT);
        self.class_sums.clear();
        for (run, member) in runs(0..n, shared.iter()) {
            let rows = self.terms[3 * run.start..3 * run.end].chunks_exact_mut(3);
            for (i, (s, row)) in run.clone().zip(sources[run].iter().zip(rows)) {
                build.source(s, row, claims(i), deps(i));
            }
            let Some(member) = member else {
                break;
            };
            let (i, leader) = (member.source as usize, member.leader as usize);
            if i != leader && same_rates(&sources[i], &sources[leader]) {
                self.terms.copy_within(3 * leader..3 * leader + 3, 3 * i);
                build.add(self.class_sums[member.class as usize]);
                copies += 1;
            } else {
                let row = &mut self.terms[3 * i..3 * i + 3];
                let sums = build.source(&sources[i], row, claims(i), deps(i));
                // Classes are numbered in the order of their leaders.
                if i == leader {
                    self.class_sums.push(sums);
                }
            }
        }
        self.base1 = build.base1;
        self.base0 = build.base0;
        self.ln_z = safe_ln(theta.z());
        self.ln_1z = safe_ln_1m(theta.z());
        self.log_prior = prior.map_or(0.0, |p| p.smoothing * build.prior_sum);
        self.logs = build.logs + 2;
        self.source_evals = (n - copies) as u64;
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

    /// The sources whose terms the last build computed, leaving out the
    /// copies that took their leader's.
    pub(crate) fn source_evals(&self) -> u64 {
        self.source_evals
    }

    /// Number of sources the tables cover.
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

    /// [`column`](Self::column) for a column given by its
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

/// A member of a source class of two or more ([`ClaimLayout`]): the
/// class's first source, its *leader*, or one of its *copies*.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shared {
    pub source: u32,
    pub leader: u32,
    /// The class, numbered in the order of the leaders.
    pub class: u32,
}

impl Shared {
    /// Whether the member is a copy of its leader.
    pub(crate) fn is_copy(&self) -> bool {
        self.source != self.leader
    }
}

/// Splits `range` at `members`, which lie in it in source order: each
/// run of sources before a member, paired with that member, then the run
/// after the last member, paired with `None`.
pub(crate) fn runs<'a>(
    range: Range<usize>,
    members: impl Iterator<Item = &'a Shared>,
) -> impl Iterator<Item = (Range<usize>, Option<&'a Shared>)> {
    let mut from = range.start;
    members.map(Some).chain([None]).map(move |member| {
        let to = member.map_or(range.end, |m| m.source as usize);
        let run = from..to;
        from = to + 1;
        (run, member)
    })
}

/// `SC` and `D` arranged for EM-Ext's passes, built once per fit.
///
/// * Columns with the same slot list form a *group*. The layout keeps
///   one slot list per group, in the order of the groups' first columns,
///   and the group of every column, so a pass evaluates each distinct
///   column once. Groups are found by sorting the columns by their slot
///   lists.
/// * Per source, it keeps the `D` row, the independent claims and the
///   dependent claims as three sorted lists, so the M-step gathers each
///   sum from its own list without merging `SC` and `D` rows.
/// * Sources whose three lists are all equal form a *class*: the tables
///   (Eqs. 4–5, 9) and the M-step (Eqs. 24–28) see a source only through
///   those lists and its own rates, so a class's sources with equal
///   rates get the same terms and the same update. The layout lists the
///   members of every class of two or more in source order, so each
///   per-source loop does a class's work once. Classes are found by
///   hashing every source's lists and comparing the sources whose hashes
///   are equal.
#[derive(Debug, Clone)]
pub(crate) struct ClaimLayout {
    /// Group `g`'s slots are `group_slots[group_start[g]..group_start[g + 1]]`.
    group_start: Vec<usize>,
    group_slots: Vec<u32>,
    /// The group of each column.
    group_of: Vec<u32>,
    /// Source `i`'s `D` row, independent claims and dependent claims are
    /// the three runs of `row_cols` that `row_start[3i..3i + 4]` bound.
    row_start: Vec<usize>,
    row_cols: Vec<u32>,
    /// The leader and the copies of every class of two or more sources,
    /// in source order.
    shared: Vec<Shared>,
}

impl ClaimLayout {
    /// Lays out `data`.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::DimensionMismatch`] when `data` has more
    /// sources than `u32` slots can index (`u32::MAX / 3`).
    pub(crate) fn new(data: &ClaimData) -> Result<Self, SenseError> {
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
        let col = |j: u32| &col_slots[col_start[j as usize]..col_start[j as usize + 1]];

        // A stable sort by slot list puts equal columns next to each
        // other, each run led by its first column. Point every column at
        // that leader, then number the leaders in column order.
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_by(|&x, &y| col(x).cmp(col(y)));
        let mut group_of = vec![0u32; m];
        for run in order.chunk_by(|&x, &y| col(x) == col(y)) {
            for &j in run {
                group_of[j as usize] = run[0];
            }
        }
        let mut group_start = vec![0];
        let mut group_slots = Vec::new();
        for j in 0..m {
            let leader = group_of[j] as usize;
            group_of[j] = if leader == j {
                group_slots.extend_from_slice(col(j as u32));
                group_start.push(group_slots.len());
                (group_start.len() - 2) as u32
            } else {
                group_of[leader]
            };
        }

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
        let mut layout = Self {
            group_start,
            group_slots,
            group_of,
            row_start,
            row_cols,
            shared: Vec::new(),
        };
        layout.shared = layout.source_classes();
        Ok(layout)
    }

    /// The members of every class of two or more sources, in source
    /// order. Each source in turn looks up an earlier source with equal
    /// lists in a table of leaders keyed by the hash of their lists
    /// (open addressing, never iterated), and joins its class or leads a
    /// class of its own.
    fn source_classes(&self) -> Vec<Shared> {
        const EMPTY: u32 = u32::MAX;
        let n = self.source_count();
        let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
        let mut table = vec![(0u64, EMPTY); 1 << bits];
        let mut leader_of = Vec::with_capacity(n);
        for i in 0..n {
            let (hash, cells) = (self.cells_hash(i), self.source_cells(i));
            // Fibonacci hashing: the product's top bits pick the slot.
            let mut slot = (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
            let leader = loop {
                match table[slot] {
                    (_, EMPTY) => {
                        table[slot] = (hash, i as u32);
                        break i as u32;
                    }
                    (h, l) if h == hash && self.source_cells(l as usize) == cells => break l,
                    _ => slot = (slot + 1) & (table.len() - 1),
                }
            };
            leader_of.push(leader);
        }
        let mut has_copy = vec![false; n];
        for (i, &l) in leader_of.iter().enumerate() {
            has_copy[l as usize] |= l as usize != i;
        }
        // Number the classes in the order of their leaders, each of which
        // comes before its copies.
        let mut class_of = vec![0; n];
        let mut classes = 0;
        let mut shared = Vec::new();
        for (i, &leader) in leader_of.iter().enumerate() {
            let source = i as u32;
            if leader != source {
                let class = class_of[leader as usize];
                shared.push(Shared {
                    source,
                    leader,
                    class,
                });
            } else if has_copy[i] {
                class_of[i] = classes;
                shared.push(Shared {
                    source,
                    leader,
                    class: classes,
                });
                classes += 1;
            }
        }
        shared
    }

    /// A hash of source `i`'s three lists (FNV-1a over their lengths and
    /// cells): sources with equal lists hash alike.
    fn cells_hash(&self, i: usize) -> u64 {
        let bounds = &self.row_start[3 * i..3 * i + 4];
        let lengths = bounds.windows(2).map(|w| (w[1] - w[0]) as u64);
        let cells = self.row_cols[bounds[0]..bounds[3]]
            .iter()
            .map(|&j| u64::from(j));
        lengths.chain(cells).fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Number of sources `n`.
    pub(crate) fn source_count(&self) -> usize {
        (self.row_start.len() - 1) / 3
    }

    /// Number of assertions `m`.
    pub(crate) fn assertion_count(&self) -> usize {
        self.group_of.len()
    }

    /// Number of distinct columns.
    pub(crate) fn group_count(&self) -> usize {
        self.group_start.len() - 1
    }

    /// The slots of every column in group `g`.
    pub(crate) fn group_slots(&self, g: usize) -> &[u32] {
        &self.group_slots[self.group_start[g]..self.group_start[g + 1]]
    }

    /// The group of every column.
    pub(crate) fn group_of(&self) -> &[u32] {
        &self.group_of
    }

    /// Source `i`'s `D` row, independent claims and dependent claims,
    /// each sorted.
    pub(crate) fn source_cells(&self, i: usize) -> (&[u32], &[u32], &[u32]) {
        let run =
            |k: usize| &self.row_cols[self.row_start[3 * i + k]..self.row_start[3 * i + k + 1]];
        (run(0), run(1), run(2))
    }

    /// The leader and the copies of every class of two or more sources,
    /// in source order.
    pub(crate) fn shared(&self) -> &[Shared] {
        &self.shared
    }

    /// The members of [`shared`](Self::shared) in `range`.
    pub(crate) fn shared_in(&self, range: Range<usize>) -> &[Shared] {
        let at = |i: usize| self.shared.partition_point(|m| (m.source as usize) < i);
        &self.shared[at(range.start)..at(range.end)]
    }

    /// Whether source `i` claims anything.
    fn has_claims(&self, i: usize) -> bool {
        self.row_start[3 * i + 1] < self.row_start[3 * i + 3]
    }

    /// Whether source `i` has a `D` cell.
    fn has_deps(&self, i: usize) -> bool {
        self.row_start[3 * i] < self.row_start[3 * i + 1]
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
        /// same bits as under full tables, as through the claim layout's
        /// group slots over refilled tables, and as the on-the-spot
        /// reference kernel, and `column` derives its three outputs from
        /// them exactly as Eqs. 7 and 9 are written.
        #[test]
        fn compact_tables_match_full_tables_bit_for_bit((data, theta) in random_world()) {
            let full = LikelihoodTables::new(&theta);
            let compact = LikelihoodTables::for_data(&theta, &data);
            let layout = ClaimLayout::new(&data).unwrap();
            let mut laid = LikelihoodTables::empty();
            laid.refill(&theta, &layout, None);
            prop_assert_eq!(table_bits(&laid), table_bits(&compact));
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            for j in 0..data.assertion_count() as u32 {
                let (sc, d) = (data.sc().col(j), data.d().col(j));
                let want = column_log_likelihood_reference(&theta, sc, d);
                prop_assert_eq!(bits(compact.column_log_likelihood(sc, d)), bits(want));
                prop_assert_eq!(bits(full.column_log_likelihood(sc, d)), bits(want));
                let slots = layout.group_slots(layout.group_of()[j as usize] as usize);
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

    /// Every term, both base sums and the log-prior, as bits.
    fn table_bits(tables: &LikelihoodTables) -> (Vec<[u64; 2]>, [u64; 3]) {
        let terms = tables.terms.iter().map(|t| t.map(f64::to_bits)).collect();
        let sums = [tables.base1, tables.base0, tables.log_prior].map(f64::to_bits);
        (terms, sums)
    }

    /// The layout's classes, each as its members in source order.
    fn classes_of(layout: &ClaimLayout) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for m in layout.shared() {
            match classes.get_mut(m.class as usize) {
                Some(class) => class.push(m.source),
                None => classes.push(vec![m.source]),
            }
        }
        classes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The layout's classes are exactly the sets of two or more
        /// sources with equal cells, each led by its first source and
        /// numbered in the order of the leaders. A fill that shares a
        /// class's terms, with or without a prior, gives every term, base
        /// sum and log-prior the bits of a fill without classes.
        #[test]
        fn shared_fills_match_unshared_fills_bit_for_bit(
            (data, theta) in random_world(),
            smoothing in 0.0f64..4.0,
            (a, b, f, g) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        ) {
            let layout = ClaimLayout::new(&data).unwrap();
            let n = data.source_count();
            let mut want: Vec<Vec<u32>> = Vec::new();
            for i in 0..n as u32 {
                let same = |k: u32| data.sc().row(k) == data.sc().row(i) && data.d().row(k) == data.d().row(i);
                if (0..i).all(|k| !same(k)) && (i + 1..n as u32).any(same) {
                    want.push((i..n as u32).filter(|&k| same(k)).collect());
                }
            }
            let classes = classes_of(&layout);
            prop_assert_eq!(&classes, &want);
            for m in layout.shared() {
                prop_assert_eq!(m.leader, classes[m.class as usize][0]);
            }

            let prior = ShrinkagePrior { smoothing, rates: [a, b, f, g] };
            for prior in [None, Some(&prior)] {
                let mut shared = LikelihoodTables::empty();
                shared.refill(&theta, &layout, prior);
                let mut plain = LikelihoodTables::empty();
                plain.fill(&theta, |i| layout.has_claims(i), |i| layout.has_deps(i), prior, &[]);
                prop_assert_eq!(table_bits(&shared), table_bits(&plain));
                prop_assert_eq!(plain.source_evals(), n as u64);
                let copied = layout
                    .shared()
                    .iter()
                    .filter(|m| {
                        m.is_copy() && same_rates(theta.source(m.source as usize), theta.source(m.leader as usize))
                    })
                    .count();
                prop_assert_eq!(shared.source_evals(), (n - copied) as u64);
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
