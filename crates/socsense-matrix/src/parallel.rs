//! Deterministic data-parallel helpers for the workspace's hot loops.
//!
//! Every numeric kernel in this workspace (EM posteriors, M-step
//! accumulators, Gibbs bounds, exact-bound enumeration, repeated
//! experiments) promises *bit-identical* results for a given seed. A
//! conventional work-stealing parallel reduction breaks that promise:
//! floating-point addition is not associative, so any merge order that
//! depends on thread scheduling or worker count changes the last ulps
//! of the result.
//!
//! This module restores the promise by construction:
//!
//! 1. **Chunk boundaries are a pure function of the problem size.**
//!    [`chunk_len`] derives the chunk size from `len` alone — never
//!    from the worker count — so the same input always produces the
//!    same chunk decomposition.
//! 2. **Chunk results are merged in chunk-index order.** Workers race
//!    only over *which chunk they compute*, never over where results
//!    land: each chunk writes into its own slot and the caller folds
//!    the slots left-to-right.
//! 3. **The serial path runs the identical chunked loop.** With one
//!    worker, the same chunks are evaluated in the same order with the
//!    same merge, so `Parallelism::Serial`, `Threads(1)`, and
//!    `Threads(n)` are all bit-identical, and `Auto` matches them on
//!    any machine.
//!
//! Workers are plain `std::thread::scope` threads over a shared
//! `Mutex`-held job list — no unsafe, no external dependency, and no
//! pool to keep alive between calls. That makes every threaded call pay
//! for opening a scope and spawning and joining its workers: about
//! 60 µs per 2-thread call on a 2-vCPU host, as much as a serial EM
//! iteration spends on several hundred assertions. This cost is why the
//! serving tiers run EM at [`Parallelism::Serial`]. A call that resolves
//! to one worker runs inline and spawns nothing.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// How much parallelism a compute kernel may use.
///
/// The choice never affects numeric results — only wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use every core the OS reports (`available_parallelism`).
    #[default]
    Auto,
    /// Single-threaded; still runs the chunked loop, so results match
    /// the threaded paths exactly.
    Serial,
    /// A fixed worker count (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// Worker threads to use for `jobs` independent jobs.
    pub fn worker_count(self, jobs: usize) -> usize {
        let raw = match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => available_cores(),
        };
        raw.min(jobs.max(1))
    }
}

/// The core count [`Parallelism::Auto`] uses, asked of the OS once per
/// process: `available_parallelism` reads the scheduler affinity and the
/// cgroup quota on every call (15–25 µs on a 2-vCPU Linux host).
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Fixed number of chunks a length is split into (before the one-item
/// minimum chunk size takes over for short inputs). Chosen so that even
/// a 16-way machine gets several chunks per worker for load balance.
const TARGET_CHUNKS: usize = 64;

/// Chunk size for a problem of `len` items — a pure function of `len`,
/// deliberately independent of worker count (see module docs).
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(1)
}

/// The fixed chunk decomposition of `0..len`, in index order.
pub fn chunk_ranges(len: usize) -> Vec<Range<usize>> {
    let size = chunk_len(len);
    (0..len)
        .step_by(size)
        .map(|start| start..(start + size).min(len))
        .collect()
}

/// Runs `f` over every fixed chunk of `0..len` and returns the chunk
/// results **in chunk-index order**, regardless of which worker
/// computed which chunk.
pub fn par_chunks<A, F>(par: Parallelism, len: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
{
    run_indexed(par, chunk_ranges(len), &f)
}

/// Maps `f` over `0..len` and collects the results in index order.
pub fn par_map_collect<T, F>(par: Parallelism, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_chunks(par, len, |range| range.map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Chunked ordered map-reduce: evaluates `chunk_eval` on every fixed
/// chunk, then folds the chunk results left-to-right from `init`. The
/// fold order equals the chunk order, so the reduction is deterministic
/// for non-associative (floating-point) merges.
pub fn par_map_reduce<A, F, M>(par: Parallelism, len: usize, init: A, chunk_eval: F, merge: M) -> A
where
    A: Send,
    F: Fn(Range<usize>) -> A + Sync,
    M: FnMut(A, A) -> A,
{
    par_chunks(par, len, chunk_eval)
        .into_iter()
        .fold(init, merge)
}

/// Fills `out[i] = f(i)` for every index, chunked like the other
/// helpers. Each worker owns a disjoint `chunks_mut` slice, so no
/// synchronisation touches the output data itself.
pub fn par_fill<T, F>(par: Parallelism, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_fill_reduce(
        par,
        out,
        (),
        |range, slice| {
            for (cell, i) in slice.iter_mut().zip(range) {
                *cell = f(i);
            }
        },
        |(), ()| (),
    );
}

/// Fills `out` and reduces over it in one pass: `fill(range, slice)`
/// writes `out[range]` (handed over as `slice`) and returns that chunk's
/// partial result, and the partials fold left-to-right from `init`.
///
/// The chunks are those of [`chunk_ranges`]`(out.len())` and the fold
/// runs in chunk order, so a chunk-local sum folded here has the same
/// bits as the same sum through [`par_map_reduce`], at every level.
/// With one worker the chunks run inline, in order, without allocating.
pub fn par_fill_reduce<T, A, F, M>(
    par: Parallelism,
    out: &mut [T],
    init: A,
    fill: F,
    mut merge: M,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(Range<usize>, &mut [T]) -> A + Sync,
    M: FnMut(A, A) -> A,
{
    let size = chunk_len(out.len());
    let chunks = out.chunks_mut(size).enumerate();
    if par.worker_count(chunks.len()) <= 1 {
        return chunks.fold(init, |acc, (c, slice)| {
            let start = c * size;
            merge(acc, fill(start..start + slice.len(), slice))
        });
    }
    let jobs: Vec<(usize, &mut [T])> = chunks.map(|(c, slice)| (c * size, slice)).collect();
    run_indexed(par, jobs, &|(start, slice): (usize, &mut [T])| {
        fill(start..start + slice.len(), slice)
    })
    .into_iter()
    .fold(init, merge)
}

/// Executes `f` over `items`, returning results in item order. Workers
/// pull jobs from a shared list; each result lands in the slot of its
/// originating item, so scheduling cannot reorder anything.
fn run_indexed<I, A, F>(par: Parallelism, items: Vec<I>, f: &F) -> Vec<A>
where
    I: Send,
    A: Send,
    F: Fn(I) -> A + Sync,
{
    let jobs = items.len();
    let workers = par.worker_count(jobs);
    if workers <= 1 || jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Jobs are popped from the back; pairing each with its index keeps
    // the output order independent of scheduling.
    let queue: Mutex<Vec<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<A>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().expect("job queue poisoned").pop();
                let Some((idx, item)) = job else {
                    break;
                };
                let out = f(item);
                slots.lock().expect("result slots poisoned")[idx] = Some(out);
            });
        }
        // `std::thread::scope` joins every worker here and re-raises
        // any worker panic in the caller.
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduction whose result is sensitive to summation order: mixing
    /// tiny and huge magnitudes makes non-deterministic merges visible
    /// at the bit level.
    fn order_sensitive_sum(par: Parallelism, len: usize) -> f64 {
        par_map_reduce(
            par,
            len,
            0.0,
            |range| {
                range
                    .map(|i| {
                        if i % 3 == 0 {
                            1e16
                        } else {
                            1.0 + i as f64 * 1e-8
                        }
                    })
                    .sum::<f64>()
            },
            |a, b| a + b,
        )
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large sweep is too slow under Miri; the smaller thread tests still run"
    )]
    fn all_parallelism_levels_are_bit_identical() {
        for len in [0, 1, 7, 64, 65, 1000, 4099] {
            let serial = order_sensitive_sum(Parallelism::Serial, len);
            for par in [
                Parallelism::Auto,
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Threads(8),
            ] {
                let threaded = order_sensitive_sum(par, len);
                assert_eq!(
                    serial.to_bits(),
                    threaded.to_bits(),
                    "len {len}, {par:?}: {serial} != {threaded}"
                );
            }
        }
    }

    #[test]
    fn chunk_boundaries_depend_only_on_len() {
        let ranges = chunk_ranges(1000);
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert_eq!(ranges.last().map(|r| r.end), Some(1000));
        let mut expected_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expected_start, "chunks must tile the range");
            expected_start = r.end;
        }
        // Short inputs degrade to one-item chunks, never zero-length.
        assert_eq!(chunk_len(3), 1);
        assert_eq!(chunk_ranges(0).len(), 0);
        assert_eq!(chunk_ranges(1), vec![0..1]);
    }

    #[test]
    fn par_map_collect_preserves_index_order() {
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let out = par_map_collect(par, 500, |i| i * i);
            assert_eq!(out.len(), 500);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn par_fill_writes_every_slot() {
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            let mut out = vec![0u64; 777];
            par_fill(par, &mut out, |i| i as u64 + 1);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        }
        let mut empty: Vec<u64> = Vec::new();
        par_fill(Parallelism::Threads(4), &mut empty, |i| i as u64);
        assert!(empty.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "large sweep is too slow under Miri")]
    fn par_fill_reduce_fills_and_folds_like_par_map_reduce() {
        let term = |i: usize| {
            if i.is_multiple_of(3) {
                1e16
            } else {
                1.0 + i as f64 * 1e-8
            }
        };
        for len in [0, 1, 7, 64, 65, 1000, 4099] {
            let expected = order_sensitive_sum(Parallelism::Serial, len);
            for par in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(4),
            ] {
                let mut out = vec![0.0f64; len];
                let sum = par_fill_reduce(
                    par,
                    &mut out,
                    0.0,
                    |range, slice| {
                        let mut sum = 0.0;
                        for (cell, i) in slice.iter_mut().zip(range) {
                            *cell = term(i);
                            sum += *cell;
                        }
                        sum
                    },
                    |a, b| a + b,
                );
                assert_eq!(sum.to_bits(), expected.to_bits(), "len {len}, {par:?}");
                assert!(out.iter().enumerate().all(|(i, &v)| v == term(i)));
            }
        }
    }

    #[test]
    fn worker_count_respects_mode_and_job_count() {
        assert_eq!(Parallelism::Serial.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(100), 4);
        assert_eq!(Parallelism::Threads(0).worker_count(100), 1);
        assert_eq!(Parallelism::Threads(8).worker_count(2), 2);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map_collect(Parallelism::Threads(2), 8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
