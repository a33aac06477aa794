//! Exhaustive-interleaving model of the router's epoch/drain handshake
//! (`socsense-serve::router`), in the style of a loom test. The real
//! loom crate is not vendored, so this harness does what loom does for
//! our protocol by hand: it models the router and its shards as
//! explicit state machines with FIFO channels and runs a depth-first
//! search over every scheduler choice, asserting the protocol
//! invariant in every reachable state.
//!
//! ## The protocol under test
//!
//! One ingest epoch: the router sends every *involved* shard an
//! `Ingest { epoch, reply }` and every uninvolved shard a bare
//! `Epoch(epoch)` marker, then blocks until the involved shards ack
//! (the drain barrier). Queries are sent afterwards, stamped with the
//! router's epoch; a shard replies with its own epoch, and the router
//! rejects any mismatch as "fan-out reply from a different epoch".
//!
//! ## The property
//!
//! **No lost epoch marker**: in every interleaving, by the time a
//! shard processes a query stamped with epoch `E`, the shard's own
//! epoch is `E`. The barrier only waits for *involved* shards, so the
//! property rides entirely on channel FIFO order for the uninvolved
//! ones — which is exactly the kind of reasoning that deserves
//! exhaustive checking rather than a few lucky schedules.
//!
//! A negative control removes the markers (uninvolved shards receive
//! nothing) and asserts the search *finds* the stale-epoch violation,
//! proving the harness can catch the bug class it exists for.
//!
//! ## Bounds
//!
//! Under plain `cargo test` the model runs small bounds (2 shards, all
//! involved-set plans over 2 epochs). Under `RUSTFLAGS=--cfg loom` it
//! runs the deep bounds (3 shards, 3 epochs) — the CI loom lane.

#![allow(clippy::disallowed_types)]

use std::collections::{HashSet, VecDeque};

#[cfg(loom)]
const SHARDS: usize = 3;
#[cfg(not(loom))]
const SHARDS: usize = 2;

#[cfg(loom)]
const EPOCHS: u64 = 3;
#[cfg(not(loom))]
const EPOCHS: u64 = 2;

/// A message in a shard's FIFO inbox.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Msg {
    /// Cluster operations for `epoch`; the shard acks after applying.
    Ingest { epoch: u64 },
    /// Bare epoch marker for an uninvolved shard; no ack.
    Epoch(u64),
    /// Query stamped with the router's epoch at send time.
    Query { epoch: u64 },
}

/// One shard: its inbox and the last epoch it observed.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Shard {
    inbox: VecDeque<Msg>,
    epoch: u64,
}

/// One step of the router's (sequential) program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum RouterStep {
    Send {
        shard: usize,
        msg: Msg,
    },
    /// The drain barrier: block until `acks` acks for `epoch` arrived.
    AwaitAcks {
        epoch: u64,
        acks: usize,
    },
}

/// The whole model state. `Hash`/`Eq` let the DFS memoize states so
/// diamond-shaped interleavings are explored once.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    shards: Vec<Shard>,
    /// Remaining router program, executed front to back.
    program: VecDeque<RouterStep>,
    /// `(epoch, count)` acks the router has received.
    acks: Vec<u64>,
}

/// A stale-epoch observation: `(shard, query_epoch, shard_epoch)`.
type Violation = (usize, u64, u64);

/// Compiles a router program from a plan: for each epoch, the set of
/// involved shards. After the last epoch, every shard is queried.
/// `send_markers = false` is the planted bug for the negative control.
fn compile(plan: &[Vec<usize>], shards: usize, send_markers: bool) -> VecDeque<RouterStep> {
    let mut program = VecDeque::new();
    for (i, involved) in plan.iter().enumerate() {
        let epoch = i as u64 + 1;
        for shard in 0..shards {
            if involved.contains(&shard) {
                program.push_back(RouterStep::Send {
                    shard,
                    msg: Msg::Ingest { epoch },
                });
            } else if send_markers {
                program.push_back(RouterStep::Send {
                    shard,
                    msg: Msg::Epoch(epoch),
                });
            }
        }
        program.push_back(RouterStep::AwaitAcks {
            epoch,
            acks: involved.len(),
        });
    }
    let final_epoch = plan.len() as u64;
    for shard in 0..shards {
        program.push_back(RouterStep::Send {
            shard,
            msg: Msg::Query { epoch: final_epoch },
        });
    }
    program
}

/// Explores every interleaving from `state` by DFS, returning the
/// first property violation found (`None` = the property holds in all
/// reachable states). `explored` counts newly visited states.
fn search(state: State, seen: &mut HashSet<State>, explored: &mut u64) -> Option<Violation> {
    if !seen.insert(state.clone()) {
        return None;
    }
    *explored += 1;

    let mut progressed = false;

    // Scheduler choice 1: the router takes its next step (if enabled).
    if let Some(&step) = state.program.front() {
        let enabled = match step {
            RouterStep::Send { .. } => true,
            RouterStep::AwaitAcks { epoch, acks } => {
                state.acks.iter().filter(|&&e| e == epoch).count() >= acks
            }
        };
        if enabled {
            progressed = true;
            let mut next = state.clone();
            next.program.pop_front();
            if let RouterStep::Send { shard, msg } = step {
                next.shards[shard].inbox.push_back(msg);
            }
            if let Some(v) = search(next, seen, explored) {
                return Some(v);
            }
        }
    }

    // Scheduler choice 2..n: any shard with a queued message runs.
    for i in 0..state.shards.len() {
        let Some(&msg) = state.shards[i].inbox.front() else {
            continue;
        };
        progressed = true;
        let mut next = state.clone();
        next.shards[i].inbox.pop_front();
        match msg {
            Msg::Ingest { epoch } => {
                next.shards[i].epoch = epoch;
                next.acks.push(epoch);
            }
            Msg::Epoch(epoch) => next.shards[i].epoch = epoch,
            Msg::Query { epoch } => {
                // The property: a query stamped `epoch` must find the
                // shard already at `epoch` — the marker (or ingest)
                // sent before it on the same FIFO channel arrived.
                if next.shards[i].epoch != epoch {
                    return Some((i, epoch, next.shards[i].epoch));
                }
            }
        }
        if let Some(v) = search(next, seen, explored) {
            return Some(v);
        }
    }

    // A state with work left but no enabled step would be a deadlock —
    // e.g. an AwaitAcks that can never be satisfied.
    assert!(
        progressed || state.program.is_empty(),
        "deadlock: router blocked with idle shards in {state:?}"
    );
    None
}

/// All involved-set plans: the cartesian product of the subsets of
/// `0..shards` over `epochs` epochs (the empty set included — that is
/// the wedge path's bare marker broadcast).
fn all_plans(shards: usize, epochs: u64) -> Vec<Vec<Vec<usize>>> {
    let subsets: Vec<Vec<usize>> = (0u32..(1 << shards))
        .map(|mask| (0..shards).filter(|&s| mask & (1 << s) != 0).collect())
        .collect();
    let mut plans: Vec<Vec<Vec<usize>>> = vec![Vec::new()];
    for _ in 0..epochs {
        plans = plans
            .iter()
            .flat_map(|p| {
                subsets.iter().map(move |s| {
                    let mut q = p.clone();
                    q.push(s.clone());
                    q
                })
            })
            .collect();
    }
    plans
}

fn run_plan(plan: &[Vec<usize>], send_markers: bool) -> (Option<Violation>, u64) {
    let state = State {
        shards: vec![
            Shard {
                inbox: VecDeque::new(),
                epoch: 0,
            };
            SHARDS
        ],
        program: compile(plan, SHARDS, send_markers),
        acks: Vec::new(),
    };
    let mut seen = HashSet::new();
    let mut explored = 0;
    (search(state, &mut seen, &mut explored), explored)
}

#[test]
fn no_interleaving_loses_an_epoch_marker() {
    let mut total_states = 0u64;
    let plans = all_plans(SHARDS, EPOCHS);
    for plan in &plans {
        let (violation, explored) = run_plan(plan, true);
        assert_eq!(
            violation, None,
            "stale epoch reached a query under plan {plan:?}"
        );
        total_states += explored;
    }
    // The run must be an actual exploration, not a vacuous pass: each
    // plan's interleaving graph has dozens of memoized states even at
    // the small bounds.
    assert!(
        total_states > plans.len() as u64 * 25,
        "suspiciously small state space: {total_states} states over {} plans",
        plans.len()
    );
}

#[test]
fn negative_control_dropping_markers_is_caught() {
    // Uninvolved shards receive no marker: shard 1 sits at epoch 0
    // while the router queries at the final epoch. The search must
    // find that schedule.
    let plan: Vec<Vec<usize>> = (0..EPOCHS).map(|_| vec![0]).collect();
    let (violation, _) = run_plan(&plan, false);
    let (shard, query_epoch, shard_epoch) =
        violation.expect("the search must catch the dropped marker");
    assert_ne!(shard, 0, "the involved shard is never stale");
    assert_eq!(query_epoch, EPOCHS);
    assert_eq!(shard_epoch, 0, "the uninvolved shard never advanced");

    // And a subtler drop: the shard is involved early (so it has
    // *some* epoch) but misses only the final marker.
    let mut plan: Vec<Vec<usize>> = (0..EPOCHS - 1).map(|_| (0..SHARDS).collect()).collect();
    plan.push(vec![0]);
    let (violation, _) = run_plan(&plan, false);
    let (_, query_epoch, shard_epoch) =
        violation.expect("a single missing final marker must also be caught");
    assert_eq!(shard_epoch, query_epoch - 1, "stale by exactly one epoch");
}

/// The wedge path (see `Router::ingest_impl`): an epoch whose cluster
/// operations failed to build is still epoch-marked on every channel,
/// so the fleet stays drainable. Modeled as an all-uninvolved epoch
/// between ordinary ones.
#[test]
fn bare_marker_broadcast_keeps_the_fleet_aligned() {
    let mut plan: Vec<Vec<usize>> = vec![(0..SHARDS).collect()];
    plan.push(Vec::new()); // the failed epoch: markers only
    while (plan.len() as u64) < EPOCHS {
        plan.push(vec![0]);
    }
    let (violation, explored) = run_plan(&plan, true);
    assert_eq!(violation, None, "the marker broadcast epoch must drain");
    assert!(explored > 0);
}
