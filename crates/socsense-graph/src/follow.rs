//! The directed follow relation between sources.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;

/// A directed "follows" graph over `n` sources.
///
/// Edge `i → k` means *source `i` follows source `k`*; in the paper's
/// terminology `k` is then an **ancestor** of `i` (its claims can influence
/// `i`'s claims). Both directions are indexed: [`ancestors`](Self::ancestors)
/// for the accounts a source follows, [`followers`](Self::followers) for
/// who follows a source.
///
/// Adjacency lists are kept sorted and duplicate-free; self-follows are
/// rejected (a source trivially "repeats" itself, which the model treats
/// as a single claim, not a dependency).
///
/// # Example
///
/// ```
/// use socsense_graph::FollowerGraph;
///
/// let mut g = FollowerGraph::new(3);
/// g.add_follow(0, 2);
/// g.add_follow(1, 2);
/// assert_eq!(g.followers(2), &[0, 1]);
/// assert!(g.follows(0, 2));
/// assert!(!g.follows(2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FollowerGraph {
    n: u32,
    /// ancestors[i] = sorted accounts that i follows.
    ancestors: Vec<Vec<u32>>,
    /// followers[k] = sorted accounts that follow k.
    followers: Vec<Vec<u32>>,
    edges: usize,
}

impl FollowerGraph {
    /// An edgeless graph over `n` sources.
    pub fn new(n: u32) -> Self {
        Self {
            n,
            ancestors: vec![Vec::new(); n as usize],
            followers: vec![Vec::new(); n as usize],
            edges: 0,
        }
    }

    /// Builds a graph from `(follower, followee)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfFollow`]
    /// on invalid edges.
    pub fn from_edges(
        n: u32,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, GraphError> {
        let mut g = Self::new(n);
        for (i, k) in edges {
            g.try_add_follow(i, k)?;
        }
        Ok(g)
    }

    /// Number of sources.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Number of distinct follow edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Records that `follower` follows `followee`. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or a self-follow.
    pub fn add_follow(&mut self, follower: u32, followee: u32) {
        self.try_add_follow(follower, followee)
            .expect("invalid follow edge");
    }

    /// Fallible variant of [`add_follow`](Self::add_follow). Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when a node id is `>= n` and
    /// [`GraphError::SelfFollow`] when `follower == followee`.
    pub fn try_add_follow(&mut self, follower: u32, followee: u32) -> Result<(), GraphError> {
        if follower >= self.n || followee >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: follower.max(followee),
                n: self.n,
            });
        }
        if follower == followee {
            return Err(GraphError::SelfFollow { node: follower });
        }
        let anc = &mut self.ancestors[follower as usize];
        match anc.binary_search(&followee) {
            Ok(_) => return Ok(()), // already present
            Err(pos) => anc.insert(pos, followee),
        }
        let fol = &mut self.followers[followee as usize];
        let pos = fol.binary_search(&follower).unwrap_err();
        fol.insert(pos, follower);
        self.edges += 1;
        Ok(())
    }

    /// Sorted accounts that `source` follows (its ancestors).
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    pub fn ancestors(&self, source: u32) -> &[u32] {
        &self.ancestors[source as usize]
    }

    /// Sorted accounts following `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    pub fn followers(&self, source: u32) -> &[u32] {
        &self.followers[source as usize]
    }

    /// Whether `follower` follows `followee`.
    pub fn follows(&self, follower: u32, followee: u32) -> bool {
        follower < self.n
            && followee < self.n
            && self.ancestors[follower as usize]
                .binary_search(&followee)
                .is_ok()
    }

    /// Out-degree (number of followees) of `source`.
    pub fn followee_count(&self, source: u32) -> usize {
        self.ancestors(source).len()
    }

    /// In-degree (number of followers) of `source`.
    pub fn follower_count(&self, source: u32) -> usize {
        self.followers(source).len()
    }

    /// Iterates over all `(follower, followee)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ancestors
            .iter()
            .enumerate()
            .flat_map(|(i, ks)| ks.iter().map(move |&k| (i as u32, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_follow_is_idempotent_and_bidirectionally_indexed() {
        let mut g = FollowerGraph::new(4);
        g.add_follow(0, 3);
        g.add_follow(0, 3);
        g.add_follow(1, 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.ancestors(0), &[3]);
        assert_eq!(g.followers(3), &[0, 1]);
        assert_eq!(g.follower_count(3), 2);
        assert_eq!(g.followee_count(0), 1);
    }

    #[test]
    fn self_follow_rejected() {
        let mut g = FollowerGraph::new(2);
        assert!(matches!(
            g.try_add_follow(1, 1),
            Err(GraphError::SelfFollow { node: 1 })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = FollowerGraph::new(2);
        assert!(matches!(
            g.try_add_follow(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn from_edges_round_trips_edge_list() {
        let edges = [(0, 1), (2, 1), (2, 0)];
        let g = FollowerGraph::from_edges(3, edges).unwrap();
        let mut collected: Vec<_> = g.edges().collect();
        collected.sort_unstable();
        assert_eq!(collected, vec![(0, 1), (2, 0), (2, 1)]);
    }
}
