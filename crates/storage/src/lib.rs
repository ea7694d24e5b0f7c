//! Parallel storage substrate for the SDDS reproduction.
//!
//! This crate models the I/O side of the paper's Figure 1 architecture:
//! files striped round-robin across I/O nodes (PVFS-style), each I/O node
//! consisting of a server-side storage cache with sequential prefetching in
//! front of a small RAID array of multi-speed disks.
//!
//! * [`StripingLayout`] — file offset → I/O node mapping (the stripe map the
//!   paper's compiler reads to build access signatures),
//! * [`NodeSet`] — a bitset of I/O nodes (the representation behind the
//!   paper's access signatures),
//! * [`LruCache`] — the replacement structure used by the storage cache,
//! * [`StorageCache`] — per-node cache with sequential prefetch,
//! * [`Placement`] — k-replica object assignment across a shuffled disk
//!   pool with tag locality and a hot-spare reserve,
//! * [`RaidConfig`] — RAID 5 / RAID 10 block fan-out inside a node,
//! * [`IoNode`] — cache + RAID array of policy-managed disks,
//! * [`StorageSystem`] — the full array with access tracking and
//!   event-driven completion delivery.
//!
//! # Example
//!
//! ```
//! use sdds_storage::{FileId, StripingLayout};
//!
//! // Table II: 8 I/O nodes, 64 KB stripes.
//! let layout = StripingLayout::paper_defaults();
//! let nodes = layout.nodes_for_range(FileId(0), 0, 256 * 1024);
//! assert_eq!(nodes.len(), 4); // 4 stripes -> 4 distinct nodes
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

mod cache;
mod error;
mod lru;
mod node;
mod node_set;
mod placement;
mod raid;
pub mod scene;
mod striping;
mod system;

pub use cache::{CacheConfig, CacheOutcome, StorageCache};
pub use error::StorageError;
pub use lru::LruCache;
pub use node::{IoNode, NodeConfig, NodeOp};
pub use node_set::NodeSet;
pub use placement::{ObjectSpec, Placement, PlacementParams};
pub use raid::{MemberRequest, RaidConfig, RaidLevel};
pub use striping::{FileId, StripingLayout};
pub use system::{
    AccessCompletion, AccessId, AccessKind, FileAccess, StorageConfig, StorageSystem,
};
