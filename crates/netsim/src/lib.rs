//! Network substrate: the software stand-in for the paper's testbed (§5.2)
//! — a Fat-tree of 10 Tofino switches and 8 servers.
//!
//! The paper's experiments deliberately remove congestion (64-byte packets)
//! and inject losses *proactively* (ECN-marked packets are dropped), so the
//! fabric's only observable behaviours are (a) which edge switches a packet
//! traverses and (b) whether it is dropped in between. This crate models
//! exactly that:
//!
//! * [`topology`] — the topology zoo: the [`Fabric`] contract (routes, hop
//!   counts, link enumeration, role-tagged switch ids) behind the
//!   [`Topology`] enum, with the §5.2 testbed fat-tree, parameterized k-ary
//!   fat-trees, leaf-spine, and imported WAN graphs;
//! * [`clock`] — per-switch clock offsets with NTP-grade precision and the
//!   1-bit epoch timestamp logic of Appendix B;
//! * [`collect`] — the collection cost model of Appendix D.2/F (per-sketch
//!   collection times, per-epoch bandwidth);
//! * [`sim`] — the [`EdgeSite`] trait every edge data plane implements,
//!   and the serial [`Simulator`]: topology plus epoch/seed state, and the
//!   single-threaded replay paths (per-packet and burst) kept as the
//!   reference oracle the differential suites compare the engine against;
//! * [`shard`] — the replay engine production runs: [`ShardedReplay`]
//!   partitions each epoch's flows by ingress edge, replays them in
//!   bursts (one shard by default), and merges a byte-identical
//!   [`EpochReport`];
//! * [`congestion`] — the per-link congestion model: offered load from
//!   every flow's ECMP route, utilization-driven drop probabilities,
//!   structural derates (incast ToRs, browned-out cores, rolling
//!   degradations);
//! * [`queue`] — the time-resolved layer under [`congestion`]: each epoch
//!   splits into discrete slots, per-flow arrival profiles shape the
//!   per-(link, slot) offered load, and a fluid queue per link turns it
//!   into time-correlated drop probabilities plus per-switch queue-depth
//!   telemetry (microbursts, incast ramps, slow drains);
//! * [`impair`] — adversarial fabric impairments (per-link congestion
//!   loss, time-resolved queue loss, Gilbert–Elliott bursty loss,
//!   duplication, bounded reordering, per-edge clock skew), realized per
//!   flow above the hook boundary so the per-packet and burst replays stay
//!   byte-identical under any scenario.

#![forbid(unsafe_code)]

pub mod clock;
pub mod congestion;
pub mod header;
pub mod impair;
pub mod collect;
pub mod queue;
pub mod shard;
pub mod sim;
pub mod topology;

pub use clock::{ClockModel, EpochClock};
pub use congestion::{CongestionModel, CongestionRealization, Derate, Hop, LinkId};
pub use header::{decode_tos, encode_tos, CarriedState, IntShim};
pub use impair::{
    ClockSkew, Duplication, FabricFates, GilbertElliott, ImpairmentSet, LinkLoss,
    Reordering,
};
pub use collect::CollectionModel;
pub use queue::{QueueDepthStat, QueueLinkStats, QueueModel, QueueRealization, RedDrop};
pub use shard::{merge_fragments, ReportFragment, ShardTiming, ShardedReplay, Sharding};
pub use sim::{EdgeSite, EpochReport, SimConfig, Simulator, SiteArray};
pub use topology::{
    Fabric, FatTree, KaryFatTree, LeafSpine, SwitchId, SwitchRole, Topology, WanGraph,
};
