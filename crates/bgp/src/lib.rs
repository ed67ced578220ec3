//! BGP routing-table substrate.
//!
//! The paper's flow granularity is the *BGP destination network prefix*:
//! every packet is attributed to the longest-matching entry of the routing
//! table collected alongside the packet trace. Sprint's 2001 tables are
//! proprietary, so this crate provides both the table machinery and a
//! calibrated synthetic stand-in:
//!
//! * [`RouteEntry`] / [`Origin`] / [`PeerClass`] — one RIB entry with the
//!   attributes the analysis needs (AS path, origin, peer classification);
//! * [`BgpTable`] — an LPM-indexed RIB over [`eleph_net::CompressedTrieLpm`]
//!   with prefix attribution ([`BgpTable::attribute`]) and unshadowed
//!   address sampling for trace synthesis;
//! * [`LiveBgpTable`] — the FIB: an [`eleph_net::EpochLpm`] plus an
//!   append-only route store. Announce/withdraw batches
//!   ([`RouteUpdate`]) apply incrementally behind an epoch/generation
//!   swap while readers attribute against pinned [`TableView`]s in
//!   O(1), returning [`RouteId`]s; ids are stable (withdrawn ids
//!   retire, re-announced prefixes get fresh ids), which is what
//!   mid-stream re-attribution in `eleph_pipeline` builds on;
//! * [`FrozenBgpTable`] — the name for a generation-0 [`TableView`]
//!   compiled from a table by [`BgpTable::freeze`]: ids run `0..len` in
//!   RIB-dump order, and it is what the packet hot path in `eleph_flow`
//!   attributes against when the routes do not change;
//! * [`dump`] — a line-oriented text RIB format plus a timed update
//!   stream format (write + parse);
//! * [`synth`] — a synthetic table generator whose prefix-length histogram
//!   matches a 2001-era backbone table (~100k entries, mass at /16–/24),
//!   used by every experiment in the reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dump;
mod live;
mod route;
pub mod synth;
mod table;

pub use live::{
    ApplyReport, FrozenBgpTable, LiveBgpTable, RouteId, RouteUpdate, TableView, UpdateBatch,
};
pub use route::{Origin, PeerClass, RouteEntry};
pub use synth::{SynthConfig, DEFAULT_LENGTH_WEIGHTS};
pub use table::BgpTable;
