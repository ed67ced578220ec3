//! IPv4 addressing and longest-prefix-match (LPM) tables.
//!
//! This crate is the routing substrate of the backbone-elephants
//! reproduction. The paper classifies traffic at the granularity of *BGP
//! destination network prefixes*: every packet is attributed to the longest
//! matching routing-table entry for its destination address. Everything
//! needed for that attribution lives here:
//!
//! * [`Prefix`] — a canonical IPv4 CIDR prefix (`10.0.0.0/8`), with the set
//!   algebra (containment, overlap, parent/children) the rest of the system
//!   builds on;
//! * [`Lpm`] — the longest-prefix-match interface, with two updatable
//!   implementations: [`LinearLpm`] (naive reference used as a test
//!   oracle) and [`CompressedTrieLpm`] (path-compressed radix trie, the
//!   updatable RIB);
//! * [`EpochLpm`] — an incrementally updatable DIR-24-8-style table whose
//!   pinned [`LpmSnapshot`]s are the read path of the packet pipeline;
//! * [`PrefixSet`] — an aggregating set of prefixes (used for RIB synthesis
//!   and the prefix-length analysis of the paper's §III).
//!
//! # Choosing a table backend
//!
//! | backend | build cost | update | lookup cost | memory | use when |
//! |---|---|---|---|---|---|
//! | [`LinearLpm`] | O(1)/insert | yes | O(n) scan | ~n | test oracle only |
//! | [`CompressedTrieLpm`] | O(len)/insert | yes | ≤ nesting-depth hops | node per entry | the RIB: exact-match edits, ordered iteration, address sampling |
//! | [`EpochLpm`] | O(n + painted range) bulk build | yes, repaints only the changed prefix's range | **O(1)**: page, slot, and a spill hop only past /24 | 16 KiB per touched 4096-slot page + 1 KiB per spilled /24 | the FIB: per-packet attribution at line rate |
//!
//! The production shape is a router's RIB/FIB split: a
//! [`CompressedTrieLpm`] (inside `eleph_bgp::BgpTable`) is the editable
//! source of truth, and an [`EpochLpm`] built from it
//! ([`EpochLpm::from_entries`], generation 0) serves every lookup. Route
//! churn reaches the FIB as announce/withdraw deltas
//! ([`EpochLpm::apply`]), each published as a new generation; readers
//! [`EpochLpm::pin`] a generation and resolve against it wait-free. The
//! FIB's ids are caller-assigned and double as allocation-free
//! accounting keys (`eleph_bgp::LiveBgpTable`, `eleph_flow::Aggregator`).
//!
//! ## Single vs batched lookups
//!
//! [`LpmSnapshot::lookup_id`] is the right call when addresses arrive
//! one at a time. When the caller already holds a *batch* of addresses —
//! the packet pipeline decodes capture records in chunks — use
//! [`LpmSnapshot::lookup_many`] (or the [`LpmView::lookup_batch`] seam
//! over it): no lane consumes another lane's result, so the table's
//! cache misses for different addresses overlap instead of serialising
//! against the caller's per-packet control flow. It is what
//! `eleph_bgp::TableView::attribute_ids` and the flow aggregator's
//! chunked hot path build on.
//!
//! # Example
//!
//! ```
//! use eleph_net::{Prefix, Lpm, CompressedTrieLpm};
//!
//! let mut table: CompressedTrieLpm<&str> = CompressedTrieLpm::new();
//! table.insert("10.0.0.0/8".parse().unwrap(), "coarse");
//! table.insert("10.1.0.0/16".parse().unwrap(), "fine");
//!
//! let (pfx, val) = table.lookup_addr("10.1.2.3".parse().unwrap()).unwrap();
//! assert_eq!(pfx, "10.1.0.0/16".parse().unwrap());
//! assert_eq!(*val, "fine");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
pub mod epoch;
mod error;
mod linear;
mod prefix;
mod set;

pub use compressed::CompressedTrieLpm;
pub use epoch::{Applied, EpochLpm, LpmDelta, LpmSnapshot};
pub use error::PrefixError;
pub use linear::LinearLpm;
pub use prefix::Prefix;
pub use set::PrefixSet;

use std::net::Ipv4Addr;

/// Longest-prefix-match table interface.
///
/// A table maps [`Prefix`]es to route values `V`; [`Lpm::lookup`] returns
/// the entry with the longest prefix containing the queried address, which
/// is exactly the flow key the paper's methodology assigns to a packet.
pub trait Lpm<V> {
    /// Insert `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    fn insert(&mut self, prefix: Prefix, value: V) -> Option<V>;

    /// Remove the entry for exactly `prefix` (not covering prefixes),
    /// returning its value if present.
    fn remove(&mut self, prefix: Prefix) -> Option<V>;

    /// Exact-match lookup.
    fn get(&self, prefix: Prefix) -> Option<&V>;

    /// Longest-prefix match for a 32-bit address.
    fn lookup(&self, addr: u32) -> Option<(Prefix, &V)>;

    /// Longest-prefix match for an [`Ipv4Addr`].
    fn lookup_addr(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        self.lookup(u32::from(addr))
    }

    /// Number of entries in the table.
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Read-only longest-prefix-match resolution to dense ids, generic over
/// the address family `A`.
///
/// This is the seam the packet pipeline attributes through: a pinned
/// [`LpmSnapshot`] (and `eleph_bgp::TableView` over it) implements it
/// for `A = u32` (IPv4), so downstream attribution
/// (`eleph_flow::attribute_metas`) names no concrete table. An
/// IPv6 backend (e.g. a multi-level-stride table over `A = u128`)
/// plugs in by implementing the same two methods — nothing upstack
/// names the address width.
pub trait LpmView<A> {
    /// Longest-prefix-match id for one address, `None` on miss.
    fn lookup_one(&self, addr: A) -> Option<u32>;

    /// Batched longest-prefix match; `out[i]` receives the id for
    /// `addrs[i]`. Implementations must panic if the lengths differ.
    fn lookup_batch(&self, addrs: &[A], out: &mut [Option<u32>]);
}

/// Convert an IPv4 dotted-quad to its host-order `u32` representation.
#[inline]
pub fn addr_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Convert a host-order `u32` to an IPv4 dotted-quad.
#[inline]
pub fn u32_to_addr(bits: u32) -> Ipv4Addr {
    Ipv4Addr::from(bits)
}
