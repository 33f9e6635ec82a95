//! # relc-containers — the container substrate for data representation
//! synthesis
//!
//! This crate implements §3 of *Concurrent Data Representation Synthesis*
//! (PLDI 2012): the container interface (`lookup` / `scan` / `write`), the
//! concurrency-safety taxonomy of Figure 1 that the synthesis compiler
//! consumes, and the structures an edge is laid out in, **written from
//! scratch**.
//!
//! The paper's containers are Java library classes. Here a
//! [`ContainerKind`] names one of them: its Figure 1 row
//! ([`ContainerKind::props`]) decides which locks an edge of that kind
//! needs, and its [`EdgeShape`] decides the edge's physical layout — one
//! of three, each a [`VersionIndex`] whose entries embed their MVCC
//! version chains:
//!
//! | Shape | Kinds | Structure |
//! |---|---|---|
//! | [`EdgeShape::Hashed`] | `HashMap`, `ConcurrentHashMap` | split-ordered hash list, lock-free readers |
//! | [`EdgeShape::Sorted`] | `TreeMap`, `ConcurrentSkipListMap`, `CopyOnWriteArrayList`, `SplayTreeMap` | lock-free skip list, sorted scans |
//! | [`EdgeShape::OneEntry`] | `Singleton` | one inline version chain |
//!
//! Each shape is safe for unlocked readers and for writers of different
//! keys at once, so it serves every kind's lock placement.
//! [`ContainerKind::instantiate`] builds the standalone map of a kind's
//! shape — a [`StripedHashMap`] or a [`ConcurrentSkipListMap`] — for
//! callers that want a plain concurrent map.
//!
//! # Example
//!
//! ```
//! use relc_containers::{Container, ContainerKind};
//! use std::ops::ControlFlow;
//!
//! let m: Box<dyn Container<i64, &'static str>> =
//!     ContainerKind::ConcurrentSkipListMap.instantiate();
//! m.write(&2, Some("b"));
//! m.write(&1, Some("a"));
//! let mut out = Vec::new();
//! m.scan(&mut |k, v| { out.push((*k, *v)); ControlFlow::Continue(()) });
//! assert_eq!(out, vec![(1, "a"), (2, "b")]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod api;
mod skiplist;
mod split_list;
mod striped_hash;
mod version;

pub mod extsync;
pub mod hashing;
pub mod taxonomy;
pub mod testsupport;

/// Re-export of the epoch-reclamation pin API, for runtime layers that
/// traverse epoch-managed structures (e.g. [`VersionCell`] chains)
/// directly rather than through a container method.
pub mod epoch {
    pub use crossbeam::epoch::{pin, Guard};
}

/// Hints the CPU to start loading the cache line holding `p` into every
/// cache level, and returns at once: a reader that knows the addresses it
/// will touch next issues their misses together instead of one after
/// another. It never reads through `p` as far as the program can tell, so
/// any address — dangling, null, unaligned — is fine. Does nothing where no
/// prefetch instruction is wired up (anywhere but x86_64).
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults and has no effect the
    // program can observe besides timing, whatever address it is given.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

pub use api::{
    reclamation_flush, reclamation_stats, Container, ContainerKind, EdgeShape, Key,
    ReclamationStats, Val,
};
pub use skiplist::ConcurrentSkipListMap;
pub use striped_hash::StripedHashMap;
pub use taxonomy::{render_figure1, ContainerProps, OpKind, OpPair, PairSafety};
pub use version::{version_stats, Newest, VersionCell, VersionIndex, VersionStats};
