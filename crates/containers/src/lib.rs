//! # relc-containers — the container substrate for data representation
//! synthesis
//!
//! This crate implements §3 of *Concurrent Data Representation Synthesis*
//! (PLDI 2012): the container interface (`lookup` / `scan` / `write`), a
//! catalog of container implementations **written from scratch**, and the
//! concurrency-safety taxonomy of Figure 1 that the synthesis compiler
//! consumes.
//!
//! | Paper (JDK) container | This crate | Concurrency |
//! |---|---|---|
//! | `HashMap` | [`ChainedHashMap`] | unsafe under writes |
//! | `TreeMap` | [`AvlTreeMap`] | unsafe under writes, sorted scans |
//! | `ConcurrentHashMap` | [`StripedHashMap`] | linearizable L/W, weak scans |
//! | `ConcurrentSkipListMap` | [`ConcurrentSkipListMap`] | linearizable L/W, weak sorted scans |
//! | `CopyOnWriteArrayList` | [`CowArrayList`] | linearizable, snapshot scans |
//! | splay tree (§3.1 aside) | [`SplayTreeMap`] | even reads are unsafe |
//! | singleton tuples (dotted edges) | [`SingletonCell`] | linearizable |
//!
//! Non-concurrent containers use [`extsync::ExtSyncCell`]: interior
//! mutability whose soundness is discharged by the *synthesized lock
//! placement*, enforced in debug builds by a dynamic race detector.
//!
//! # Example
//!
//! ```
//! use relc_containers::{Container, ContainerKind};
//! use std::ops::ControlFlow;
//!
//! // The synthesizer picks kinds; clients can instantiate them directly too.
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
mod cow_list;
mod hash_map;
mod singleton;
mod skiplist;
mod splay;
mod split_list;
mod striped_hash;
mod tree_map;
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
    reclamation_flush, reclamation_stats, Container, ContainerKind, Key, ReclamationStats, Val,
};
pub use cow_list::CowArrayList;
pub use hash_map::ChainedHashMap;
pub use singleton::SingletonCell;
pub use skiplist::ConcurrentSkipListMap;
pub use splay::SplayTreeMap;
pub use striped_hash::StripedHashMap;
pub use taxonomy::{render_figure1, ContainerProps, OpKind, OpPair, PairSafety};
pub use tree_map::AvlTreeMap;
pub use version::{version_stats, Newest, VersionCell, VersionIndex, VersionStats};
