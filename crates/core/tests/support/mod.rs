//! Test helpers shared by several integration suites (`mod support;`).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Runs `body` while another thread's locked transaction shares a lock
/// with it, so that `body`'s first shared→exclusive upgrade of that lock
/// cannot be granted in place and restarts `body`'s closure.
///
/// `hold` runs on the second thread: it must run a locked `transaction`
/// that takes the shared lock (a `query`) and then calls the function it
/// is given, which waits until `runs` — the counter `body`'s closure bumps
/// at the start of every run — reaches 2, and so keeps the shared lock
/// until the second run begins. `body` starts only once `hold` holds it.
pub fn with_second_reader<R>(
    runs: &AtomicU32,
    hold: impl FnOnce(&dyn Fn()) + Send,
    body: impl FnOnce() -> R,
) -> R {
    let held = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            hold(&|| {
                held.store(true, Ordering::Release);
                let deadline = Instant::now() + Duration::from_secs(30);
                while runs.load(Ordering::Acquire) < 2 {
                    assert!(Instant::now() < deadline, "the closure never re-ran");
                    std::thread::yield_now();
                }
            })
        });
        while !held.load(Ordering::Acquire) {
            assert!(!reader.is_finished(), "the reader never took its lock");
            std::thread::yield_now();
        }
        body()
    })
}
