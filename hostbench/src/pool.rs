//! The benchmark's host thread pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::layers::ns_since;

/// Runs `f` over `items` on `threads` scoped threads that pull the next
/// index from a shared counter. Results come back in item order. Each
/// thread owns an `S` that `f` may update (the traced run's [`crate::layers::Clock`]);
/// it is returned with the thread's busy time, measured from the thread's
/// start to its last job, so a thread that runs out of work early does not
/// count its idle wait.
pub fn pool_map<I, T, S>(
    items: &[I],
    threads: usize,
    f: impl Fn(usize, &I, &mut S) -> T + Sync,
) -> (Vec<T>, Vec<(S, u64)>)
where
    I: Sync,
    T: Send,
    S: Send + Default,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let threads = threads.clamp(1, items.len().max(1));
    let states = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let start = Instant::now();
                    let mut state = S::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let out = f(i, item, &mut state);
                        *slots[i].lock().expect("a pool worker panicked") = Some(out);
                    }
                    (state, ns_since(start))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a pool worker panicked").expect("every item was run"))
        .collect();
    (results, states)
}
