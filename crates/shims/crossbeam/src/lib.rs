//! Offline drop-in subset of the `crossbeam` scoped-thread API.
//!
//! Since Rust 1.63 the standard library ships scoped threads, so this shim
//! forwards [`scope`] to [`std::thread::scope`]. The closure receives the
//! std [`Scope`](std::thread::Scope) — spawn with `scope.spawn(move || …)`
//! (std's spawn closures take no argument, unlike crossbeam's `|_|`).
//!
//! The `Result` return mirrors crossbeam's signature so call sites can
//! keep their `.expect(…)`; with std scopes a panicking child propagates
//! by panicking the parent at scope exit, so `Err` is never produced.

/// Runs `f` with a scope in which borrowed-data threads can be spawned;
/// all spawned threads are joined before `scope` returns.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(f))
}

/// Re-export for call sites that name the module path explicitly.
pub mod thread {
    pub use super::scope;
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_borrow_and_join() {
        let data = [1u64, 2, 3, 4];
        let mut sums = vec![0u64; 2];
        let (a, b) = sums.split_at_mut(1);
        super::scope(|s| {
            s.spawn(|| a[0] = data[..2].iter().sum());
            s.spawn(|| b[0] = data[2..].iter().sum());
        })
        .expect("scope");
        assert_eq!(sums, vec![3, 7]);
    }
}
