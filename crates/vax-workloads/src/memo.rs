//! The process-wide memo that machine builds share their code and their
//! images through: bounded, first in first out, and single-flight.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A resident value, or a build in flight (`None`) that callers asking
/// for the same key wait for.
struct Entry<K, V> {
    key: K,
    value: Option<V>,
}

/// A memo from keys to shared values.
///
/// - **Bounded:** resident values weigh at most `budget` units in all
///   (`weigh` says what a value costs); the oldest goes first, and a
///   value heavier than the whole budget is returned but not kept.
/// - **Single-flight:** a caller asking for a key that another thread
///   is building waits for that build instead of running its own. A
///   failed or panicking build withdraws its claim, so its waiters
///   build for themselves rather than wait forever.
///
/// The lock is held for lookups and inserts only, never during a
/// build, so builds of different keys run in parallel.
pub(crate) struct Memo<K, V> {
    entries: Mutex<VecDeque<Entry<K, V>>>,
    settled: Condvar,
    budget: usize,
    weigh: fn(&V) -> usize,
}

impl<K: PartialEq + Clone, V: Clone> Memo<K, V> {
    pub(crate) const fn new(budget: usize, weigh: fn(&V) -> usize) -> Memo<K, V> {
        Memo {
            entries: Mutex::new(VecDeque::new()),
            settled: Condvar::new(),
            budget,
            weigh,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Entry<K, V>>> {
        // Builds run outside the lock, and lookups and inserts cannot
        // leave the memo half-updated, so a poisoned lock is still sound.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value for `key`: the resident one, the one a concurrent build
    /// of `key` produces, or else what `build` returns. Errors are not
    /// memoized.
    pub(crate) fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut entries = self.lock();
        loop {
            match entries.iter().find(|e| e.key == key) {
                Some(Entry { value: Some(v), .. }) => return Ok(v.clone()),
                Some(Entry { value: None, .. }) => {
                    entries = self
                        .settled
                        .wait(entries)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        entries.push_back(Entry {
            key: key.clone(),
            value: None,
        });
        drop(entries);
        let mut claim = Claim {
            memo: self,
            key,
            settled: false,
        };
        let value = build()?;
        claim.settle(value.clone());
        Ok(value)
    }

    /// Resident values (builds in flight are not counted).
    pub(crate) fn len(&self) -> usize {
        self.lock().iter().filter(|e| e.value.is_some()).count()
    }

    /// Total weight of the resident values (at most the budget).
    pub(crate) fn weight(&self) -> usize {
        Self::weight_of(&self.lock(), self.weigh)
    }

    fn weight_of(entries: &VecDeque<Entry<K, V>>, weigh: fn(&V) -> usize) -> usize {
        entries
            .iter()
            .filter_map(|e| e.value.as_ref())
            .map(weigh)
            .sum()
    }
}

/// One caller's claim to build a key: settled with the value, or
/// withdrawn when dropped unsettled (the build failed or panicked).
struct Claim<'a, K: PartialEq + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: K,
    settled: bool,
}

impl<K: PartialEq + Clone, V: Clone> Claim<'_, K, V> {
    /// Fill the claimed entry, then drop the oldest resident values
    /// until the rest fit the budget.
    fn settle(&mut self, value: V) {
        let memo = self.memo;
        let mut entries = memo.lock();
        let claimed = entries
            .iter_mut()
            .find(|e| e.value.is_none() && e.key == self.key);
        if let Some(entry) = claimed {
            entry.value = Some(value);
        }
        while Memo::weight_of(&entries, memo.weigh) > memo.budget {
            let Some(oldest) = entries.iter().position(|e| e.value.is_some()) else {
                break;
            };
            entries.remove(oldest);
        }
        self.settled = true;
        memo.settled.notify_all();
    }
}

impl<K: PartialEq + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        if !self.settled {
            let mut entries = self.memo.lock();
            entries.retain(|e| e.value.is_some() || e.key != self.key);
            self.memo.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_and_panicking_builds_withdraw_their_claims() {
        let memo: Memo<u32, u32> = Memo::new(10, |_| 1);
        assert_eq!(memo.get_or_build(1, || Err("no")), Err("no"));
        let panicked = std::panic::catch_unwind(|| {
            let _ = memo.get_or_build(1, || -> Result<u32, ()> { panic!("build failed") });
        });
        assert!(panicked.is_err());
        assert_eq!(memo.len(), 0);
        // Nothing is left in flight: the next caller builds at once.
        assert_eq!(memo.get_or_build(1, || Ok::<_, ()>(7)), Ok(7));
        assert_eq!(memo.get_or_build(1, || Ok::<_, ()>(8)), Ok(7));
    }

    #[test]
    fn the_oldest_values_go_first_and_an_oversized_one_is_not_kept() {
        let memo: Memo<u32, u32> = Memo::new(10, |&v| v as usize);
        for key in 1..=4 {
            memo.get_or_build(key, || Ok::<_, ()>(4)).unwrap();
            assert!(memo.weight() <= 10);
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get_or_build(3, || Ok::<_, ()>(0)), Ok(4), "3 stayed");
        assert_eq!(memo.get_or_build(1, || Ok::<_, ()>(0)), Ok(0), "1 went");
        assert_eq!(memo.get_or_build(9, || Ok::<_, ()>(11)), Ok(11));
        assert_eq!(memo.get_or_build(9, || Ok::<_, ()>(1)), Ok(1), "not kept");
    }
}
