//! Shared symbolic-analysis state for the sparse backend.
//!
//! [`AnalysisCache`] is a shared, thread-safe cache of pristine analyzed
//! sparse factorizations keyed by sparsity pattern. Parallel sweep
//! workers solving structurally identical systems (clones of one array)
//! call [`AnalysisCache::sparse`] and get a clone of the one analyzed
//! proto — the symbolic analysis runs once per pattern per sweep, not
//! once per worker. The build closure runs under the cache lock, so the
//! "once" is a guarantee, not a race-prone fast path.

use fefet_numerics::sparse::{CsrPattern, SparseLu};
use std::sync::{Arc, Mutex, MutexGuard};

/// A pattern and its pristine analyzed factorization, never numerically
/// factored: clones hand each worker fresh numeric buffers sharing the
/// `Arc`'d symbolic analysis inside.
#[derive(Debug)]
struct CacheEntry {
    pattern: CsrPattern,
    proto: SparseLu,
}

/// Shared symbolic-analysis cache, cloned by handle (`Arc` inside):
/// every clone sees the same entries, so an array and its per-worker
/// clones share one analysis per pattern.
///
/// Equality is identity (`Arc::ptr_eq`): two caches are equal iff they
/// are the same cache, which is what `SolverOptions` comparison wants.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    inner: Arc<Mutex<Vec<CacheEntry>>>,
}

impl PartialEq for AnalysisCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl AnalysisCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<CacheEntry>> {
        match self.inner.lock() {
            Ok(g) => g,
            // A worker that panicked mid-insert cannot have corrupted
            // the Vec (push is the only mutation); recover and continue.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of cached analyses.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Returns a sparse LU for `pattern`: a clone of the cached proto
    /// when one exists (`hit == true`), otherwise the result of `build`
    /// — which runs **under the cache lock**, so concurrent workers
    /// asking for the same pattern trigger exactly one analysis.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn sparse<E>(
        &self,
        pattern: &CsrPattern,
        build: impl FnOnce() -> Result<SparseLu, E>,
    ) -> Result<(SparseLu, bool), E> {
        let mut g = self.lock();
        if let Some(e) = g.iter().find(|e| e.pattern == *pattern) {
            return Ok((e.proto.clone(), true));
        }
        let proto = build()?;
        g.push(CacheEntry {
            pattern: pattern.clone(),
            proto: proto.clone(),
        });
        Ok((proto, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_builds_once_and_clones_after() {
        let pattern = CsrPattern::from_entries(2, &[(0, 0), (1, 1)]).unwrap();
        let cache = AnalysisCache::new();
        let mut builds = 0;
        for round in 0..3 {
            let (_lu, hit) = cache
                .sparse(&pattern, || {
                    builds += 1;
                    SparseLu::analyze(&pattern)
                })
                .unwrap();
            assert_eq!(hit, round > 0);
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        // A different pattern is a fresh entry.
        let other = CsrPattern::from_entries(3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let (_lu, hit) = cache.sparse(&other, || SparseLu::analyze(&other)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_handles_share_entries_and_compare_by_identity() {
        let cache = AnalysisCache::new();
        let handle = cache.clone();
        assert_eq!(cache, handle);
        assert_ne!(cache, AnalysisCache::new());
        let pattern = CsrPattern::from_entries(1, &[(0, 0)]).unwrap();
        cache
            .sparse(&pattern, || SparseLu::analyze(&pattern))
            .unwrap();
        assert_eq!(handle.len(), 1, "clone must see the shared entry");
    }
}
