//! Process-wide heap-allocation counting for the allocations-per-command
//! gauge.
//!
//! [`CountingAllocator`] wraps the system allocator and bumps two relaxed
//! atomics per `alloc`/`realloc`/`alloc_zeroed` call — the call and the
//! bytes it asked for (frees are not counted — the gauges track allocator
//! *pressure*, not live bytes). A binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: atlas_metrics::CountingAllocator = atlas_metrics::CountingAllocator;
//! ```
//!
//! and every `MetricsSnapshot` assembled in that process then carries a
//! live allocation count (see `MetricsSnapshot::alloc_count`); without the
//! opt-in [`allocations`] stays at zero and the gauge reads as absent. The
//! loopback bench installs it so CI can gate allocations-per-command the
//! same way it gates latency — a pooled wire path that silently regresses
//! to per-frame clones moves this counter by orders of magnitude while
//! barely moving a loopback latency number.
//!
//! One counter per *process*: a multi-replica test cluster sees the sum of
//! all of its replicas (plus any in-process clients), which still works as
//! a regression canary — the consumer divides by the same run's executed
//! commands, so only the constant factor is inflated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative allocator calls in this process since start — zero unless
/// [`CountingAllocator`] is installed as the `#[global_allocator]`.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Cumulative bytes requested by the calls [`allocations`] counts (a
/// `realloc` counts its new size).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] that delegates to [`System`] and counts every
/// allocating call (see the module docs for how to install and read it).
pub struct CountingAllocator;

// The only unsafe in the workspace's own crates: forwarding the allocator
// contract verbatim to `System`. Each method upholds exactly the caller's
// own `GlobalAlloc` obligations.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installing the counting allocator for the whole test binary is the
    // test: every other atlas-metrics unit test then also runs under it,
    // proving it forwards the allocator contract faithfully.
    #[global_allocator]
    static ALLOC: CountingAllocator = CountingAllocator;

    #[test]
    fn counts_allocations() {
        let (before, bytes_before) = (allocations(), allocated_bytes());
        let v: Vec<u64> = (0..64).collect();
        let grown = format!("{v:?}");
        assert!(grown.len() > 64);
        let after = allocations();
        assert!(
            after > before,
            "allocating work did not move the counter ({before} -> {after})"
        );
        assert!(allocated_bytes() >= bytes_before + 64 * 8);
    }
}
