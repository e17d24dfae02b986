//! Pins the process to one core, for the workloads that ask for it
//! (`Spec::one_core`: the two that measure the code's own CPU path).
//!
//! On a small virtual machine a wake-up that crosses cores goes through the
//! hypervisor (an interrupt to a halted vCPU that the host must first put
//! back on a core), costs more than the work it hands over, and costs a
//! different amount from minute to minute. Measured on the 2-vCPU box this
//! benchmark was calibrated on: pinned to one core `lan_rt` answers in
//! ~95 µs instead of ~180–250 µs, `lan_batch` spends a fifth less CPU per
//! command, and the quartile spread of its p99 over ten runs falls from 25 %
//! to 5 %. One core is also the configuration in which CPU time and wall
//! time say the same thing, so a change to the code's own cost shows
//! one-for-one. The other cores stay free for the kernel and whatever else
//! the machine is doing.

#[allow(unsafe_code)]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The cores the calling thread may run on.
    pub fn allowed() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread; `set` is a live buffer of
        // exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread — and every thread it later creates —
    /// to `set`.
    pub fn restrict(set: &CpuSet) -> bool {
        // SAFETY: as above; the kernel only reads `set`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// The highest-numbered core of `set`. (Alternating runs on core 0 and
/// core 1 of the calibration machine read the same.)
fn last_core(set: &sys::CpuSet) -> Option<usize> {
    (0..set.len() * 64)
        .rev()
        .find(|core| set[core / 64] >> (core % 64) & 1 == 1)
}

/// Pins the calling thread, and so every thread created after this call,
/// to the last core it is allowed on. Returns that core; `None` (nothing
/// changed) if the kernel refuses. Call before the first thread is spawned.
pub fn pin_to_one_core() -> Option<usize> {
    let core = last_core(&sys::allowed()?)?;
    let mut one: sys::CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    sys::restrict(&one).then_some(core)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_core_is_chosen() {
        let mut set: sys::CpuSet = [0; 16];
        assert_eq!(last_core(&set), None);
        set[0] = 0b0101;
        assert_eq!(last_core(&set), Some(2));
        set[1] = 1 << 3;
        assert_eq!(last_core(&set), Some(67));
    }

    #[test]
    fn pinning_a_thread_restricts_it_and_its_children() {
        // On a thread of its own: the test harness's other threads keep
        // their cores.
        std::thread::spawn(|| {
            let core = pin_to_one_core().expect("the kernel lets a thread pin itself");
            let seen_by_child = std::thread::spawn(|| sys::allowed().expect("readable"))
                .join()
                .unwrap();
            let mut expect: sys::CpuSet = [0; 16];
            expect[core / 64] = 1 << (core % 64);
            assert_eq!(seen_by_child, expect);
        })
        .join()
        .unwrap();
    }
}
