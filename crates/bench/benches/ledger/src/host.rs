//! Steadies the host before anything is measured: one CPU, one malloc
//! arena. Both are settings of the measurement, identical for every commit
//! the benchmark compares, and both must be applied before the first
//! thread is spawned.
//!
//! **One CPU.** The kernel under test runs at most one simulated thread at
//! a time (`crates/sim/src/kernel.rs`, "cooperative serialization"), so a
//! second CPU buys the simulator nothing — it only turns every thread
//! hand-off into a cross-CPU wake-up. On the 2-vCPU reference box that
//! made the same iteration 1.4-2.7x slower than on one CPU and let its
//! wall time drift by 2x within an hour, which no regression bound
//! survives. Threads inherit the mask, so pinning once covers every
//! simulated thread.
//!
//! **One arena.** glibc gives short-lived threads their own malloc arenas
//! and never trims them; which thread lands in which arena depends on
//! exit timing, so the resident set of one deterministic iteration ranged
//! 24-65 MB on `serving_burst` and grew from iteration to iteration. With
//! a single arena it reads 19 MB every time. Nothing runs in parallel, so
//! the arena lock is never contended.

/// CPUs the mask can describe; a wider machine still pins, to one of the
/// first 1,024.
const MASK_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    // From libc, which std already links. `cpu_set_t` is an array of
    // `unsigned long` bit words; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it later spawns) to the
/// highest-numbered CPU it is allowed on — interrupts tend to land on the
/// lowest — and returns that CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let os_error = |call: &str| format!("{call}: {}", std::io::Error::last_os_error());
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed, and the call writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed,
    // and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for 64-bit Linux only".to_owned())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    // glibc's malloc tuning knob; returns 1 on success.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Limits glibc malloc to its main arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() -> Result<(), String> {
    /// `M_ARENA_MAX` from `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two plain integers and only updates malloc's
    // own parameters; it is called before any other thread exists.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX, 1) was refused".to_owned())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() -> Result<(), String> {
    Err("malloc arenas are a glibc setting".to_owned())
}
