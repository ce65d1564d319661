//! Process-level measurements: CPU time, peak resident memory, and the
//! provenance recorded with every result.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage and /proc, so it builds for 64-bit Linux only");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage` (checked by the cfg above), and
    // `RUSAGE_SELF` is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_mb`] covers only what happens after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` from `/proc/self/status`, in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (so nothing outside the checkout is read).
/// `"unknown"` when the working directory is not a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
