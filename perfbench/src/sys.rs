//! Peak resident memory, read from the kernel's resource accounting.
//!
//! `std` exposes neither `wait4` nor `getrusage`, so both are declared
//! here. The layout of `struct rusage` is the Linux one for 64-bit
//! targets: two `timeval`s (16 bytes each) followed by 14 `long`s, of
//! which the first, `ru_maxrss`, is the peak resident set in KiB.

use std::io;
use std::process::{Child, ExitStatus};

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of this process so far, MiB.
pub fn self_peak_rss_mb() -> f64 {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage` (module docs), which is all `getrusage`
    // writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage.maxrss as f64 / 1024.0
}

/// Waits for `child` to exit and returns its exit status and its peak
/// resident memory in MiB.
///
/// `child` must not have been waited for already: this reaps it.
pub fn wait_with_peak_rss(child: Child) -> io::Result<(ExitStatus, f64)> {
    use std::os::unix::process::ExitStatusExt;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable values of the
        // types `wait4` writes (`int` and `struct rusage`, see the module
        // docs); `pid` names our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    Ok((ExitStatus::from_raw(status), usage.maxrss as f64 / 1024.0))
}
