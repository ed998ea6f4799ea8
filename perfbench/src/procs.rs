//! Process accounting the standard library does not expose: the peak RSS
//! of a reaped child (`wait4`), the benchmark's own CPU time
//! (`getrusage`), a graceful `SIGTERM`, and `VmHWM` of a live process.
//!
//! The `rusage` layout below is the 64-bit Linux one (two `timeval`s
//! followed by fourteen `long`s); the crate refuses to build elsewhere.

use std::io;
use std::process::Child;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process accounting and needs a 64-bit Linux target");

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

impl RUsage {
    fn cpu(&self) -> Duration {
        let us = (self.utime_s + self.stime_s) * 1_000_000 + self.utime_us + self.stime_us;
        Duration::from_micros(us.max(0) as u64)
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
pub const SIGTERM: i32 = 15;

/// How a reaped child ended and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size in KiB.
    pub maxrss_kb: u64,
}

/// Waits for `child` and returns its exit code and peak RSS. Takes the
/// child by value: once reaped here, `Child::wait` must not run again.
pub fn reap(child: Child) -> io::Result<Reaped> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are valid for writes and `usage`
        // matches the kernel's 64-bit `struct rusage` layout.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        code,
        maxrss_kb: usage.maxrss_kb.max(0) as u64,
    })
}

/// CPU time (user + system) this process has used so far, all threads.
pub fn self_cpu() -> Duration {
    let mut usage = RUsage::default();
    // SAFETY: as in `reap`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.cpu()
    } else {
        Duration::ZERO
    }
}

/// Sends `SIGTERM` (the daemon's graceful drain) to `pid`.
pub fn terminate(pid: u32) -> io::Result<()> {
    // SAFETY: plain syscall on a pid this process spawned and has not reaped.
    if unsafe { kill(pid as i32, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_reports_exit_code_and_rss() {
        let child = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .unwrap();
        let reaped = reap(child).unwrap();
        assert_eq!(reaped.code, Some(3));
        assert!(reaped.maxrss_kb > 0);
    }

    #[test]
    fn own_hwm_is_readable() {
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
        assert!(self_cpu() > Duration::ZERO);
    }
}
