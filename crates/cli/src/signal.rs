//! Async-signal-safe drain coordination and readiness waits for
//! `pacer serve`.
//!
//! The standard library exposes no signal or readiness API and the
//! workspace takes no external dependencies, so this module carries the
//! suite's only `unsafe`: four raw libc bindings — `signal(2)` to
//! install the handler, `write(2)` for the self-pipe, `_exit(2)` for the
//! hard-stop path and `poll(2)` for the daemon's accept wait. The
//! handler body touches only an `AtomicU32`, an `AtomicI32`, `write` and
//! `_exit`, all async-signal-safe, so it can never deadlock against the
//! interrupted thread.
//!
//! Lifecycle (SERVICE.md, "Drain and shutdown"):
//!
//! * first SIGINT/SIGTERM — sets the drain flag and writes one byte to
//!   the self-pipe (a unix socket pair). The daemon's accept loop blocks
//!   in `poll` on {listener, self-pipe}, so the byte wakes it at once
//!   whichever thread took the signal; the handler is installed with
//!   SA_RESTART, so a blocking `accept` alone would never see the drain.
//!   The loop stops admitting, in-flight sessions finish and checkpoint,
//!   and the process exits through the normal transcript path (exit 0
//!   when no session was rejected);
//! * second SIGINT/SIGTERM — the run is taking too long to drain:
//!   hard-stop immediately with exit code 2. The checksummed journal
//!   tolerates the torn final write (`--resume` drops it).

#![allow(unsafe_code)]

use std::os::fd::{AsRawFd as _, BorrowedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// POSIX signal numbers (stable across the unix targets we build for).
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
/// `poll(2)` readiness bit for "data to read" (or a pending connection
/// on a listening socket).
const POLLIN: i16 = 0x1;

type SigHandler = extern "C" fn(i32);

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn _exit(code: i32) -> !;
    /// `nfds` is `nfds_t`, an `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
}

/// 0 = running; nonzero = drain requested by a signal.
static DRAIN: AtomicU32 = AtomicU32::new(0);

/// The self-pipe: (read end, write end). Created once, never closed, so
/// the raw write fd the handler uses stays valid for the process.
static WAKE: OnceLock<Option<(UnixStream, UnixStream)>> = OnceLock::new();

/// Raw fd of the self-pipe's write end, or -1 before `arm_drain`.
static WAKE_WRITE: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_signum: i32) {
    if DRAIN.swap(1, Ordering::SeqCst) != 0 {
        // Second signal: hard stop. `_exit` skips destructors and
        // buffered output by design — the journal line framing makes a
        // torn final write recoverable.
        // SAFETY: `_exit` is async-signal-safe and takes no pointers.
        unsafe { _exit(2) };
    }
    let fd = WAKE_WRITE.load(Ordering::SeqCst);
    if fd >= 0 {
        // Only the first signal gets here, so the self-pipe ever holds
        // at most one byte and this blocking write cannot block. A
        // successful `write` leaves the interrupted thread's errno alone.
        // SAFETY: `fd` is the write end owned by `WAKE`, which is never
        // dropped; the buffer is a live one-byte static.
        unsafe { write(fd, b"!".as_ptr(), 1) };
    }
}

/// Installs the drain handler for SIGINT and SIGTERM and creates the
/// self-pipe it wakes. Idempotent; call once before entering a serve
/// transport loop. Fails only when the process is out of descriptors.
pub fn arm_drain() -> std::io::Result<()> {
    let Some((_, write_end)) = WAKE.get_or_init(|| UnixStream::pair().ok()) else {
        return Err(std::io::Error::other("cannot create the drain self-pipe"));
    };
    WAKE_WRITE.store(write_end.as_raw_fd(), Ordering::SeqCst);
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is
    // async-signal-safe (see its comments); `signal` takes no pointers
    // besides the handler.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    Ok(())
}

/// True once a drain has been requested. Transports check this between
/// accepts (daemon) or frames (framed stdin) and stop admitting.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst) != 0
}

/// Blocks until `listener` is readable (a connection is pending), a
/// drain signal arrives, or `timeout` passes — whichever comes first.
/// Callers re-check all three afterwards: a return says nothing about
/// which woke it, and a spurious wake-up is harmless.
pub fn wait_for_accept(listener: BorrowedFd<'_>, timeout: Duration) -> std::io::Result<()> {
    let wake = WAKE
        .get()
        .and_then(Option::as_ref)
        .map_or(-1, |(read_end, _)| read_end.as_raw_fd());
    poll_readable([listener.as_raw_fd(), wake], timeout)
}

/// `poll(2)` for readability on `fds` (negative entries are ignored).
/// The timeout rounds up to whole milliseconds, so a sub-millisecond
/// remainder waits instead of spinning. An interrupting signal counts
/// as a wake-up, not an error.
fn poll_readable<const N: usize>(fds: [RawFd; N], timeout: Duration) -> std::io::Result<()> {
    let mut polled = fds.map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    let timeout_ms = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
    // SAFETY: `polled` is a live, exclusively borrowed array of
    // `polled.len()` `struct pollfd`s for the duration of the call.
    let rc = unsafe { poll(polled.as_mut_ptr(), polled.len() as _, timeout_ms) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::time::Instant;

    #[test]
    fn poll_wakes_on_a_readable_fd_and_times_out_otherwise() {
        let (read_end, mut write_end) = UnixStream::pair().unwrap();
        let fds = [read_end.as_raw_fd(), -1];

        // Nothing to read: the wait runs out its timeout.
        let start = Instant::now();
        poll_readable(fds, Duration::from_millis(30)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));

        // A byte written from another thread wakes a long wait early.
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| write_end.write_all(b"!").unwrap());
            poll_readable(fds, Duration::from_secs(10)).unwrap();
        });
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
