//! The `pacer serve` daemon under test, as a separate process.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::procs;

/// Which transport the daemon listens on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `--socket PATH`, read-only ingest.
    Socket,
    /// `--tcp 127.0.0.1:0 --wal DIR --checkpoint FILE`, durable ingest.
    TcpDurable,
}

/// Every daemon runs one shard worker per core of the reference box.
pub const SHARDS: usize = 2;

pub struct Daemon {
    child: Child,
    /// Unix socket path or TCP address, as the wire clients take it.
    pub endpoint: String,
}

impl Daemon {
    /// Spawns a daemon whose files live under `dir` (wiped first) and
    /// returns it with the time from spawn until it accepted a probe
    /// connection (the socket is bound, or the address file written).
    pub fn spawn(pacer: &Path, transport: Transport, dir: &Path) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let mut cmd = Command::new(pacer);
        cmd.args([
            "serve",
            "--detector",
            "pacer",
            "--shards",
            &SHARDS.to_string(),
        ]);
        let sock = dir.join("d.sock");
        let addr_file = dir.join("addr");
        match transport {
            Transport::Socket => {
                cmd.arg("--socket").arg(&sock);
            }
            Transport::TcpDurable => {
                let wal = dir.join("wal");
                std::fs::create_dir_all(&wal)?;
                cmd.args(["--tcp", "127.0.0.1:0", "--addr-file"])
                    .arg(&addr_file)
                    .arg("--wal")
                    .arg(&wal)
                    .arg("--checkpoint")
                    .arg(dir.join("checkpoint.journal"));
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let start = Instant::now();
        let child = cmd.spawn()?;
        let mut daemon = Daemon {
            child,
            endpoint: String::new(),
        };
        let deadline = start + Duration::from_secs(20);
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err(io::Error::other("daemon did not accept within 20 s"));
            }
            // A connection that opens and closes without a byte is a
            // clean probe: the daemon files nothing for it.
            let ready = match transport {
                Transport::Socket => std::os::unix::net::UnixStream::connect(&sock)
                    .ok()
                    .map(|_| sock.display().to_string()),
                Transport::TcpDurable => std::fs::read_to_string(&addr_file)
                    .ok()
                    .filter(|s| s.ends_with('\n'))
                    .map(|s| s.trim().to_string())
                    .filter(|a| std::net::TcpStream::connect(a).is_ok()),
            };
            if let Some(endpoint) = ready {
                daemon.endpoint = endpoint;
                return Ok((daemon, start.elapsed()));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak RSS so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        procs::vm_hwm_kb(self.child.id()).map_or(f64::NAN, |kb| kb as f64 / 1024.0)
    }

    /// Graceful drain (`SIGTERM`): in-flight sessions finish, then the
    /// daemon exits 0. Falls back to `SIGKILL` after 30 s. Every caller
    /// has its replies in hand by now, so a daemon stopped before it armed
    /// its drain handler (killed by the `SIGTERM` itself) is fine too.
    pub fn stop(mut self) -> io::Result<()> {
        use std::os::unix::process::ExitStatusExt as _;
        procs::terminate(self.child.id())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() || status.signal() == Some(procs::SIGTERM) {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(io::Error::other("daemon did not drain within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon still running here was abandoned by an error path; never
    /// leave it behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}
