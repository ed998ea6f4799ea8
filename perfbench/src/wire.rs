//! The two wire clients the load generator speaks (SERVICE.md).
//!
//! * Unix socket: `SESSION <name>\n`, the trace bytes, half-close, then
//!   the report body until EOF.
//! * TCP durable: `SESSION <name>\n` → `ACK 0`; per frame
//!   `FRAME <offset> <len>\n` + bytes → `ACK <offset+1>` in lock-step;
//!   `END <total>\n` → `REPORT <len>\n` + body.
//!
//! Each client returns the report text with the instants of its phases,
//! so the caller can stamp latencies or record spans.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

/// Phase instants of one unix-socket session.
#[derive(Clone, Copy, Debug)]
pub struct SocketPhases {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub done: Instant,
}

pub fn socket_session(path: &Path, name: &str, bytes: &[u8]) -> io::Result<(String, SocketPhases)> {
    let start = Instant::now();
    let mut conn = UnixStream::connect(path)?;
    let connected = Instant::now();
    conn.write_all(format!("SESSION {name}\n").as_bytes())?;
    conn.write_all(bytes)?;
    conn.shutdown(Shutdown::Write)?;
    let sent = Instant::now();
    let mut body = String::new();
    conn.read_to_string(&mut body)?;
    let done = Instant::now();
    Ok((
        body,
        SocketPhases {
            start,
            connected,
            sent,
            done,
        },
    ))
}

/// Phase instants of one TCP durable session.
#[derive(Clone, Debug)]
pub struct TcpPhases {
    /// `SESSION` sent → first `ACK` read.
    pub handshake: (Instant, Instant),
    /// Per frame: `FRAME` header written → its `ACK` read.
    pub frames: Vec<(Instant, Instant)>,
    /// `END` written → last report byte read.
    pub end: (Instant, Instant),
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    Ok(line)
}

fn expect_ack(reader: &mut impl BufRead, want: u64) -> io::Result<()> {
    let line = read_line(reader)?;
    match line
        .strip_prefix("ACK ")
        .and_then(|r| r.trim().parse::<u64>().ok())
    {
        Some(got) if got == want => Ok(()),
        _ => Err(io::Error::other(format!(
            "expected `ACK {want}`, got {:?}",
            line.trim_end()
        ))),
    }
}

pub fn tcp_session(addr: &str, name: &str, frames: &[&[u8]]) -> io::Result<(String, TcpPhases)> {
    let start = Instant::now();
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);

    writer.write_all(format!("SESSION {name}\n").as_bytes())?;
    expect_ack(&mut reader, 0)?;
    let handshake = (start, Instant::now());

    let mut stamps = Vec::with_capacity(frames.len());
    for (offset, frame) in frames.iter().enumerate() {
        let sent = Instant::now();
        let mut msg = format!("FRAME {offset} {}\n", frame.len()).into_bytes();
        msg.extend_from_slice(frame);
        writer.write_all(&msg)?;
        expect_ack(&mut reader, offset as u64 + 1)?;
        stamps.push((sent, Instant::now()));
    }

    let end_sent = Instant::now();
    writer.write_all(format!("END {}\n", frames.len()).as_bytes())?;
    let line = read_line(&mut reader)?;
    let body = match line
        .strip_prefix("REPORT ")
        .and_then(|r| r.trim().parse::<usize>().ok())
    {
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            String::from_utf8(body).map_err(|_| io::Error::other("report is not UTF-8"))?
        }
        // An `error:` line is the whole reply; the caller's correctness
        // check counts it.
        None => line,
    };
    let phases = TcpPhases {
        handshake,
        frames: stamps,
        end: (end_sent, Instant::now()),
    };
    Ok((body, phases))
}

/// The frames of an encoded `.ptrace` as the durable grammar carries them.
pub fn split_frames(bytes: &[u8]) -> Vec<&[u8]> {
    let split = pacer_trace::binary::split_frames(bytes).expect("generated traces split cleanly");
    assert!(!split.truncated, "generated traces are never truncated");
    split
        .frames
        .iter()
        .map(|f| &bytes[f.start..f.end])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_trace::gen::GenConfig;

    fn tiny_trace(dir: &Path) -> (std::path::PathBuf, Vec<u8>, String) {
        let trace = GenConfig::small(11).with_lock_discipline(0.6).generate();
        let bytes = pacer_trace::binary::encode_trace(&trace);
        let path = dir.join("tiny.ptrace");
        std::fs::write(&path, &bytes).unwrap();
        let replay = pacer_cli::run(&[
            "replay".to_string(),
            path.display().to_string(),
            "--detector".to_string(),
            "pacer".to_string(),
        ])
        .unwrap()
        .text;
        (path, bytes, replay)
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn socket_session_round_trips_and_matches_replay() {
        let dir = scratch("sock");
        let (_, bytes, replay) = tiny_trace(&dir);
        let sock = dir.join("d.sock");
        let sock_arg = sock.display().to_string();
        let daemon = std::thread::spawn(move || {
            pacer_cli::run(&args(&[
                "serve",
                "--socket",
                &sock_arg,
                "--shards",
                "2",
                "--detector",
                "pacer",
                "--max-sessions",
                "1",
            ]))
            .unwrap()
        });
        let body = loop {
            match socket_session(&sock, "tiny", &bytes) {
                Ok((body, _)) => break body,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        assert_eq!(body, replay);
        assert_eq!(daemon.join().unwrap().code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_session_round_trips_and_matches_replay() {
        let dir = scratch("tcp");
        let (_, bytes, replay) = tiny_trace(&dir);
        let addr_file = dir.join("addr");
        let wal = dir.join("wal");
        std::fs::create_dir_all(&wal).unwrap();
        let (a, w) = (addr_file.display().to_string(), wal.display().to_string());
        let daemon = std::thread::spawn(move || {
            pacer_cli::run(&args(&[
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--addr-file",
                &a,
                "--wal",
                &w,
                "--shards",
                "2",
                "--detector",
                "pacer",
                "--max-sessions",
                "1",
            ]))
            .unwrap()
        });
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let frames = split_frames(&bytes);
        let (body, phases) = tcp_session(&addr, "tiny", &frames).unwrap();
        assert_eq!(body, replay);
        assert_eq!(phases.frames.len(), frames.len());
        assert_eq!(daemon.join().unwrap().code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
