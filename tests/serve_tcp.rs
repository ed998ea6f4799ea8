//! Durable reconnectable sessions over the TCP transport (`pacer serve
//! --tcp`, SERVICE.md "Durable sessions"): acked-offset resume after
//! injected connection resets, offset-dedup of duplicated retransmits,
//! and a concurrent reconnect soak. The headline invariant is the
//! tentpole acceptance: a session interrupted mid-stream and resumed
//! over TCP produces a final report byte-identical to an uninterrupted
//! `pacer replay` of the same trace, at `--shards 1` and `--shards 4`,
//! with `session_resumes > 0` and the dedup counter equal to the
//! retransmitted-frame overlap.

use pacer_cli::run;
use pacer_harness::{serve_sessions, ServeConfig, ServeDetectorKind};
use pacer_trace::gen::GenConfig;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacer-tcp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A racy multi-frame trace (> 4096 events), so resets and resumes land
/// mid-session rather than on a session boundary.
fn multi_frame_trace(seed: u64) -> Vec<u8> {
    GenConfig::small(seed)
        .with_lock_discipline(0.0)
        .with_ops_per_thread(5000)
        .generate()
        .to_binary()
}

fn frame_count(bytes: &[u8]) -> u64 {
    let split = pacer_trace::binary::split_frames(bytes).unwrap();
    assert!(!split.truncated);
    assert!(
        split.frames.len() >= 3,
        "want a multi-frame trace, got {} frame(s)",
        split.frames.len()
    );
    split.frames.len() as u64
}

/// What `pacer replay --detector <d>` prints for these bytes — the
/// byte-identity baseline.
fn replay_body(dir: &std::path::Path, name: &str, bytes: &[u8], detector: &str) -> String {
    let path = dir.join(format!("{name}.ptrace"));
    std::fs::write(&path, bytes).unwrap();
    let path = path.to_string_lossy().into_owned();
    run(&args(&["replay", &path, "--detector", detector]))
        .unwrap()
        .text
}

/// Waits for the daemon's `--addr-file` to appear and returns the bound
/// address.
fn wait_for_addr(path: &std::path::Path) -> String {
    for _ in 0..500 {
        if let Ok(addr) = std::fs::read_to_string(path) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("daemon never wrote {}", path.display());
}

/// Exhausts the daemon's `--max-sessions` connection budget with no-op
/// connections so a scripted run terminates, then joins it.
fn drain_daemon(
    addr: &str,
    daemon: std::thread::JoinHandle<pacer_cli::CmdOutput>,
) -> pacer_cli::CmdOutput {
    for _ in 0..2000 {
        if daemon.is_finished() {
            break;
        }
        if std::net::TcpStream::connect(addr).is_err() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    daemon.join().unwrap()
}

/// Reads one integer counter out of the deterministic metrics JSON.
fn counter(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<pacer_cli::CmdOutput>,
}

fn start_daemon(dir: &std::path::Path, tag: &str, extra: &[&str]) -> Daemon {
    let addr_file = dir.join(format!("{tag}.addr"));
    let mut daemon_args = vec![
        "serve".to_string(),
        "--tcp".to_string(),
        "127.0.0.1:0".to_string(),
        "--addr-file".to_string(),
        addr_file.to_string_lossy().into_owned(),
    ];
    daemon_args.extend(extra.iter().map(|s| s.to_string()));
    let handle = std::thread::spawn(move || run(&daemon_args).unwrap());
    let addr = wait_for_addr(&addr_file);
    Daemon { addr, handle }
}

#[test]
fn tcp_round_trip_matches_replay() {
    let dir = temp_dir("roundtrip");
    let bytes = multi_frame_trace(4100);
    let trace = dir.join("a.ptrace");
    std::fs::write(&trace, &bytes).unwrap();
    let trace = trace.to_string_lossy().into_owned();
    let expected = replay_body(&dir, "expected", &bytes, "fasttrack");

    for shards in ["1", "4"] {
        let wal = dir.join(format!("wal{shards}"));
        let daemon = start_daemon(
            &dir,
            &format!("rt{shards}"),
            &[
                "--max-sessions",
                "1",
                "--detector",
                "fasttrack",
                "--shards",
                shards,
                "--wal",
                &wal.to_string_lossy(),
            ],
        );
        let reply = run(&args(&[
            "serve",
            "--send",
            &trace,
            "--tcp",
            &daemon.addr,
            "--session",
            "a",
        ]))
        .unwrap();
        assert_eq!(
            reply.text, expected,
            "tcp reply != replay at shards {shards}"
        );
        assert_eq!(reply.code, 0);

        let transcript = daemon.handle.join().unwrap();
        assert_eq!(transcript.code, 0, "clean daemon exits 0: {transcript}");
        assert!(
            transcript.text.contains("served 1 session(s)"),
            "daemon prints the merged transcript: {transcript}"
        );
        // The completed session retired its write-ahead segment.
        assert!(!wal.join("a.wal").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole acceptance: injected conn-resets tear the connection
/// mid-session; the client reconnects with `RESUME` and the final
/// report is byte-identical to an uninterrupted replay, at 1 and 4
/// shards, with `session_resumes > 0` in the metrics snapshot.
#[test]
fn conn_reset_resume_is_byte_identical_to_replay() {
    let dir = temp_dir("reset");
    let bytes = multi_frame_trace(4200);
    let frames = frame_count(&bytes);
    let trace = dir.join("a.ptrace");
    std::fs::write(&trace, &bytes).unwrap();
    let trace = trace.to_string_lossy().into_owned();
    let expected = replay_body(&dir, "expected", &bytes, "fasttrack");

    // Every connection is torn down after one accepted frame, so a
    // trace of N frames forces N RESUME round trips (one per remaining
    // frame, plus a final reconnect to deliver END) over N+1
    // connections.
    let plan = dir.join("reset.plan");
    std::fs::write(&plan, "seed 0\nconn-reset every=1 after=1\n").unwrap();

    for shards in ["1", "4"] {
        let metrics = dir.join(format!("reset{shards}.json"));
        let daemon = start_daemon(
            &dir,
            &format!("reset{shards}"),
            &[
                "--max-sessions",
                &(frames + 1).to_string(),
                "--detector",
                "fasttrack",
                "--shards",
                shards,
                "--fault-plan",
                &plan.to_string_lossy(),
                "--metrics-out",
                &metrics.to_string_lossy(),
            ],
        );
        let reply = run(&args(&[
            "serve",
            "--send",
            &trace,
            "--tcp",
            &daemon.addr,
            "--session",
            "a",
        ]))
        .unwrap();
        assert_eq!(
            reply.text, expected,
            "resumed session != replay at shards {shards}"
        );
        assert_eq!(reply.code, 0);

        let transcript = drain_daemon(&daemon.addr, daemon.handle);
        assert_eq!(transcript.code, 0, "{transcript}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(
            counter(&json, "session_resumes"),
            frames,
            "one RESUME per torn connection: {json}"
        );
        assert_eq!(counter(&json, "frames_deduped"), 0, "{json}");
        assert_eq!(counter(&json, "connections"), frames + 1, "{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Duplicated retransmits (client chaos site `dup-frame every=1`)
/// re-send the previous frame before every offset > 0: the server must
/// dedup each one by offset, so the dedup counter equals the overlap
/// exactly and the report is unchanged.
#[test]
fn duplicated_retransmits_are_deduped_by_offset() {
    let dir = temp_dir("dup");
    let bytes = multi_frame_trace(4300);
    let frames = frame_count(&bytes);
    let trace = dir.join("a.ptrace");
    std::fs::write(&trace, &bytes).unwrap();
    let trace = trace.to_string_lossy().into_owned();
    let expected = replay_body(&dir, "expected", &bytes, "fasttrack");

    let plan = dir.join("dup.plan");
    std::fs::write(&plan, "seed 0\ndup-frame every=1\n").unwrap();
    let metrics = dir.join("dup.json");
    let daemon = start_daemon(
        &dir,
        "dup",
        &[
            "--max-sessions",
            "1",
            "--detector",
            "fasttrack",
            "--shards",
            "4",
            "--metrics-out",
            &metrics.to_string_lossy(),
        ],
    );
    let reply = run(&args(&[
        "serve",
        "--send",
        &trace,
        "--tcp",
        &daemon.addr,
        "--session",
        "a",
        "--fault-plan",
        &plan.to_string_lossy(),
    ]))
    .unwrap();
    assert_eq!(reply.text, expected, "deduped session != replay");
    assert_eq!(reply.code, 0);

    let transcript = drain_daemon(&daemon.addr, daemon.handle);
    assert_eq!(transcript.code, 0, "{transcript}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    // `dup-frame every=1` re-sends the previous frame before every
    // offset except the first: overlap == frames - 1, exactly.
    assert_eq!(
        counter(&json, "frames_deduped"),
        frames - 1,
        "dedup counter != retransmitted overlap: {json}"
    );
    assert_eq!(counter(&json, "session_resumes"), 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn acks leave the client holding a stale offset; the `RESUME`
/// handshake re-syncs from the server's authoritative watermark and the
/// report is still byte-identical.
#[test]
fn torn_acks_resync_on_resume() {
    let dir = temp_dir("torn");
    let bytes = multi_frame_trace(4400);
    let trace = dir.join("a.ptrace");
    std::fs::write(&trace, &bytes).unwrap();
    let trace = trace.to_string_lossy().into_owned();
    let expected = replay_body(&dir, "expected", &bytes, "fasttrack");

    let plan = dir.join("torn.plan");
    std::fs::write(&plan, "seed 1\ntorn-ack every=3\n").unwrap();
    let metrics = dir.join("torn.json");
    let daemon = start_daemon(
        &dir,
        "torn",
        &[
            "--max-sessions",
            "64",
            "--detector",
            "fasttrack",
            "--shards",
            "2",
            "--fault-plan",
            &plan.to_string_lossy(),
            "--metrics-out",
            &metrics.to_string_lossy(),
        ],
    );
    let reply = run(&args(&[
        "serve",
        "--send",
        &trace,
        "--tcp",
        &daemon.addr,
        "--session",
        "a",
    ]))
    .unwrap();
    assert_eq!(reply.text, expected, "torn-ack session != replay");
    assert_eq!(reply.code, 0);

    let transcript = drain_daemon(&daemon.addr, daemon.handle);
    assert_eq!(transcript.code, 0, "{transcript}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(counter(&json, "session_resumes") > 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh `SESSION` under a completed name is a duplicate; `RESUME` of
/// a name the server has never seen is rejected; both exit 2 with a
/// single `error:` line.
#[test]
fn tcp_rejects_duplicates_and_unknown_resumes() {
    use std::io::{BufRead as _, Write as _};

    let dir = temp_dir("reject");
    let bytes = multi_frame_trace(4500);
    let trace = dir.join("a.ptrace");
    std::fs::write(&trace, &bytes).unwrap();
    let trace = trace.to_string_lossy().into_owned();

    let daemon = start_daemon(&dir, "reject", &["--max-sessions", "8", "--shards", "2"]);
    let ok = run(&args(&[
        "serve",
        "--send",
        &trace,
        "--tcp",
        &daemon.addr,
        "--session",
        "a",
    ]))
    .unwrap();
    assert_eq!(ok.code, 0);

    // Completed sessions re-serve their stored report on RESUME (the
    // reconnect-after-END race), byte-identically.
    let resumed = {
        let conn = std::net::TcpStream::connect(&daemon.addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        writer.write_all(b"RESUME a 0\n").unwrap();
        let mut reader = std::io::BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let len: usize = line
            .strip_prefix("REPORT ")
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(&mut reader, &mut body).unwrap();
        String::from_utf8(body).unwrap()
    };
    assert_eq!(resumed, ok.text, "re-served report differs");

    let dup = run(&args(&[
        "serve",
        "--send",
        &trace,
        "--tcp",
        &daemon.addr,
        "--session",
        "a",
    ]))
    .unwrap();
    assert_eq!(dup.code, 2, "duplicate name must exit 2: {dup}");
    assert!(dup.text.contains("duplicate session name"), "{dup}");

    // `RESUME` of an unknown name straight over the wire:
    let unknown = {
        let conn = std::net::TcpStream::connect(&daemon.addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        writer.write_all(b"RESUME ghost 0\n").unwrap();
        let mut reader = std::io::BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    assert!(unknown.contains("unknown session"), "{unknown}");

    let transcript = drain_daemon(&daemon.addr, daemon.handle);
    // The duplicate rejection is ledgered as a failed session → exit 2.
    assert_eq!(transcript.code, 2, "{transcript}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite soak: N concurrent TCP sessions with conn-resets injected
/// at deterministic-but-interleaving-dependent points; every session
/// completes after its reconnects, and the merged transcript compares
/// clean against a fault-free `--shards 1` in-process run of the same
/// traces.
#[test]
fn concurrent_reconnect_soak_matches_fault_free_single_shard() {
    let dir = temp_dir("soak");
    let sessions: Vec<(String, Vec<u8>)> = (0..8)
        .map(|i| {
            let discipline = if i % 2 == 0 { 0.0 } else { 0.7 };
            let bytes = GenConfig::small(6000 + i as u64)
                .with_lock_discipline(discipline)
                .with_ops_per_thread(if i % 3 == 0 { 5000 } else { 400 })
                .generate()
                .to_binary();
            (format!("s{i:02}"), bytes)
        })
        .collect();

    // Every accepted connection resets after 2 frames, so every
    // multi-frame session is forced through at least one reconnect —
    // at whatever offsets the concurrent interleaving produces.
    let plan = dir.join("soak.plan");
    std::fs::write(&plan, "seed 0\nconn-reset every=1 after=2\n").unwrap();
    let metrics = dir.join("soak.json");
    let daemon = start_daemon(
        &dir,
        "soak",
        &[
            "--max-sessions",
            "200",
            "--detector",
            "fasttrack",
            "--shards",
            "4",
            "--fault-plan",
            &plan.to_string_lossy(),
            "--metrics-out",
            &metrics.to_string_lossy(),
            "--wal",
            &dir.join("soakwal").to_string_lossy(),
        ],
    );

    std::thread::scope(|scope| {
        for (name, bytes) in &sessions {
            let path = dir.join(format!("{name}.ptrace"));
            std::fs::write(&path, bytes).unwrap();
            let addr = daemon.addr.clone();
            scope.spawn(move || {
                let reply = run(&args(&[
                    "serve",
                    "--send",
                    &path.to_string_lossy(),
                    "--tcp",
                    &addr,
                    "--session",
                    name,
                ]))
                .unwrap();
                assert_eq!(reply.code, 0, "session {name} failed: {reply}");
            });
        }
    });

    let transcript = drain_daemon(&daemon.addr, daemon.handle);
    assert_eq!(transcript.code, 0, "soak daemon exits 0: {transcript}");

    // Byte-identity against the fault-free single-shard in-process run.
    let clean = serve_sessions(
        &ServeConfig {
            shards: 1,
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        },
        sessions.clone(),
        1,
    )
    .unwrap();
    // The daemon epilogue appends a "serve metrics written to ..." note
    // after the transcript; everything before it must be byte-identical.
    let daemon_transcript = transcript
        .text
        .split("serve metrics written to ")
        .next()
        .unwrap();
    assert_eq!(
        daemon_transcript, clean.transcript,
        "soak transcript diverged from the fault-free --shards 1 run"
    );

    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(counter(&json, "session_resumes") > 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The durable lease clock follows the wall clock: a steady stream of
/// no-op connections, each waking the accept loop long before any wait
/// could time out, must not postpone reaping a detached session. With
/// `--idle-timeout 2` the lease expires about 2 s after the detach, well
/// inside the ~4 s of probing, so the idle-timeout reap (not the
/// shutdown reap) ledgers the session.
#[test]
fn lease_ticks_follow_the_wall_clock_under_a_connection_stream() {
    use std::io::{BufRead as _, Write as _};

    const PROBES: u64 = 800;
    let dir = temp_dir("lease");
    let bytes = multi_frame_trace(4600);
    let split = pacer_trace::binary::split_frames(&bytes).unwrap();
    let first = &bytes[split.frames[0].start..split.frames[0].end];
    let metrics = dir.join("lease.json");
    let daemon = start_daemon(
        &dir,
        "lease",
        &[
            "--idle-timeout",
            "2",
            "--max-sessions",
            &(PROBES + 1).to_string(),
            "--detector",
            "fasttrack",
            "--metrics-out",
            &metrics.to_string_lossy(),
        ],
    );

    // One durable session that detaches after its first frame.
    {
        let conn = std::net::TcpStream::connect(&daemon.addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(conn);
        let mut line = String::new();
        writer.write_all(b"SESSION lease\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ACK 0\n");
        writer
            .write_all(format!("FRAME 0 {}\n", first.len()).as_bytes())
            .unwrap();
        writer.write_all(first).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ACK 1\n");
    }
    for _ in 0..PROBES {
        drop(std::net::TcpStream::connect(&daemon.addr).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let transcript = daemon.handle.join().unwrap();
    // A reaped lease ledgers as a failed session → exit 2.
    assert_eq!(transcript.code, 2, "{transcript}");
    assert!(
        transcript
            .text
            .contains("idle timeout: reaped after 2 idle tick(s)"),
        "lease was not reaped while connections kept arriving: {transcript}"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    let reaped = counter(&json, "reaped");
    assert!(reaped >= 1, "{json}");
    assert_eq!(
        counter(&json, "admitted"),
        counter(&json, "completed") + counter(&json, "shed") + counter(&json, "failed") + reaped,
        "ledger not conserved: {json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
