//! `perfbench`: the repository benchmark. `pacer replay` and `pacer
//! serve` end to end, driven as separate processes by a single load
//! generator (at most 2 threads and 2 connections), with per-layer costs
//! from a traced run that reconcile with the untraced wall.
//!
//! ```text
//! perfbench --pacer PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` next to this crate builds both binaries and runs this one; see
//! the README there. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`). The full
//! result, with its context, goes to `perfbench/out/`.

mod daemon;
mod gate;
mod inputs;
mod json;
mod layers;
mod procs;
mod spans;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pacer_prng::{derive_seed, Rng};

use daemon::{Daemon, Transport, SHARDS};
use inputs::{Input, Workload};
use spans::Tracer;
use stats::{percentile, Summary};

/// Offered session rate of `serve_socket_mix`, in sessions/s: about half
/// of the closed-loop capacity (2 connections) of the parent commit on
/// a 2-core x86-64 box.
const OFFERED_SESSIONS_PER_S: f64 = 40.0;
/// Daemon spawns (serve) per run; `setup_s` is their median.
const SERVE_SETUP_REPS: usize = 15;
/// Zero-event replays per run; `setup_s` is their median.
const REPLAY_SETUP_REPS: usize = 41;
/// Largest event total of the in-process side passes of a traced run.
const SIDE_PASS_EVENTS: u64 = 2_000_000;

struct Args {
    pacer: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut pacer, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut root = PathBuf::from("perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--pacer" => pacer = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds wants a number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                });
            }
            "--root" => root = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        pacer: pacer.ok_or("--pacer is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        root,
    })
}

/// One session of a measured loop. Times are seconds since the loop's
/// start.
#[derive(Clone, Debug)]
struct Record {
    index: usize,
    input: usize,
    /// When the session was due: its arrival (open loop) or its send
    /// (closed loop).
    due: f64,
    sent: f64,
    done: f64,
    /// How late the generator sent: after the due time (open loop), or
    /// after the same client's previous reply (closed loop).
    late: f64,
    ok: bool,
    rss_kb: u64,
    tcp: Option<wire::TcpPhases>,
    /// Send and reply instants, for spans.
    at: (Instant, Instant),
}

impl Record {
    fn latency(&self) -> f64 {
        self.done - self.due
    }

    fn service(&self) -> f64 {
        self.done - self.sent
    }
}

/// Everything a measured loop needs to know.
struct Bench {
    args: Args,
    inputs: Vec<Input>,
    zero: Input,
    work: PathBuf,
    order: Vec<usize>,
    arrivals: Vec<f64>,
}

fn secs(t0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64()
}

impl Bench {
    /// Closed loop, one client: one `pacer replay` subprocess per session.
    fn replay_loop(
        &self,
        limit: usize,
        deadline: f64,
        tracer: Option<&Mutex<Tracer>>,
    ) -> Vec<Record> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut prev = 0.0;
        for index in 0..limit {
            if secs(t0, Instant::now()) >= deadline {
                break;
            }
            let input = &self.inputs[self.order[index]];
            let start = Instant::now();
            let (ok, rss_kb, spawned) = match self.replay_once(&input.path, &input.reference) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: replay {}: {e}", input.path.display());
                    (false, 0, start)
                }
            };
            let end = Instant::now();
            if let Some(t) = tracer {
                let mut t = t.lock().expect("no client thread panicked");
                let root = t.record("e2e.session", None, index as u64, start, end);
                t.record("cli.spawn", Some(root), index as u64, start, spawned);
                t.record("cli.wait", Some(root), index as u64, spawned, end);
            }
            let (sent, done) = (secs(t0, start), secs(t0, end));
            out.push(Record {
                index,
                input: self.order[index],
                due: sent,
                sent,
                done,
                late: stats::lateness(prev, sent),
                ok,
                rss_kb,
                tcp: None,
                at: (start, end),
            });
            prev = done;
        }
        out
    }

    /// Spawns `pacer replay` on `path`; returns (matches `reference`,
    /// peak RSS in KiB, spawn-returned instant).
    fn replay_once(&self, path: &Path, reference: &str) -> std::io::Result<(bool, u64, Instant)> {
        let mut child = Command::new(&self.args.pacer)
            .arg("replay")
            .arg(path)
            .args(["--detector", "pacer"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let spawned = Instant::now();
        let mut text = String::new();
        let read = child
            .stdout
            .take()
            .expect("piped")
            .read_to_string(&mut text);
        let reaped = procs::reap(child)?;
        read?;
        Ok((
            reaped.code == Some(0) && text == reference,
            reaped.maxrss_kb,
            spawned,
        ))
    }

    /// Open loop over `arrivals[..limit]`, two client threads, each
    /// session on its own unix-socket connection. `only` replaces every
    /// session's input (the header-only sessions of the traced run).
    fn socket_loop(
        &self,
        endpoint: &str,
        prefix: &str,
        limit: usize,
        only: Option<&Input>,
        tracer: Option<&Mutex<Tracer>>,
    ) -> Vec<Record> {
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::new());
        let path = Path::new(endpoint);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= limit {
                        break;
                    }
                    let due = self.arrivals[index];
                    let wait = due - secs(t0, Instant::now());
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let input = only.unwrap_or(&self.inputs[self.order[index]]);
                    let name = format!("{prefix}{index}");
                    let (ok, phases) = match wire::socket_session(path, &name, &input.bytes) {
                        Ok((body, p)) => (body == input.reference, Some(p)),
                        Err(e) => {
                            eprintln!("perfbench: session {name}: {e}");
                            (false, None)
                        }
                    };
                    let now = Instant::now();
                    let (start, end) = phases.map_or((now, now), |p| (p.start, p.done));
                    if let (Some(t), Some(p)) = (tracer, phases) {
                        let mut t = t.lock().expect("no client thread panicked");
                        let s = index as u64;
                        let root = t.record("e2e.session", None, s, p.start, p.done);
                        t.record("cli.connect", Some(root), s, p.start, p.connected);
                        t.record("cli.send", Some(root), s, p.connected, p.sent);
                        t.record("cli.await_report", Some(root), s, p.sent, p.done);
                    }
                    let sent = secs(t0, start);
                    out.lock().expect("no client thread panicked").push(Record {
                        index,
                        input: self.order[index],
                        due,
                        sent,
                        done: secs(t0, end),
                        late: stats::lateness(due, sent),
                        ok,
                        rss_kb: 0,
                        tcp: None,
                        at: (start, end),
                    });
                });
            }
        });
        let mut out = out.into_inner().expect("no client thread panicked");
        out.sort_by_key(|r| r.index);
        out
    }

    /// Closed loop, `clients` threads, durable TCP sessions.
    fn tcp_loop(
        &self,
        endpoint: &str,
        prefix: &str,
        clients: usize,
        limit: usize,
        deadline: f64,
        tracer: Option<&Mutex<Tracer>>,
    ) -> Vec<Record> {
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    let mut prev = 0.0;
                    loop {
                        if secs(t0, Instant::now()) >= deadline {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= limit {
                            break;
                        }
                        let input = &self.inputs[self.order[index]];
                        let name = format!("{prefix}{index}");
                        let frames = wire::split_frames(&input.bytes);
                        let start = Instant::now();
                        let (ok, phases) = match wire::tcp_session(endpoint, &name, &frames) {
                            Ok((body, p)) => (body == input.reference, Some(p)),
                            Err(e) => {
                                eprintln!("perfbench: session {name}: {e}");
                                (false, None)
                            }
                        };
                        let end = Instant::now();
                        if let (Some(t), Some(p)) = (tracer, &phases) {
                            let mut t = t.lock().expect("no client thread panicked");
                            let s = index as u64;
                            let root = t.record("e2e.session", None, s, start, end);
                            t.record("cli.handshake", Some(root), s, p.handshake.0, p.handshake.1);
                            for &(a, b) in &p.frames {
                                t.record("cli.frame", Some(root), s, a, b);
                            }
                            t.record("cli.end", Some(root), s, p.end.0, p.end.1);
                        }
                        let (sent, done) = (secs(t0, start), secs(t0, end));
                        out.lock().expect("no client thread panicked").push(Record {
                            index,
                            input: self.order[index],
                            due: sent,
                            sent,
                            done,
                            late: stats::lateness(prev, sent),
                            ok,
                            rss_kb: 0,
                            tcp: phases,
                            at: (start, end),
                        });
                        prev = done;
                    }
                });
            }
        });
        let mut out = out.into_inner().expect("no client thread panicked");
        out.sort_by_key(|r| r.index);
        out
    }

    fn events(&self, records: &[Record]) -> u64 {
        records.iter().map(|r| self.inputs[r.input].events).sum()
    }

    fn daemon_dir(&self, tag: &str) -> PathBuf {
        self.work.join(format!("daemon-{tag}"))
    }
}

/// What the untraced, measured loop produced.
struct Measured {
    records: Vec<Record>,
    peak_rss_mb: f64,
    cpu_frac: f64,
    /// Untimed warm-up sessions before the loop, all checked.
    warmup: Vec<Record>,
}

/// Warm-up sessions per run: caches fill and lazy set-up finishes
/// before timing starts.
const WARMUP_SESSIONS: usize = 8;

fn transport(w: Workload) -> Option<Transport> {
    match w {
        Workload::SocketMix => Some(Transport::Socket),
        Workload::TcpDurable => Some(Transport::TcpDurable),
        _ => None,
    }
}

/// Runs the workload's loop once, untraced, for `--seconds`.
fn measure(bench: &Bench, daemon: Option<Daemon>) -> Result<Measured, String> {
    let seconds = bench.args.seconds;
    let warmup = match (bench.args.workload, &daemon) {
        (Workload::SocketMix, Some(d)) => {
            bench.socket_loop(&d.endpoint, "w", WARMUP_SESSIONS, None, None)
        }
        (Workload::TcpDurable, Some(d)) => {
            bench.tcp_loop(&d.endpoint, "w", 2, WARMUP_SESSIONS, f64::INFINITY, None)
        }
        _ => bench.replay_loop(WARMUP_SESSIONS, f64::INFINITY, None),
    };
    let cpu0 = procs::self_cpu();
    let t0 = Instant::now();
    let (records, peak_rss_mb) = match (bench.args.workload, daemon) {
        (w, None) if w.is_replay() => {
            let records = bench.replay_loop(bench.order.len(), seconds, None);
            let peak = records.iter().map(|r| r.rss_kb).max().unwrap_or(0) as f64 / 1024.0;
            (records, peak)
        }
        (Workload::SocketMix, Some(d)) => {
            let records = bench.socket_loop(&d.endpoint, "u", bench.arrivals.len(), None, None);
            let peak = d.peak_rss_mb();
            d.stop().map_err(|e| format!("daemon: {e}"))?;
            (records, peak)
        }
        (Workload::TcpDurable, Some(d)) => {
            let records = bench.tcp_loop(&d.endpoint, "u", 2, bench.order.len(), seconds, None);
            let peak = d.peak_rss_mb();
            d.stop().map_err(|e| format!("daemon: {e}"))?;
            (records, peak)
        }
        _ => unreachable!("daemon presence follows the workload"),
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procs::self_cpu().saturating_sub(cpu0).as_secs_f64();
    if records.is_empty() {
        return Err("no session completed".into());
    }
    Ok(Measured {
        records,
        peak_rss_mb,
        cpu_frac: cpu / wall,
        warmup,
    })
}

/// `setup_s` samples: daemon spawn until it accepts (serve), or a
/// zero-event replay end to end (replay). Returns the daemon of the last
/// spawn for the measured loop.
fn setup(bench: &Bench) -> Result<(Vec<f64>, Option<Daemon>), String> {
    match transport(bench.args.workload) {
        None => {
            let mut samples = Vec::new();
            for _ in 0..REPLAY_SETUP_REPS {
                let start = Instant::now();
                let (ok, _, _) = bench
                    .replay_once(&bench.zero.path, &bench.zero.reference)
                    .map_err(|e| format!("zero-event replay: {e}"))?;
                samples.push(start.elapsed().as_secs_f64());
                if !ok {
                    return Err("zero-event replay report differs from the in-process one".into());
                }
            }
            Ok((samples, None))
        }
        Some(t) => {
            let mut samples = Vec::new();
            let mut last = None;
            for rep in 0..SERVE_SETUP_REPS {
                let (d, ready) = Daemon::spawn(&bench.args.pacer, t, &bench.daemon_dir("main"))
                    .map_err(|e| format!("daemon: {e}"))?;
                samples.push(ready.as_secs_f64());
                if rep + 1 == SERVE_SETUP_REPS {
                    last = Some(d);
                } else {
                    d.stop().map_err(|e| format!("daemon: {e}"))?;
                }
            }
            Ok((samples, last))
        }
    }
}

/// An ordered list of named metrics with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(n),
                    json::number(*v),
                    json::string(u)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

fn end_to_end(bench: &Bench, m: &Measured, setup: &[f64], lines: &mut Vec<String>) -> Metrics {
    let r = &m.records;
    let first = r.iter().map(|r| r.sent).fold(f64::INFINITY, f64::min);
    let last = r.iter().map(|r| r.done).fold(0.0, f64::max);
    let lat = Summary::of(&ms(r.iter().map(Record::latency)));
    let setup = Summary::of(setup);
    let failed = r.iter().filter(|r| !r.ok).count();
    let mut out = Metrics::default();
    out.put(
        "events_per_s",
        bench.events(r) as f64 / (last - first),
        "events/s",
    );
    out.put("session_p50_ms", lat.median, "ms");
    out.put("session_p95_ms", lat.p95, "ms");
    out.put("peak_rss_mb", m.peak_rss_mb, "MB");
    out.put("setup_s", setup.median, "s");
    lines.push(format!(
        "sessions {} (latency median {:.3} ms, p95 {:.3} ms), setup median {:.6} s p95 {:.6} s over {}",
        lat.n, lat.median, lat.p95, setup.median, setup.p95, setup.n
    ));
    lines.push(format!(
        "failed_frac {} ratio ({failed} of {})",
        failed as f64 / r.len() as f64,
        r.len()
    ));
    out
}

/// Sessions `0..k` of the measured loop, the traced run's subject.
fn traced_prefix(bench: &Bench, m: &Measured) -> usize {
    let cap = match bench.args.workload {
        Workload::ReplayR100 | Workload::ReplayR3 => 40,
        Workload::SocketMix => 120,
        Workload::TcpDurable => 16,
    };
    m.records.len().min(cap)
}

/// The first sessions of `0..k` whose events stay within the side-pass
/// budget (at least one).
fn side_prefix(bench: &Bench, k: usize) -> usize {
    let mut events = 0;
    for i in 0..k {
        events += bench.inputs[bench.order[i]].events;
        if events > SIDE_PASS_EVENTS {
            return i.max(1);
        }
    }
    k
}

struct Traced {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    tracer: Tracer,
}

fn tcp_stats(records: &[Record], metrics: &mut Metrics) {
    let phases: Vec<&wire::TcpPhases> = records.iter().filter_map(|r| r.tcp.as_ref()).collect();
    let d = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let hs: Vec<f64> = phases
        .iter()
        .map(|p| d(p.handshake.0, p.handshake.1) * 1e3)
        .collect();
    let acks: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.frames.iter().map(|&(a, b)| d(a, b) * 1e6))
        .collect();
    let ends: Vec<f64> = phases.iter().map(|p| d(p.end.0, p.end.1) * 1e3).collect();
    metrics.put("cli.tcp_handshake_ms_p50", stats::median(&hs), "ms");
    metrics.put("cli.tcp_ack_rtt_us_p50", stats::median(&acks), "us");
    metrics.put("cli.tcp_ack_rtt_us_p95", percentile(&acks, 0.95), "us");
    metrics.put("cli.end_to_report_ms_p50", stats::median(&ends), "ms");
}

/// The traced run: a traced re-run of sessions `0..k`, then each layer
/// timed in-process over the same inputs, reconciled with the untraced
/// wall of those sessions.
fn traced(bench: &Bench, m: &Measured) -> Result<Traced, String> {
    let w = bench.args.workload;
    let k = traced_prefix(bench, m);
    let untraced = &m.records[..k];
    let e2e_untraced: f64 = untraced.iter().map(Record::service).sum();
    let events_k = bench.events(untraced);
    let tracer = Mutex::new(Tracer::new());
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Metrics::default();

    // 1. Traced end-to-end re-run of the same sessions, plus the fixed
    //    per-session cost over the same transport.
    let traced_records = match transport(w) {
        None => bench.replay_loop(k, f64::INFINITY, Some(&tracer)),
        Some(t) => {
            let (d, _) = Daemon::spawn(&bench.args.pacer, t, &bench.daemon_dir("traced"))
                .map_err(|e| format!("daemon: {e}"))?;
            let records = if t == Transport::Socket {
                bench.socket_loop(&d.endpoint, "t", k, None, Some(&tracer))
            } else {
                bench.tcp_loop(&d.endpoint, "t", 2, k, f64::INFINITY, Some(&tracer))
            };
            // Header-only sessions in the measured loop's pattern: the
            // fixed per-session cost over the transport, accept polling
            // included.
            let fixed: Vec<(bool, (Instant, Instant))> = if t == Transport::Socket {
                let records = bench.socket_loop(&d.endpoint, "h", k, Some(&bench.zero), None);
                records.into_iter().map(|r| (r.ok, r.at)).collect()
            } else {
                (0..k)
                    .map(|i| {
                        let start = Instant::now();
                        let reply = wire::tcp_session(&d.endpoint, &format!("h{i}"), &[]);
                        let ok = reply.is_ok_and(|(body, _)| body == bench.zero.reference);
                        (ok, (start, Instant::now()))
                    })
                    .collect()
            };
            let mut t = tracer.lock().expect("no tracer user panicked");
            for (i, &(ok, (start, end))) in fixed.iter().enumerate() {
                t.record("cli.session_fixed", None, i as u64, start, end);
                failed += usize::from(!ok);
            }
            drop(t);
            attempted += fixed.len();
            d.stop().map_err(|e| format!("daemon: {e}"))?;
            records
        }
    };
    attempted += traced_records.len();
    failed += traced_records.iter().filter(|r| !r.ok).count();
    let e2e_traced: f64 = traced_records.iter().map(Record::service).sum();
    let mut tracer = tracer.into_inner().expect("no client thread panicked");

    // 2. The layers, in-process, over sessions 0..k.
    let subject: Vec<(u64, &Input)> = (0..k)
        .map(|i| (i as u64, &bench.inputs[bench.order[i]]))
        .collect();
    let mut core = Vec::new();
    let mut actions = Vec::new();
    for &(s, input) in &subject {
        let (spans, decoded) = layers::core_spans(&mut tracer, s, &input.bytes);
        core.push(spans);
        actions.push(decoded);
    }
    let in_process_work: f64;
    let reconciled: &[&str] = match w {
        Workload::ReplayR100 | Workload::ReplayR3 => {
            for &(s, input) in &subject {
                let start = Instant::now();
                let (ok, _, _) = bench
                    .replay_once(&bench.zero.path, &bench.zero.reference)
                    .map_err(|e| format!("zero-event replay: {e}"))?;
                tracer.record("cli.process", None, s, start, Instant::now());
                attempted += 1;
                failed += usize::from(!ok);
                let (_, read) = tracer.time("cli.read", None, s, || std::fs::read(&input.path));
                read.map_err(|e| format!("{}: {e}", input.path.display()))?;
            }
            let totals = tracer.totals();
            in_process_work = ["trace.decode", "trace.validate", "core.apply"]
                .iter()
                .map(|n| totals[n] as f64)
                .sum();
            &[
                "cli.process",
                "cli.read",
                "trace.decode",
                "trace.validate",
                "core.apply",
            ]
        }
        Workload::SocketMix => {
            let pass = layers::serve_pass(&mut tracer, "harness.service.serve", SHARDS, &subject);
            attempted += subject.len();
            failed += pass.mismatches;
            for (span, c) in pass.spans.iter().zip(&core) {
                for child in c.ids() {
                    tracer.attribute(child, *span);
                }
            }
            in_process_work = tracer.totals()["harness.service.serve"] as f64;
            &[
                "cli.session_fixed",
                "harness.service.serve",
                "trace.decode",
                "trace.validate",
                "core.apply",
            ]
        }
        Workload::TcpDurable => {
            let pass = layers::durable_pass(
                &mut tracer,
                "harness.service",
                Some(&bench.work.join("wal-traced")),
                &subject,
            );
            attempted += subject.len();
            failed += pass.mismatches;
            for (span, c) in pass.close_spans.iter().zip(&core) {
                for child in c.ids() {
                    tracer.attribute(child, *span);
                }
            }
            let totals = tracer.totals();
            in_process_work = [
                "harness.service.durable_open",
                "harness.service.durable_frame",
                "harness.service.durable_close",
            ]
            .iter()
            .map(|n| totals[n] as f64)
            .sum();
            &[
                "cli.session_fixed",
                "harness.service.durable_open",
                "harness.service.durable_frame",
                "harness.service.durable_close",
                "trace.decode",
                "trace.validate",
                "core.apply",
            ]
        }
    };
    let selfs = tracer.self_times();
    let layer_ns: f64 = reconciled
        .iter()
        .map(|n| selfs.get(n).copied().unwrap_or(0) as f64)
        .sum();
    let totals = tracer.totals();
    let per_event = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / events_k as f64;
    let bytes_k: usize = subject.iter().map(|(_, i)| i.bytes.len()).sum();

    // 3. Side passes over the first sessions, within an event budget.
    let mp = side_prefix(bench, k);
    let side = &subject[..mp];
    let events_m: u64 = side.iter().map(|(_, i)| i.events).sum();
    let span_ns = |ids: &mut dyn Iterator<Item = usize>| -> f64 {
        ids.map(|id| tracer.spans()[id].dur_ns() as f64).sum()
    };
    let apply_m = span_ns(&mut core[..mp].iter().map(|c| c.apply));
    let core_m = span_ns(&mut core[..mp].iter().flat_map(|c| c.ids()));
    let mut counts = layers::OpCounts::default();
    let mut predicted = 0.0;
    let mut costs = BTreeMap::new();
    let (mut w_join, mut w_deep, mut w_shallow) = (0.0, 0.0, 0.0);
    let mut ft_ns = 0.0;
    for (i, (_, input)) in side.iter().enumerate() {
        let c = layers::OpCounts::of(&layers::observed_counts(&actions[i]));
        let cost = *costs
            .entry(input.threads())
            .or_insert_with(|| layers::clock_costs(input.threads()));
        predicted += cost.predict(&c);
        w_join += c.joins_slow as f64 * cost.join;
        w_deep += c.copies_deep as f64 * cost.deep_copy;
        w_shallow += c.copies_shallow as f64 * cost.shallow_copy;
        counts.add(c);
        ft_ns += layers::fasttrack_ns(&actions[i]) as f64;
    }
    let per_k = |n: u64| n as f64 * 1000.0 / events_m as f64;
    let avg = |weighted: f64, n: u64, fallback: f64| {
        if n == 0 {
            fallback
        } else {
            weighted / n as f64
        }
    };
    let base = layers::clock_costs(side[0].1.threads());
    let s2 = layers::serve_pass(&mut tracer, "side.serve.shards2", SHARDS, side);
    let s1 = layers::serve_pass(&mut tracer, "side.serve.shards1", 1, side);
    let wal_dir = bench.work.join("wal-side");
    let wal = layers::durable_pass(&mut tracer, "side.durable", Some(&wal_dir), side);
    let nowal = layers::durable_pass(&mut tracer, "side.durable.nowal", None, side);
    attempted += 4 * side.len();
    failed += s2.mismatches + s1.mismatches + wal.mismatches + nowal.mismatches;
    let side_totals = tracer.totals();
    let side_per_event = |name: &str| side_totals[name] as f64 / events_m as f64;
    let journal_us =
        layers::journal_write_us(&bench.work.join("journal.bench"), &side[0].1.reference);

    // 4. Client-side transport stamps: the measured loop's own when it
    //    speaks TCP, otherwise a short TCP probe over the same inputs.
    let probe;
    let tcp_records: &[Record] = if w == Workload::TcpDurable {
        &m.records
    } else {
        let (d, _) = Daemon::spawn(
            &bench.args.pacer,
            Transport::TcpDurable,
            &bench.daemon_dir("probe"),
        )
        .map_err(|e| format!("daemon: {e}"))?;
        probe = bench.tcp_loop(&d.endpoint, "p", 1, mp.min(4), f64::INFINITY, None);
        d.stop().map_err(|e| format!("daemon: {e}"))?;
        attempted += probe.len();
        failed += probe.iter().filter(|r| !r.ok).count();
        &probe
    };

    let late_ms: Vec<f64> = ms(m.records.iter().map(|r| r.late));
    let mt = &mut metrics;
    mt.put("trace.decode_ns_per_event", per_event("trace.decode"), "ns");
    mt.put(
        "trace.validate_ns_per_event",
        per_event("trace.validate"),
        "ns",
    );
    mt.put(
        "trace.bytes_per_event",
        bytes_k as f64 / events_k as f64,
        "bytes",
    );
    mt.put("core.apply_ns_per_event", per_event("core.apply"), "ns");
    mt.put(
        "core.joins_slow_per_kevent",
        per_k(counts.joins_slow),
        "count",
    );
    mt.put(
        "core.joins_fast_per_kevent",
        per_k(counts.joins_fast),
        "count",
    );
    mt.put(
        "core.copies_deep_per_kevent",
        per_k(counts.copies_deep),
        "count",
    );
    mt.put(
        "core.copies_shallow_per_kevent",
        per_k(counts.copies_shallow),
        "count",
    );
    mt.put(
        "core.reads_slow_per_kevent",
        per_k(counts.reads_slow),
        "count",
    );
    mt.put(
        "core.writes_slow_per_kevent",
        per_k(counts.writes_slow),
        "count",
    );
    mt.put(
        "clock.join_ns",
        avg(w_join, counts.joins_slow, base.join),
        "ns",
    );
    mt.put(
        "clock.deep_copy_ns",
        avg(w_deep, counts.copies_deep, base.deep_copy),
        "ns",
    );
    mt.put(
        "clock.shallow_copy_ns",
        avg(w_shallow, counts.copies_shallow, base.shallow_copy),
        "ns",
    );
    mt.put("clock.fast_join_ns", base.fast_join, "ns");
    mt.put(
        "clock.predicted_ns_per_event",
        predicted / events_m as f64,
        "ns",
    );
    mt.put(
        "core.nonclock_ns_per_event",
        (apply_m - predicted) / events_m as f64,
        "ns",
    );
    mt.put(
        "fasttrack.apply_ns_per_event",
        ft_ns / events_m as f64,
        "ns",
    );
    mt.put(
        "harness.service.serve_ns_per_event",
        side_per_event("side.serve.shards2"),
        "ns",
    );
    mt.put(
        "harness.service.serve_ns_per_event.shards1",
        side_per_event("side.serve.shards1"),
        "ns",
    );
    mt.put(
        "harness.service.engine_ns_per_event",
        (side_totals["side.serve.shards2"] as f64 - core_m) / events_m as f64,
        "ns",
    );
    mt.put(
        "harness.service.shard_events_per_event",
        s2.shard_events as f64 / events_m as f64,
        "ratio",
    );
    mt.put("harness.service.session_fixed_us", s2.fixed_ns / 1e3, "us");
    mt.put(
        "harness.service.durable_frame_us_p50",
        stats::median(&wal.frame_us),
        "us",
    );
    mt.put(
        "harness.service.durable_frame_us_p95",
        percentile(&wal.frame_us, 0.95),
        "us",
    );
    mt.put(
        "harness.service.durable_frame_nowal_us_p50",
        stats::median(&nowal.frame_us),
        "us",
    );
    mt.put(
        "harness.service.durable_close_ns_per_event",
        side_per_event("side.durable.close"),
        "ns",
    );
    mt.put("harness.journal.write_line_us", journal_us, "us");
    tcp_stats(tcp_records, mt);
    mt.put(
        "cli.transport_ns_per_event",
        (e2e_untraced * 1e9 - in_process_work) / events_k as f64,
        "ns",
    );
    mt.put("loadgen.late_ms_p95", percentile(&late_ms, 0.95), "ms");
    mt.put("loadgen.cpu_frac", m.cpu_frac, "ratio");
    mt.put(
        "reconcile.residual_frac",
        1.0 - layer_ns / (e2e_untraced * 1e9),
        "ratio",
    );
    mt.put(
        "reconcile.trace_overhead_frac",
        e2e_traced / e2e_untraced - 1.0,
        "ratio",
    );

    Ok(Traced {
        metrics,
        attempted,
        failed,
        tracer,
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Per input: measured sessions and their median latency, in ms.
fn per_input_json(bench: &Bench, m: &Measured) -> String {
    let rows: Vec<String> = bench
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let lat = ms(m
                .records
                .iter()
                .filter(|r| r.input == i)
                .map(Record::latency));
            format!(
                "{{\"label\":{},\"events\":{},\"sessions\":{},\"latency_ms_median\":{}}}",
                json::string(&input.spec.label),
                input.events,
                lat.len(),
                json::number(stats::median(&lat))
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn context_json(bench: &Bench) -> String {
    let a = &bench.args;
    let inputs: Vec<String> = bench.inputs.iter().map(|i| i.spec.context_json()).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"shards\":{},\"nproc\":{},\"offered_sessions_per_s\":{},\"rustc\":{},\"git_commit\":{},\"inputs\":[{}]}}",
        json::string(a.workload.name()),
        a.seed,
        a.seconds,
        a.trace,
        SHARDS,
        nproc,
        if a.workload == Workload::SocketMix { json::number(OFFERED_SESSIONS_PER_S) } else { "null".into() },
        json::string(&command_line("rustc", &["--version"])),
        json::string(&command_line("git", &["rev-parse", "HEAD"])),
        inputs.join(",")
    )
}

/// Generates and materializes the pool on two threads.
fn materialize_all(specs: &[inputs::InputSpec], dir: &Path) -> Result<Vec<Input>, String> {
    let slots: Vec<Mutex<Option<std::io::Result<Input>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                *slots[i].lock().expect("no generator thread panicked") =
                    Some(inputs::materialize(&specs[i], dir, i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no generator thread panicked")
                .expect("every slot filled")
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn run(args: Args) -> Result<(String, bool, Vec<String>), String> {
    let w = args.workload;
    let work = args.root.join("work").join(w.name());
    let out_dir = args.root.join("out");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    // Set-up: inputs, references, and the oracle half of the gate.
    let specs = inputs::pool(w, args.seed);
    let pool = materialize_all(&specs, &work)?;
    let zero_spec = inputs::InputSpec {
        label: "zero".into(),
        gen: specs[0].gen.clone(),
        rate: 1.0,
        frame_events: None,
    };
    let zero_path = work.join("zero.ptrace");
    std::fs::write(
        &zero_path,
        pacer_trace::binary::encode_trace(&pacer_trace::Trace::new()),
    )
    .map_err(|e| e.to_string())?;
    let zero = Input {
        spec: zero_spec,
        bytes: std::fs::read(&zero_path).map_err(|e| e.to_string())?,
        reference: inputs::replay_in_process(&zero_path),
        path: zero_path,
        events: 0,
    };
    let mut gate_failures: Vec<String> = pool
        .iter()
        .filter_map(|i| gate::oracle_check(i, &work))
        .collect();
    if w == Workload::ReplayR100 {
        gate_failures.extend(pool.iter().filter_map(gate::fasttrack_check));
    }

    let mut rng = Rng::seed_from_u64(derive_seed(args.seed, 0xbe7c));
    let (order, arrivals) = if w == Workload::SocketMix {
        let n = (OFFERED_SESSIONS_PER_S * args.seconds).round() as usize;
        let arrivals = stats::poisson_arrivals(n, args.seconds, &mut rng);
        let classes = inputs::socket_classes(&specs);
        (inputs::draw_classes(&classes, n, &mut rng), arrivals)
    } else {
        (
            inputs::draw_order(pool.len(), 100_000, &mut rng),
            Vec::new(),
        )
    };
    let bench = Bench {
        args,
        inputs: pool,
        zero,
        work,
        order,
        arrivals,
    };

    let (setup_samples, daemon) = setup(&bench)?;
    let measured = measure(&bench, daemon)?;
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} shards {SHARDS} nproc {}",
        w.name(),
        bench.args.seed,
        bench.args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )];
    let e2e = end_to_end(&bench, &measured, &setup_samples, &mut lines);
    let checked = measured.records.iter().chain(&measured.warmup);
    let mut attempted = measured.records.len() + measured.warmup.len();
    let mut failed = checked.filter(|r| !r.ok).count();

    let (metrics, spans) = if bench.args.trace {
        let t = traced(&bench, &measured)?;
        attempted += t.attempted;
        failed += t.failed;
        (t.metrics, Some(t.tracer))
    } else {
        (e2e, None)
    };
    if let Some((name, _, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let correct = failed == 0 && gate_failures.is_empty();
    for f in &gate_failures {
        lines.push(format!("gate: {f}"));
    }
    for (n, v, u) in &metrics.0 {
        lines.push(format!("{n} {v} {u}"));
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        w.name(),
        bench.args.seed,
        u8::from(bench.args.trace)
    );
    if let Some(t) = &spans {
        let path = out_dir.join(format!("{tag}.spans.jsonl"));
        std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    let gate_json: Vec<String> = gate_failures.iter().map(|g| json::string(g)).collect();
    let full = format!(
        "{{\"context\":{},\"gate_failures\":[{}],\"per_input\":{},\"failed_frac\":{},\"result\":{}}}\n",
        context_json(&bench),
        gate_json.join(","),
        per_input_json(&bench, &measured),
        json::number(failed as f64 / attempted as f64),
        result
    );
    let path = out_dir.join(format!("{tag}.json"));
    std::fs::write(&path, full).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!("result written to {}", path.display()));
    let _ = std::fs::remove_dir_all(&bench.work);
    Ok((result, correct, lines))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok((result, correct, lines)) => {
            for l in lines {
                println!("{l}");
            }
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
