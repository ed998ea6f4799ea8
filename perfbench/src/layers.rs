//! In-process calls into each layer's public functions, timed as spans
//! or per-operation costs over the workload's own inputs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pacer_clock::{CowClock, ThreadId, VectorClock, VersionEpoch, VersionVector};
use pacer_core::PacerDetector;
use pacer_fasttrack::FastTrackDetector;
use pacer_harness::{run_service, DurableFrameError, DurableOpen, ServeConfig, ServeDetectorKind};
use pacer_obs::{Observed, PacerStats, Registry, RegistryConfig};
use pacer_trace::{Action, Detector, ValidatedActions};

use crate::daemon::SHARDS;
use crate::gate;
use crate::inputs::Input;
use crate::spans::Tracer;
use crate::stats::median;
use crate::wire::split_frames;

/// Span ids of one session's decode, validate and apply spans.
#[derive(Clone, Copy, Debug)]
pub struct CoreSpans {
    pub decode: usize,
    pub validate: usize,
    pub apply: usize,
}

impl CoreSpans {
    pub fn ids(self) -> [usize; 3] {
        [self.decode, self.validate, self.apply]
    }
}

/// `trace.decode`, `trace.validate` and `core.apply` spans over one
/// session's bytes; returns the decoded actions for later passes.
pub fn core_spans(tracer: &mut Tracer, session: u64, bytes: &[u8]) -> (CoreSpans, Vec<Action>) {
    let (decode, actions) = tracer.time("trace.decode", None, session, || gate::decode(bytes));
    let (validate, ()) = tracer.time("trace.validate", None, session, || {
        let mut v = ValidatedActions::new(actions.iter().copied());
        for a in v.by_ref() {
            black_box(a);
        }
        assert!(v.error().is_none(), "generated traces validate");
    });
    let (apply, ()) = tracer.time("core.apply", None, session, || {
        let mut det = PacerDetector::new();
        for a in &actions {
            det.on_action(a);
        }
        black_box(det.races().len());
    });
    (
        CoreSpans {
            decode,
            validate,
            apply,
        },
        actions,
    )
}

/// FASTTRACK over pre-decoded actions, in ns.
pub fn fasttrack_ns(actions: &[Action]) -> u64 {
    let start = Instant::now();
    let mut det = FastTrackDetector::new();
    for a in actions {
        det.on_action(a);
    }
    black_box(det.races().len());
    start.elapsed().as_nanos() as u64
}

/// PACER's operation counts from an untimed observed pass.
pub fn observed_counts(actions: &[Action]) -> PacerStats {
    let mut obs = Observed::new(
        PacerDetector::new(),
        Registry::enabled(RegistryConfig::default()),
    );
    for a in actions {
        obs.on_action(a);
    }
    let (_, registry) = obs.finish();
    registry.metrics().detector
}

/// The clock-op counts the prediction multiplies.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    pub joins_slow: u64,
    pub joins_fast: u64,
    pub copies_deep: u64,
    pub copies_shallow: u64,
    pub reads_slow: u64,
    pub writes_slow: u64,
}

impl OpCounts {
    pub fn of(s: &PacerStats) -> OpCounts {
        OpCounts {
            joins_slow: s.joins.sampling_slow + s.joins.non_sampling_slow,
            joins_fast: s.joins.sampling_fast + s.joins.non_sampling_fast,
            copies_deep: s.copies.sampling_deep + s.copies.non_sampling_deep,
            copies_shallow: s.copies.sampling_shallow + s.copies.non_sampling_shallow,
            reads_slow: s.reads.sampling_slow + s.reads.non_sampling_slow,
            writes_slow: s.writes.sampling_slow + s.writes.non_sampling_slow,
        }
    }

    pub fn add(&mut self, o: OpCounts) {
        self.joins_slow += o.joins_slow;
        self.joins_fast += o.joins_fast;
        self.copies_deep += o.copies_deep;
        self.copies_shallow += o.copies_shallow;
        self.reads_slow += o.reads_slow;
        self.writes_slow += o.writes_slow;
    }
}

/// Per-op costs of the `pacer_clock` operations PACER's counters name,
/// in ns, at one clock width.
#[derive(Clone, Copy, Debug)]
pub struct ClockCosts {
    pub join: f64,
    pub fast_join: f64,
    pub deep_copy: f64,
    pub shallow_copy: f64,
}

impl ClockCosts {
    /// Predicted clock time of `c`, in ns.
    pub fn predict(&self, c: &OpCounts) -> f64 {
        c.joins_slow as f64 * self.join
            + c.joins_fast as f64 * self.fast_join
            + c.copies_deep as f64 * self.deep_copy
            + c.copies_shallow as f64 * self.shallow_copy
    }
}

fn clock_of_width(n: usize) -> VectorClock {
    let mut c = VectorClock::new();
    for i in 0..n {
        c.set(ThreadId::new(i as u32), i as u64 + 1);
    }
    c
}

/// Median over 5 batches of `iters` calls, in ns per call.
fn per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Times the clock ops at width `threads`.
pub fn clock_costs(threads: usize) -> ClockCosts {
    const ITERS: u32 = 100_000;
    let src = clock_of_width(threads);
    let mut dst = clock_of_width(threads);
    let join = per_op(ITERS, || dst.join(black_box(&src)));
    let mut vv = VersionVector::new();
    vv.set(ThreadId::new(threads as u32 - 1), 9);
    let ve = VersionEpoch::at(5, ThreadId::new(threads as u32 - 1));
    let fast_join = per_op(ITERS, || {
        black_box(black_box(ve).leq(black_box(&vv)));
    });
    let cow = CowClock::new(clock_of_width(threads));
    let deep_copy = per_op(ITERS, || {
        black_box(cow.deep_copy());
    });
    let shallow_copy = per_op(ITERS, || {
        black_box(cow.shallow_copy());
    });
    ClockCosts {
        join,
        fast_join,
        deep_copy,
        shallow_copy,
    }
}

fn serve_config(shards: usize, wal: Option<&Path>) -> ServeConfig {
    let mut cfg = ServeConfig::new(ServeDetectorKind::Pacer);
    cfg.shards = shards;
    cfg.wal = wal.map(Path::to_path_buf);
    cfg
}

/// What an in-process serve pass measured.
pub struct ServePass {
    /// `harness.service.serve` span id per session, in input order.
    pub spans: Vec<usize>,
    /// Σ `ServeCounters.events` over shards.
    pub shard_events: u64,
    /// Median header-only session, in ns.
    pub fixed_ns: f64,
    /// Sessions whose body differed from the reference.
    pub mismatches: usize,
}

/// `ServiceHandle::serve` of each input in turn, one span each, plus
/// header-only sessions for the fixed per-session cost.
pub fn serve_pass(
    tracer: &mut Tracer,
    name: &'static str,
    shards: usize,
    inputs: &[(u64, &Input)],
) -> ServePass {
    let cfg = serve_config(shards, None);
    let header = pacer_trace::binary::encode_trace(&pacer_trace::Trace::new());
    let result = run_service(&cfg, |handle| {
        let mut spans = Vec::new();
        let mut mismatches = 0;
        for &(session, input) in inputs {
            let (id, report) = tracer.time(name, None, session, || {
                handle.serve(&format!("s{session}"), &input.bytes[..])
            });
            mismatches += usize::from(report.body != input.reference);
            spans.push(id);
        }
        let fixed: Vec<f64> = (0..50)
            .map(|i| {
                let start = Instant::now();
                black_box(handle.serve(&format!("h{i}"), &header[..]));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        Ok((spans, mismatches, median(&fixed)))
    });
    let (output, (spans, mismatches, fixed_ns)) = result.expect("in-process serve runs");
    ServePass {
        spans,
        shard_events: output.shard_counters.iter().map(|c| c.events).sum(),
        fixed_ns,
        mismatches,
    }
}

/// What an in-process durable pass measured.
pub struct DurablePass {
    /// Per-frame `durable_frame` time, in µs.
    pub frame_us: Vec<f64>,
    /// `durable_close` span id per session, in input order.
    pub close_spans: Vec<usize>,
    pub mismatches: usize,
}

/// `durable_open` / `durable_frame` / `durable_close` of each input
/// under `run_service`, with a WAL directory when `wal` is given. Span
/// names come from `prefix`: `harness.service` for the reconciled pass,
/// `side.durable` or `side.durable.nowal` for the side passes.
pub fn durable_pass(
    tracer: &mut Tracer,
    prefix: &'static str,
    wal: Option<&Path>,
    inputs: &[(u64, &Input)],
) -> DurablePass {
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("wal dir");
    }
    let cfg = serve_config(SHARDS, wal);
    let (open_name, frame_name, close_name) = match prefix {
        "harness.service" => (
            "harness.service.durable_open",
            "harness.service.durable_frame",
            "harness.service.durable_close",
        ),
        "side.durable" => (
            "side.durable.open",
            "side.durable.frame",
            "side.durable.close",
        ),
        _ => (
            "side.durable.nowal.open",
            "side.durable.nowal.frame",
            "side.durable.nowal.close",
        ),
    };
    let result = run_service(&cfg, |handle| {
        let mut pass = DurablePass {
            frame_us: Vec::new(),
            close_spans: Vec::new(),
            mismatches: 0,
        };
        for &(session, input) in inputs {
            let name = format!("d{session}");
            let frames = split_frames(&input.bytes);
            let (_, opened) = tracer.time(open_name, None, session, || {
                handle.durable_open(&name, false)
            });
            let DurableOpen::Started { epoch } = opened else {
                pass.mismatches += 1;
                continue;
            };
            for (offset, frame) in frames.iter().enumerate() {
                let start = Instant::now();
                let ack = handle.durable_frame(&name, epoch, offset as u64, frame);
                let end = Instant::now();
                tracer.record(frame_name, None, session, start, end);
                pass.frame_us.push((end - start).as_nanos() as f64 / 1e3);
                if ack.is_err() {
                    pass.mismatches += 1;
                }
            }
            let (id, closed) = tracer.time(close_name, None, session, || {
                handle.durable_close(&name, epoch, frames.len() as u64)
            });
            pass.close_spans.push(id);
            match closed {
                Ok(report) if report.body == input.reference => {}
                Ok(_) | Err(DurableFrameError::Failed(_)) | Err(DurableFrameError::Detached) => {
                    pass.mismatches += 1;
                }
            }
        }
        Ok(pass)
    });
    let (_, pass) = result.expect("in-process durable service runs");
    pass
}

/// `JournalWriter::write_line` of a report-sized entry, median µs.
pub fn journal_write_us(path: &Path, report: &str) -> f64 {
    let mut writer = pacer_harness::journal::JournalWriter::create(path).expect("journal file");
    let entry = format!(
        "{{\"name\":\"bench\",\"body\":{}}}",
        crate::json::string(report)
    );
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let start = Instant::now();
            writer.write_line(&entry).expect("journal write");
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}
