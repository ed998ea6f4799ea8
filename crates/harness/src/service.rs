//! The streaming detection service engine behind `pacer serve`.
//!
//! Batch entry points replay one trace into one detector. The service
//! accepts many concurrent *sessions* — each an independent `.ptrace`
//! stream (TRACE_FORMAT.md) — and runs the detection itself on a pool of
//! [`shard`] workers, so ingest parallelism and detection
//! parallelism scale independently of the number of connections.
//!
//! # Sharding and why it is exact
//!
//! Every session is routed *whole* to one worker, its home shard
//! `session mod N`, chosen at admission. The handler sends the session's
//! events in stream order, one message per decoded `.ptrace` frame (at
//! most [`binary::FRAME_EVENT_TARGET`] events), and the home worker
//! applies them to one detector — exactly what `pacer replay` does with
//! the same bytes. So each report is byte-identical to replay by
//! construction, with no replicated state and no merge: parallelism
//! comes from concurrent sessions, never from splitting one (the
//! replayable-log argument of Ronsse & De Bosschere, PAPERS.md).
//!
//! # Determinism
//!
//! Per-session reports depend only on the session's bytes and the
//! service configuration. The merged transcript orders sessions by name
//! and sums counts, so it is byte-identical regardless of shard count,
//! arrival interleaving, or handler scheduling (`tests/serve.rs` and the
//! ci.sh gate enforce this against `pacer replay`).
//!
//! # Recovery and backpressure
//!
//! Completed sessions checkpoint to the PR 4 checksummed journal and are
//! restored verbatim on `--resume` — a killed-and-resumed service emits
//! the same merged transcript as an uninterrupted one. Under memory
//! pressure (`--mem-budget`), the PR 5 governor steps the *admission
//! sampling rate* down a ladder: new sessions get a fresh sampling-period
//! overlay at the reduced rate (shedding detection work, never
//! connections). Full protocol and lifecycle rules live in `SERVICE.md`.
//!
//! # Supervision and lifecycle budgets
//!
//! Each shard worker applies events under a [`Supervisor`]: a panic in a
//! detector callback is caught, the shard's sessions are rebuilt
//! deterministically by replaying their retained event logs through
//! fresh detectors, and the event is retried — so the transcript stays
//! byte-identical to an uncrashed run. Only when the per-event attempt
//! budget is exhausted does the *owning session* (and no other) fail
//! with a typed [`ShardLost`] note. Sessions also carry lifecycle
//! budgets: an event deadline (`--session-deadline-events`), an
//! idle-timeout reaper driven by deterministic poll ticks
//! (`--idle-timeout`), and the `pacer-faults` serve sites (`shard-panic`,
//! `conn-drop`, `inbox-stall`) for chaos drills. Every terminal outcome
//! lands in exactly one [`SessionOutcome`] bucket, giving the
//! conservation law `admitted == completed + shed + failed + reaped`
//! ([`SessionCounters::conserved`]).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, TryLockError};

use pacer_collections::JsonValue;
use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_faults::{FaultPlan, INJECTED_PREFIX};
use pacer_governor::{
    default_ladder, millionths_from_rate, rate_from_millionths, Governor, GovernorConfig,
    GovernorSummary, DEFAULT_COOLDOWN,
};
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_obs::{ObservableDetector, ServeCounters, SessionCounters, TransportCounters};
use pacer_trace::binary;
use pacer_trace::gen::ResampleSampling;
use pacer_trace::stream::{AnyTraceReader, TraceStreamError, ValidatedActions};
use pacer_trace::{Action, Detector, SiteId};

use crate::journal::{self, JournalWriter};
use crate::resilient::panic_message;
use crate::shard::{self, Inboxes, ShardDown, ShardLost, Supervisor};

/// Bytes per metadata word, matching the space-accounting convention
/// used by the governor's memory budget everywhere else in the suite.
const WORD_BYTES: u64 = 8;

/// Detector families the service can run per shard. Mirrors the `pacer
/// replay` dispatch exactly (including `pacer-accordion` mapping to the
/// plain PACER engine) so per-session reports stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDetectorKind {
    /// PACER (also selected by the name `pacer-accordion`).
    Pacer,
    /// FASTTRACK, always-on precise detection.
    FastTrack,
    /// GENERIC O(n) vector-clock detection.
    Generic,
    /// LITERACE bursty sampling.
    LiteRace,
}

impl ServeDetectorKind {
    /// Parses the `--detector` names `pacer replay` accepts.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for unknown names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "pacer" | "pacer-accordion" => Ok(ServeDetectorKind::Pacer),
            "fasttrack" => Ok(ServeDetectorKind::FastTrack),
            "generic" => Ok(ServeDetectorKind::Generic),
            "literace" => Ok(ServeDetectorKind::LiteRace),
            other => Err(format!("unknown detector `{other}`")),
        }
    }
}

/// One session's detector instance on its home shard.
enum ServeDetector {
    Pacer(PacerDetector),
    FastTrack(FastTrackDetector),
    Generic(GenericDetector),
    LiteRace(LiteRaceDetector),
}

impl ServeDetector {
    fn build(kind: ServeDetectorKind, seed: u64) -> ServeDetector {
        match kind {
            ServeDetectorKind::Pacer => ServeDetector::Pacer(PacerDetector::new()),
            ServeDetectorKind::FastTrack => ServeDetector::FastTrack(FastTrackDetector::new()),
            ServeDetectorKind::Generic => ServeDetector::Generic(GenericDetector::new()),
            ServeDetectorKind::LiteRace => {
                ServeDetector::LiteRace(LiteRaceDetector::new(LiteRaceConfig::default(), seed))
            }
        }
    }

    fn on_action(&mut self, action: &Action) {
        match self {
            ServeDetector::Pacer(d) => d.on_action(action),
            ServeDetector::FastTrack(d) => d.on_action(action),
            ServeDetector::Generic(d) => d.on_action(action),
            ServeDetector::LiteRace(d) => d.on_action(action),
        }
    }

    fn dynamic_races(&self) -> u64 {
        let races = match self {
            ServeDetector::Pacer(d) => d.races(),
            ServeDetector::FastTrack(d) => d.races(),
            ServeDetector::Generic(d) => d.races(),
            ServeDetector::LiteRace(d) => d.races(),
        };
        races.len() as u64
    }

    fn distinct_races(&self) -> Vec<(SiteId, SiteId)> {
        match self {
            ServeDetector::Pacer(d) => d.distinct_races(),
            ServeDetector::FastTrack(d) => d.distinct_races(),
            ServeDetector::Generic(d) => d.distinct_races(),
            ServeDetector::LiteRace(d) => d.distinct_races(),
        }
    }

    fn footprint_words(&self) -> u64 {
        match self {
            ServeDetector::Pacer(d) => d.space_breakdown().total_words(),
            ServeDetector::FastTrack(d) => d.space_breakdown().total_words(),
            ServeDetector::Generic(d) => d.space_breakdown().total_words(),
            ServeDetector::LiteRace(d) => d.space_breakdown().total_words(),
        }
    }
}

/// Service configuration shared by the daemon, the client-driving CLI
/// mode, and the in-process test transport.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Detector worker count.
    pub shards: usize,
    /// Detector family each shard runs.
    pub detector: ServeDetectorKind,
    /// Seed for LITERACE sampling and shed-rate resampling overlays
    /// (same default as `pacer replay --seed`).
    pub seed: u64,
    /// Journal path for per-session checkpoints.
    pub checkpoint: Option<PathBuf>,
    /// Restore completed sessions from the checkpoint journal.
    pub resume: bool,
    /// Memory budget in bytes; arms the admission governor.
    pub mem_budget: Option<u64>,
    /// Mean sampling-period length for shed-rate overlays (same default
    /// as `pacer replay --resample-period`).
    pub resample_period: usize,
    /// Per-session event budget: a session decoding more events than
    /// this is rejected with a deadline error (`--session-deadline-events`).
    pub deadline_events: Option<u64>,
    /// Idle poll ticks before a stalled session is reaped
    /// (`--idle-timeout`). A tick is one timeout-ish read
    /// (`WouldBlock`/`TimedOut`); any delivered byte resets the count.
    pub idle_timeout_ticks: Option<u32>,
    /// Chaos fault plan; only the serve sites (`shard-panic`,
    /// `conn-drop`, `inbox-stall`) are consulted here.
    pub fault_plan: Option<FaultPlan>,
    /// Directory for durable sessions' per-session write-ahead segments
    /// (`--wal DIR`). Without it, durable sessions are resumable only
    /// within the process lifetime.
    pub wal: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults matching the CLI: 4 shards, seed 42, no checkpoint, no budget, resample period 50, no lifecycle
    /// budgets, no faults.
    pub fn new(detector: ServeDetectorKind) -> Self {
        ServeConfig {
            shards: 4,
            detector,
            seed: 42,
            checkpoint: None,
            resume: false,
            mem_budget: None,
            resample_period: 50,
            deadline_events: None,
            idle_timeout_ticks: None,
            fault_plan: None,
            wal: None,
        }
    }
}

/// A service-level failure (configuration, journal, or transport I/O).
/// Per-session decode/validation problems are *not* errors at this level:
/// they become error reports for that session alone.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration.
    Config(String),
    /// Checkpoint journal failure.
    Journal(String),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "{m}"),
            ServeError::Journal(m) => write!(f, "journal: {m}"),
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The terminal bucket a session lands in. Buckets are disjoint and
/// exhaustive, which is what makes [`SessionCounters`]'s conservation
/// law (`admitted == completed + shed + failed + reaped`) checkable:
/// every admitted session is filed exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Completed at full sampling rate (truncated partials included).
    Clean,
    /// Completed at a governor-reduced sampling rate.
    Shed,
    /// Rejected: corrupt frame, invalid trace, duplicate name, deadline
    /// overrun, or unreachable shard.
    Failed,
    /// Reaped by the idle timeout before its stream completed.
    Reaped,
    /// Abandoned by shard supervision after the per-event attempt
    /// budget was exhausted.
    ShardLost,
}

impl SessionOutcome {
    /// Stable name used in journal entries and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SessionOutcome::Clean => "clean",
            SessionOutcome::Shed => "shed",
            SessionOutcome::Failed => "failed",
            SessionOutcome::Reaped => "reaped",
            SessionOutcome::ShardLost => "shard_lost",
        }
    }

    fn from_name(name: &str) -> Result<SessionOutcome, String> {
        match name {
            "clean" => Ok(SessionOutcome::Clean),
            "shed" => Ok(SessionOutcome::Shed),
            "failed" => Ok(SessionOutcome::Failed),
            "reaped" => Ok(SessionOutcome::Reaped),
            "shard_lost" => Ok(SessionOutcome::ShardLost),
            other => Err(format!("unknown session outcome {other:?}")),
        }
    }
}

/// One completed session's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// Client-supplied session name (unique per service run).
    pub name: String,
    /// The response body — byte-identical to `pacer replay` of the same
    /// bytes (plus the resample line when shed), or a single `error:`
    /// line for rejected sessions.
    pub body: String,
    /// Actions analyzed (post-overlay).
    pub events: u64,
    /// Dynamic race reports.
    pub dynamic_races: u64,
    /// Distinct site pairs.
    pub distinct_races: u64,
    /// Admission sampling rate in millionths when the governor shed this
    /// session below full rate.
    pub shed_millionths: Option<u32>,
    /// Whether the stream ended mid-frame (partial, per TRACE_FORMAT.md).
    pub truncated: bool,
    /// Whether the session was rejected (corrupt frame, invalid trace,
    /// duplicate name, deadline, reap, or shard loss).
    pub error: bool,
    /// The disjoint accounting bucket this session landed in.
    pub outcome: SessionOutcome,
}

/// Everything a finished service run produced.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// Per-session reports, sorted by session name.
    pub reports: Vec<SessionReport>,
    /// Per-shard counters in shard-index order.
    pub shard_counters: Vec<ServeCounters>,
    /// Session lifecycle accounting (see
    /// [`SessionCounters::conserved`]).
    pub sessions: SessionCounters,
    /// Governor outcome when a budget was armed.
    pub governor: Option<GovernorSummary>,
    /// Durable-transport accounting (connections, resumes, acks, WAL
    /// appends, dedups); all-zero for unix-socket and stdin runs.
    pub transport: TransportCounters,
    /// The deterministic merged transcript (see module docs).
    pub transcript: String,
}

impl ServeOutput {
    /// True when at least one session was rejected.
    pub fn any_errors(&self) -> bool {
        self.reports.iter().any(|r| r.error)
    }
}

/// Messages a session handler sends to shard workers. Per-channel FIFO
/// plus one handler per session gives the home worker each session's
/// events in stream order; `Close` doubles as the flush barrier.
#[derive(Clone)]
enum ShardMsg {
    /// One decoded frame of `session`'s events, in stream order.
    Frame { session: u32, actions: Vec<Action> },
    /// Flush barrier: reply with (and discard) the session's state.
    Close {
        session: u32,
        reply: SyncSender<ShardReport>,
    },
    /// Reply with the shard's total live metadata footprint, in words.
    Poll { reply: SyncSender<u64> },
}

/// Frame messages each shard inbox holds before a routing handler
/// blocks: the backpressure depth, at most
/// `INBOX_FRAMES × FRAME_EVENT_TARGET` (16384) queued events per shard.
const INBOX_FRAMES: usize = 4;

/// A closed session's results from its home shard.
#[derive(Clone, Debug, Default)]
struct ShardReport {
    dynamic: u64,
    distinct: Vec<(SiteId, SiteId)>,
    /// Set when supervision abandoned the session.
    lost: Option<ShardLost>,
}

/// Replays granted to each event application after its first panicking
/// attempt. Three total attempts sits comfortably above `limit=1` chaos
/// plans (which stop firing after attempt 0, so the first replay
/// succeeds) while bounding the work a deterministically-panicking
/// organic bug can consume before its session is abandoned.
const SHARD_EVENT_RETRIES: u32 = 2;

/// One session's state on its home shard: live (a detector plus the
/// retained frames that make rebuild-by-replay possible), or abandoned
/// after supervision exhausted the per-event attempt budget.
enum SessionSlot {
    Live {
        det: ServeDetector,
        /// Every frame routed so far, kept as it arrived.
        log: Vec<Vec<Action>>,
        /// Events of `log`, in order, that `det` has applied.
        applied: usize,
    },
    Lost(ShardLost),
}

/// Rebuilds every live slot deterministically by replaying its applied
/// events through a fresh detector — shard state is a pure function of
/// the event stream, so this restores exactly the pre-panic state. A
/// slot whose *replay* panics is unrecoverable (the poison is in its own
/// history) and becomes [`SessionSlot::Lost`]; every other session is
/// unaffected.
fn rebuild_sessions(kind: ServeDetectorKind, seed: u64, sessions: &mut [(u32, SessionSlot)]) {
    for (_, slot) in sessions.iter_mut() {
        let SessionSlot::Live { det, log, applied } = slot else {
            continue;
        };
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            let mut fresh = ServeDetector::build(kind, seed);
            for action in log.iter().flatten().take(*applied) {
                fresh.on_action(action);
            }
            fresh
        }));
        match replayed {
            Ok(fresh) => *det = fresh,
            Err(payload) => {
                *slot = SessionSlot::Lost(ShardLost {
                    reason: panic_message(payload.as_ref()),
                    attempts: 1,
                });
            }
        }
    }
}

fn shard_worker(
    kind: ServeDetectorKind,
    seed: u64,
    plan: Option<&FaultPlan>,
    shard: usize,
    inbox: Receiver<ShardMsg>,
) -> ServeCounters {
    // The live sessions homed here, keyed by session id.
    let mut sessions: Vec<(u32, SessionSlot)> = Vec::new();
    let mut counters = ServeCounters::default();
    let mut supervisor = Supervisor::new(SHARD_EVENT_RETRIES);
    // The fault index: events *arrived* at this shard, counted once per
    // event regardless of how many supervised attempts it takes (or
    // whether it is ultimately lost) — so a `limit=1` plan stops firing
    // on the first retry and the rebuilt state absorbs the event
    // exactly once.
    let mut arrivals: u64 = 0;
    for msg in inbox {
        match msg {
            ShardMsg::Frame { session, actions } => {
                let idx = match sessions.iter().position(|(s, _)| *s == session) {
                    Some(idx) => idx,
                    None => {
                        counters.sessions += 1;
                        let det = ServeDetector::build(kind, seed);
                        let slot = SessionSlot::Live {
                            det,
                            log: Vec::new(),
                            applied: 0,
                        };
                        sessions.push((session, slot));
                        sessions.len() - 1
                    }
                };
                let events = actions.len();
                // The frame joins the log before it is applied, so a
                // rebuild mid-frame replays exactly the applied prefix.
                if let SessionSlot::Live { log, .. } = &mut sessions[idx].1 {
                    log.push(actions);
                }
                for i in 0..events {
                    let arrival = arrivals;
                    arrivals += 1;
                    let SessionSlot::Live { log, .. } = &sessions[idx].1 else {
                        // Abandoned: drain the session's remaining events
                        // without applying or counting them.
                        continue;
                    };
                    let action = log[log.len() - 1][i];
                    let outcome = supervisor.supervise(
                        &mut sessions,
                        |sessions, attempt| {
                            if plan.is_some_and(|p| p.shard_panic_fires(arrival, attempt)) {
                                panic!(
                                    "{INJECTED_PREFIX}shard panic (shard {shard}, event {arrival})"
                                );
                            }
                            if let SessionSlot::Live { det, .. } = &mut sessions[idx].1 {
                                det.on_action(&action);
                            }
                        },
                        |sessions| rebuild_sessions(kind, seed, sessions),
                    );
                    counters.shard_restarts = supervisor.restarts();
                    match (outcome, &mut sessions[idx].1) {
                        (Ok(()), SessionSlot::Live { applied, .. }) => {
                            *applied += 1;
                            counters.events += 1;
                            if action.is_access() {
                                counters.accesses += 1;
                            }
                        }
                        (Ok(()), SessionSlot::Lost(_)) => {}
                        (Err(lost), slot) => *slot = SessionSlot::Lost(lost),
                    }
                }
            }
            ShardMsg::Close { session, reply } => {
                let slot = sessions
                    .iter()
                    .position(|(s, _)| *s == session)
                    .map(|idx| sessions.swap_remove(idx).1);
                let report = match slot {
                    Some(SessionSlot::Live { det, .. }) => {
                        let dynamic = det.dynamic_races();
                        counters.races += dynamic;
                        ShardReport {
                            dynamic,
                            distinct: det.distinct_races(),
                            lost: None,
                        }
                    }
                    Some(SessionSlot::Lost(lost)) => {
                        counters.sessions_lost += 1;
                        ShardReport {
                            lost: Some(lost),
                            ..ShardReport::default()
                        }
                    }
                    None => ShardReport::default(),
                };
                // A send to a dropped reply channel must not take the
                // shard down.
                let _ = reply.send(report);
            }
            ShardMsg::Poll { reply } => {
                let live = sessions
                    .iter()
                    .map(|(_, slot)| match slot {
                        SessionSlot::Live { det, .. } => det.footprint_words(),
                        SessionSlot::Lost(_) => 0,
                    })
                    .sum();
                let _ = reply.send(live);
            }
        }
    }
    counters
}

/// Shared engine state behind the handle's `state` mutex.
struct EngineState {
    /// Completed (or restored) reports, in completion order.
    completed: Vec<SessionReport>,
    /// Names seen so far, for duplicate rejection.
    names: Vec<String>,
    /// Reports restored from the journal, served without re-ingest.
    restored: Vec<SessionReport>,
    /// First journal-append failure, surfaced at the end of the run.
    journal_error: Option<String>,
    /// Admission governor, when a memory budget is armed.
    governor: Option<Governor>,
    /// Sessions admitted so far (the governor's boundary counter).
    admitted: u64,
    /// Lifecycle accounting; every terminal report is filed exactly once.
    sessions: SessionCounters,
}

/// Files one terminal outcome into its conservation bucket.
fn bucket(sessions: &mut SessionCounters, outcome: SessionOutcome) {
    match outcome {
        SessionOutcome::Clean => sessions.completed += 1,
        SessionOutcome::Shed => sessions.shed += 1,
        SessionOutcome::Failed | SessionOutcome::ShardLost => sessions.failed += 1,
        SessionOutcome::Reaped => sessions.reaped += 1,
    }
}

/// Registry of durable (reconnectable) sessions between connections:
/// each name maps to its own locked [`DurableSlot`]. The registry lock
/// is held only to look up, insert or remove a slot — never across disk
/// I/O or an ingest — so one session's WAL sync or `END` never stalls
/// another session's frames.
#[derive(Default)]
struct DurableState {
    slots: BTreeMap<String, Arc<Mutex<DurableSlot>>>,
}

/// One durable session accumulating verified frames until `END`.
///
/// Durable sessions do not stream into shards as frames arrive: each
/// accepted frame is checksum-verified, deduped by offset, appended to
/// the slot's stream (and the WAL segment, when armed), and acked. At
/// `END` the stream — `.ptrace` header plus frames — runs in place
/// through the same ingest path as every other transport, so the report
/// is byte-identical to an uninterrupted `pacer replay` by construction.
///
/// Every field is guarded by the slot's own lock, which verify, WAL
/// append + sync, and the `END` ingest all hold; other sessions' slots
/// stay free meanwhile.
struct DurableSlot {
    /// Shard-routing session id, assigned at admission.
    session: u32,
    /// Governor shed rate fixed at admission (like any other session).
    shed: Option<u32>,
    /// Bumped on every attach; a connection holding a stale epoch lost
    /// the slot to a newer `RESUME` and must drop out silently.
    epoch: u64,
    /// Whether a connection currently owns the slot.
    attached: bool,
    /// Idle-lease ticks accumulated while detached.
    idle_ticks: u32,
    /// The `.ptrace` header followed by every accepted frame verbatim,
    /// in offset order.
    stream: Vec<u8>,
    /// Frames in `stream`: the applied-offset watermark.
    applied: u64,
    /// Open write-ahead segment, when a WAL directory is armed.
    wal: Option<std::fs::File>,
    /// Set once the slot is retired (completed, failed or reaped), after
    /// its report is filed and before it leaves the registry: a caller
    /// that waited on the lock finds the session gone, and a `RESUME`
    /// finds its report.
    closed: bool,
}

impl DurableSlot {
    /// A slot registered ahead of admission and attached to the
    /// connection that is opening it.
    fn reserved() -> DurableSlot {
        DurableSlot {
            session: 0,
            shed: None,
            epoch: 0,
            attached: true,
            idle_ticks: 0,
            stream: ptrace_header().to_vec(),
            applied: 0,
            wal: None,
            closed: false,
        }
    }

    /// Whether the connection holding `epoch` still owns this slot.
    fn owned_by(&self, epoch: u64) -> bool {
        !self.closed && self.attached && self.epoch == epoch
    }
}

/// What a `SESSION`/`RESUME` handshake resolved to.
#[derive(Debug)]
pub enum DurableOpen {
    /// Fresh session admitted; the client streams from frame offset 0.
    Started {
        /// Ownership token for subsequent frame/close/detach calls.
        epoch: u64,
    },
    /// Attached to a live (or WAL-rebuilt) slot; the server has durably
    /// applied `applied` frames, so the client streams from that offset.
    Resumed {
        /// Ownership token for subsequent frame/close/detach calls.
        epoch: u64,
        /// Frames durably applied — the authoritative resume offset.
        applied: u64,
    },
    /// The session already completed; re-serve its stored report (covers
    /// a connection lost between `END` and the report delivery).
    Completed(SessionReport),
    /// Handshake rejected with a client-facing message.
    Rejected(String),
}

/// A durably-applied (or deduped) frame's acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameAck {
    /// Applied and journaled; `applied` frames are now durable.
    Applied {
        /// The new applied-offset watermark (also the next expected offset).
        applied: u64,
    },
    /// Duplicate or overlapping retransmit below the watermark — skipped,
    /// acked again. This is the exactly-once guarantee paying off.
    Duplicate {
        /// The unchanged applied-offset watermark.
        applied: u64,
    },
}

impl FrameAck {
    /// The applied-offset watermark to ack back to the client.
    pub fn applied(self) -> u64 {
        match self {
            FrameAck::Applied { applied } | FrameAck::Duplicate { applied } => applied,
        }
    }
}

/// Why a durable frame/close call did not produce an ack.
#[derive(Debug)]
pub enum DurableFrameError {
    /// The session terminally failed (gap, corrupt frame, WAL error) and
    /// has been filed; send the report body, then close the connection.
    Failed(SessionReport),
    /// This connection no longer owns the slot — it was resumed by a
    /// newer connection or reaped. Close without filing anything.
    Detached,
}

/// The live service a transport drives: [`serve`](ServiceHandle::serve)
/// is safe to call from many threads at once (one call per session).
///
/// # Lock order
///
/// A durable slot's own lock comes first. While holding it, a thread
/// may take one of the shared locks below at a time, each only for the
/// step named:
///
/// * `durable` (the registry): one slot lookup, insert or removal;
/// * `state`: admission (including the governor's shard poll) or filing
///   a report;
/// * `journal`: one checkpoint append and its sync — appends to the one
///   journal file must serialize, and nothing else waits on this lock;
/// * `transport`: one counter update.
///
/// No thread holds two slot locks, or two shared locks, at once, and
/// shard workers take no lock at all. So no lock shared between
/// sessions is held across a WAL sync or an ingest.
pub struct ServiceHandle<'cfg> {
    cfg: &'cfg ServeConfig,
    inboxes: Inboxes<ShardMsg>,
    next_session: AtomicU32,
    state: Mutex<EngineState>,
    /// Open checkpoint journal, if any.
    journal: Mutex<Option<JournalWriter>>,
    /// Durable-session registry.
    durable: Mutex<DurableState>,
    /// Durable-transport counters (connections, resumes, acks, ...).
    transport: Mutex<TransportCounters>,
}

/// The durable WAL segment path for a session name.
fn wal_path(dir: &std::path::Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Session names double as WAL file stems, so durable names are
/// restricted to a filesystem-safe alphabet.
fn valid_durable_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The 8-byte `.ptrace` header durable slots prepend at assembly (the
/// wire carries frames only — the header is a constant).
fn ptrace_header() -> [u8; binary::HEADER_LEN] {
    let mut header = [0u8; binary::HEADER_LEN];
    header[..4].copy_from_slice(&binary::MAGIC);
    header[4] = binary::FORMAT_VERSION;
    header
}

/// Appends one frame to a WAL segment and makes it durable.
fn append_wal(wal: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    wal.write_all(bytes)?;
    wal.sync_data()
}

impl ServiceHandle<'_> {
    /// Serves one complete session from `source`, blocking until its
    /// report is merged; the returned body is what the transport should
    /// send back to the client.
    pub fn serve(&self, name: &str, source: impl Read) -> SessionReport {
        let admission = self.admit(name);
        let report = match admission {
            Admission::Restored(report) => return report,
            Admission::Duplicate => SessionReport {
                name: name.to_string(),
                body: "error: duplicate session name\n".to_string(),
                events: 0,
                dynamic_races: 0,
                distinct_races: 0,
                shed_millionths: None,
                truncated: false,
                error: true,
                outcome: SessionOutcome::Failed,
            },
            Admission::Admit { session, shed } => self.ingest(name, session, shed, source),
        };
        self.complete(report)
    }

    /// Admission decision for a named session: restored from the
    /// journal, rejected as a duplicate, or admitted at the governor's
    /// current rate.
    fn admit(&self, name: &str) -> Admission {
        let mut state = lock(&self.state);
        if let Some(r) = state.restored.iter().position(|r| r.name == name) {
            let report = state.restored.swap_remove(r);
            state.names.push(report.name.clone());
            state.sessions.admitted += 1;
            state.sessions.restored += 1;
            bucket(&mut state.sessions, report.outcome);
            state.completed.push(report.clone());
            return Admission::Restored(report);
        }
        if state.names.iter().any(|n| n == name) {
            return Admission::Duplicate;
        }
        state.names.push(name.to_string());
        let shed = self.governor_rate(&mut state);
        drop(state);
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Admission::Admit { session, shed }
    }

    /// Polls the shards' live footprint and steps the governor at this
    /// admission boundary; returns the (sub-full) admission rate.
    fn governor_rate(&self, state: &mut EngineState) -> Option<u32> {
        state.admitted += 1;
        let boundary = state.admitted;
        let governor = state.governor.as_mut()?;
        let budget = governor.config().mem_budget_bytes?;
        let (tx, rx) = sync_channel(self.cfg.shards);
        let delivered = self.inboxes.broadcast_live(ShardMsg::Poll { reply: tx });
        let live_words: u64 = rx.iter().take(delivered).sum();
        let _ = governor.on_boundary(boundary, Some((live_words * WORD_BYTES, budget)), None);
        let rate = governor.rate_millionths();
        (rate < millionths_from_rate(1.0)).then_some(rate)
    }

    /// Decodes, validates, routes, and flushes one admitted session,
    /// enforcing the lifecycle budgets (deadline, idle reaper,
    /// `conn-drop`) along the way.
    fn ingest(
        &self,
        name: &str,
        session: u32,
        shed: Option<u32>,
        source: impl Read,
    ) -> SessionReport {
        let error_report = |message: String, events: u64, outcome: SessionOutcome| SessionReport {
            name: name.to_string(),
            body: format!("error: {message}\n"),
            events,
            dynamic_races: 0,
            distinct_races: 0,
            shed_millionths: shed,
            truncated: false,
            error: true,
            outcome,
        };
        let idle_note = |ticks: u32| format!("idle timeout: reaped after {ticks} idle tick(s)");

        // Lifecycle wrapper: the `conn-drop` chaos site caps the bytes
        // delivered (simulating a client vanishing mid-stream) and the
        // idle reaper counts timeout-ish reads as poll ticks.
        let drop_after = self
            .cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.conn_drop_after(u64::from(session)));
        let reaped = Rc::new(Cell::new(false));
        let source = LifecycleGuard {
            inner: source,
            remaining: drop_after,
            idle_limit: self.cfg.idle_timeout_ticks,
            idle_ticks: 0,
            reaped: Rc::clone(&reaped),
        };
        let idle_limit = self.cfg.idle_timeout_ticks.unwrap_or(0);

        let mut reader = match AnyTraceReader::new(source) {
            Ok(reader) => reader,
            Err(e) => {
                // Nothing was routed yet, so there is no state to flush.
                if reaped.get() {
                    return error_report(idle_note(idle_limit), 0, SessionOutcome::Reaped);
                }
                return error_report(e.to_string(), 0, SessionOutcome::Failed);
            }
        };

        // Decode errors end the event stream; the captured error wins
        // over whatever partial analysis preceded it (same precedence as
        // `pacer replay`). The deadline check sits *after* the pull, so
        // a session with exactly `deadline_events` events still passes.
        let deadline = self.cfg.deadline_events;
        let mut stream_err: Option<TraceStreamError> = None;
        let mut deadline_hit = false;
        let mut decoded: u64 = 0;
        // Raised once the reader's current frame is used up: the router
        // sends its batch before the next pull can block on the client.
        let frame_end = Cell::new(false);
        let (routed, stats, threads, validation_err) = {
            let events = std::iter::from_fn(|| match reader.next() {
                Some(Ok(action)) => {
                    frame_end.set(reader.frame_exhausted());
                    if deadline.is_some_and(|max| decoded >= max) {
                        deadline_hit = true;
                        return None;
                    }
                    decoded += 1;
                    Some(action)
                }
                Some(Err(e)) => {
                    stream_err = Some(e);
                    None
                }
                None => None,
            });
            if let Some(millionths) = shed {
                let overlay = ResampleSampling::new(
                    events,
                    rate_from_millionths(millionths),
                    self.cfg.resample_period,
                    self.cfg.seed,
                );
                let mut validated = ValidatedActions::new(overlay);
                let routed = self.route(session, &mut validated, &frame_end);
                let err = validated.error().map(ToString::to_string);
                (routed, *validated.stats(), validated.threads(), err)
            } else {
                let mut validated = ValidatedActions::new(events);
                let routed = self.route(session, &mut validated, &frame_end);
                let err = validated.error().map(ToString::to_string);
                (routed, *validated.stats(), validated.threads(), err)
            }
        };
        let truncation_note = reader.truncation_note();
        let truncated = reader.truncated();

        // Always flush: events routed before a failure must be freed.
        let closed = routed.and(self.flush(session));

        if reaped.get() {
            return error_report(idle_note(idle_limit), stats.total(), SessionOutcome::Reaped);
        }
        if let Some(e) = validation_err {
            return error_report(
                format!("invalid trace: {e}"),
                stats.total(),
                SessionOutcome::Failed,
            );
        }
        if let Some(e) = stream_err {
            return error_report(e.to_string(), stats.total(), SessionOutcome::Failed);
        }
        if deadline_hit {
            return error_report(
                format!(
                    "session deadline exceeded: more than {} event(s)",
                    deadline.unwrap_or(0)
                ),
                stats.total(),
                SessionOutcome::Failed,
            );
        }
        let ShardReport {
            dynamic,
            distinct,
            lost,
        } = match closed {
            Ok(share) => share,
            Err(down) => {
                return error_report(down.to_string(), stats.total(), SessionOutcome::Failed)
            }
        };
        if let Some(lost) = lost {
            return error_report(lost.to_string(), stats.total(), SessionOutcome::ShardLost);
        }

        // The body reproduces `pacer replay` byte for byte (`--resample`
        // included, for shed sessions).
        let mut body = String::new();
        body.push_str(&format!(
            "replaying {} actions ({} accesses, {} sync ops, {} threads)\n",
            stats.total(),
            stats.accesses(),
            stats.sync_ops(),
            threads
        ));
        if let Some(note) = truncation_note {
            body.push_str(&note);
            body.push('\n');
        }
        if let Some(millionths) = shed {
            body.push_str(&format!(
                "resampled sampling periods at r = {:.2}%, mean period {}, seed {}\n",
                rate_from_millionths(millionths) * 100.0,
                self.cfg.resample_period,
                self.cfg.seed
            ));
        }
        body.push_str(&format!(
            "\n{} dynamic race report(s), {} distinct:\n",
            dynamic,
            distinct.len()
        ));
        for (a, b) in &distinct {
            body.push_str(&format!("  {a}  <->  {b}\n"));
        }

        SessionReport {
            name: name.to_string(),
            body,
            events: stats.total(),
            dynamic_races: dynamic,
            distinct_races: distinct.len() as u64,
            shed_millionths: shed,
            truncated,
            error: false,
            outcome: if shed.is_some() {
                SessionOutcome::Shed
            } else {
                SessionOutcome::Clean
            },
        }
    }

    /// The worker that owns `session` for its lifetime.
    fn home(&self, session: u32) -> usize {
        session as usize % self.cfg.shards
    }

    /// Routes one session's events to its home shard in frame-sized
    /// batches: a batch goes out once the reader's current frame is used
    /// up (`frame_end`, checked before the next pull can block on the
    /// client) or at [`binary::FRAME_EVENT_TARGET`] events. Sends are
    /// checked — a shard that died anyway fails only its own sessions,
    /// never the handler or the accept loop. The `inbox-stall` chaos site
    /// spins (a pure timing perturbation) before targeted events.
    fn route(
        &self,
        session: u32,
        events: &mut impl Iterator<Item = Action>,
        frame_end: &Cell<bool>,
    ) -> Result<(), ShardDown> {
        let home = self.home(session);
        let plan = self.cfg.fault_plan.as_ref();
        let mut batch: Vec<Action> = Vec::new();
        // Frames of one stream mostly share a length, so each batch is
        // allocated like the one before it, then trimmed to its own frame:
        // the home shard keeps it as the session's log.
        let mut last_len = 0;
        let send = |mut actions: Vec<Action>| {
            actions.shrink_to_fit();
            self.inboxes
                .checked_send(home, ShardMsg::Frame { session, actions })
        };
        let mut index: u64 = 0;
        loop {
            if !batch.is_empty() && (frame_end.get() || batch.len() >= binary::FRAME_EVENT_TARGET) {
                last_len = batch.len();
                send(std::mem::take(&mut batch))?;
            }
            let Some(action) = events.next() else {
                break;
            };
            if let Some(spins) = plan.and_then(|p| p.inbox_stall_spins(index)) {
                for _ in 0..spins {
                    std::thread::yield_now();
                }
            }
            index += 1;
            if batch.capacity() == 0 {
                batch.reserve_exact(last_len);
            }
            batch.push(action);
        }
        if !batch.is_empty() {
            send(batch)?;
        }
        Ok(())
    }

    /// Flush barrier: the home shard replies with (and discards) the
    /// session's detector state. FIFO order makes the reply cover every
    /// batch routed before it.
    fn flush(&self, session: u32) -> Result<ShardReport, ShardDown> {
        let home = self.home(session);
        let (tx, rx) = sync_channel(1);
        self.inboxes
            .checked_send(home, ShardMsg::Close { session, reply: tx })?;
        rx.recv().map_err(|_| ShardDown { shard: home })
    }

    /// Records a finished session: checkpoint it, file its outcome
    /// bucket, then merge it.
    fn complete(&self, report: SessionReport) -> SessionReport {
        let appended = match lock(&self.journal).as_mut() {
            Some(writer) => writer.write_line(&encode_entry(&report)),
            None => Ok(()),
        };
        let mut state = lock(&self.state);
        if let Err(e) = appended {
            state.journal_error.get_or_insert_with(|| e.to_string());
        }
        state.sessions.admitted += 1;
        bucket(&mut state.sessions, report.outcome);
        state.completed.push(report.clone());
        report
    }

    /// Applies `update` to the transport counters (the accept loop and
    /// connection handlers contribute `connections`/`acks_sent` here;
    /// the engine bumps the resume/journal/dedup counters itself).
    pub fn note_transport(&self, update: impl FnOnce(&mut TransportCounters)) {
        update(&mut lock(&self.transport));
    }

    /// The registered slot for `name`, if any. The registry lock is
    /// released before the caller takes the slot's own lock.
    fn durable_slot(&self, name: &str) -> Option<Arc<Mutex<DurableSlot>>> {
        lock(&self.durable).slots.get(name).cloned()
    }

    /// Registers `slot` under `name` unless the name already has one.
    fn durable_insert(&self, name: &str, slot: &Arc<Mutex<DurableSlot>>) -> bool {
        let mut durable = lock(&self.durable);
        if durable.slots.contains_key(name) {
            return false;
        }
        durable.slots.insert(name.to_string(), Arc::clone(slot));
        true
    }

    /// Retires a slot whose report (if any) is already filed: marks it
    /// closed, so a caller waiting on its lock finds the session gone,
    /// then removes it from the registry — unless the name belongs to
    /// another slot (this one lost the race to register it). `guard` is
    /// `slot`'s own lock.
    fn durable_retire(&self, name: &str, slot: &Arc<Mutex<DurableSlot>>, guard: &mut DurableSlot) {
        guard.closed = true;
        let mut durable = lock(&self.durable);
        if durable
            .slots
            .get(name)
            .is_some_and(|s| Arc::ptr_eq(s, slot))
        {
            durable.slots.remove(name);
        }
    }

    /// Resolves a durable `SESSION` (`resume == false`) or `RESUME`
    /// (`resume == true`) handshake.
    ///
    /// Fresh sessions are admitted through the same governor/duplicate
    /// gate as every other transport and get a write-ahead segment when a
    /// WAL directory is armed. A `RESUME` reattaches to a live slot
    /// (taking it over from a dead connection — the epoch token fences
    /// the loser), rebuilds the slot from its WAL segment after a server
    /// restart, or re-serves the stored report of a completed session.
    /// A `RESUME` that races the session's `END` waits on the slot's lock
    /// until the report is filed, then finds it completed.
    pub fn durable_open(&self, name: &str, resume: bool) -> DurableOpen {
        if !valid_durable_name(name) {
            return DurableOpen::Rejected(
                "invalid session name (want [A-Za-z0-9._-]+)".to_string(),
            );
        }
        if resume {
            return self.durable_resume(name);
        }
        // Register the slot, locked, before admission: a `RESUME` racing
        // this handshake waits for it instead of finding nothing.
        let slot = Arc::new(Mutex::new(DurableSlot::reserved()));
        let mut guard = lock(&slot);
        let admission = if self.durable_insert(name, &slot) {
            self.admit(name)
        } else {
            // A live slot holds the name, so it was admitted before.
            Admission::Duplicate
        };
        let failure = match admission {
            Admission::Restored(report) => {
                self.durable_retire(name, &slot, &mut guard);
                return DurableOpen::Completed(report);
            }
            // Ledgered as a failed session, exactly like the
            // non-durable transports reject duplicates.
            Admission::Duplicate => "duplicate session name".to_string(),
            Admission::Admit { session, shed } => match self.create_wal(name) {
                Ok(wal) => {
                    guard.session = session;
                    guard.shed = shed;
                    guard.wal = wal;
                    return DurableOpen::Started { epoch: 0 };
                }
                // The name is reserved; file the failure so the ledger
                // stays complete.
                Err(message) => message,
            },
        };
        self.complete(durable_error_report(name, &failure, SessionOutcome::Failed));
        self.durable_retire(name, &slot, &mut guard);
        DurableOpen::Rejected(failure)
    }

    /// The `RESUME` half of [`durable_open`](Self::durable_open).
    fn durable_resume(&self, name: &str) -> DurableOpen {
        if let Some(slot) = self.durable_slot(name) {
            let mut slot = lock(&slot);
            // A slot retired while this call waited on its lock has filed
            // its report: resolve the name again below.
            if !slot.closed {
                slot.epoch += 1;
                slot.attached = true;
                slot.idle_ticks = 0;
                self.note_transport(|t| t.session_resumes += 1);
                return DurableOpen::Resumed {
                    epoch: slot.epoch,
                    applied: slot.applied,
                };
            }
        }
        let completed = lock(&self.state)
            .completed
            .iter()
            .find(|r| r.name == name)
            .cloned();
        if let Some(report) = completed {
            self.note_transport(|t| t.session_resumes += 1);
            return DurableOpen::Completed(report);
        }
        if let Some(path) = self.cfg.wal.as_ref().map(|dir| wal_path(dir, name)) {
            if path.exists() {
                return self.durable_open_from_wal(name, &path);
            }
        }
        self.note_transport(|t| t.resumes_rejected += 1);
        DurableOpen::Rejected(format!("unknown session `{name}`"))
    }

    /// Cold resume: rebuilds a durable slot from its write-ahead segment
    /// (a fresh admission in this run — the previous run filed the slot
    /// as reaped at shutdown). A crash-torn tail is truncated at the
    /// last complete frame, exactly like every other journal here. The
    /// segment is read under the new slot's own lock.
    fn durable_open_from_wal(&self, name: &str, path: &std::path::Path) -> DurableOpen {
        let slot = Arc::new(Mutex::new(DurableSlot::reserved()));
        let mut guard = lock(&slot);
        if !self.durable_insert(name, &slot) {
            // Another handshake registered the name first: attach to it.
            drop(guard);
            return self.durable_resume(name);
        }
        let rejected = match self.load_wal(name, path, &mut guard) {
            Ok(open) => {
                if matches!(open, DurableOpen::Completed(_)) {
                    self.durable_retire(name, &slot, &mut guard);
                }
                self.note_transport(|t| t.session_resumes += 1);
                return open;
            }
            Err(message) => message,
        };
        self.durable_retire(name, &slot, &mut guard);
        self.note_transport(|t| t.resumes_rejected += 1);
        DurableOpen::Rejected(rejected)
    }

    /// Fills a reserved slot from the WAL segment at `path`.
    fn load_wal(
        &self,
        name: &str,
        path: &std::path::Path,
        slot: &mut DurableSlot,
    ) -> Result<DurableOpen, String> {
        let mut bytes = std::fs::read(path)
            .map_err(|e| format!("wal segment for `{name}` is unreadable: {e}"))?;
        let split = binary::split_frames(&bytes)
            .map_err(|e| format!("wal segment for `{name}` is corrupt: {e}"))?;
        let (session, shed) = match self.admit(name) {
            Admission::Restored(report) => {
                // The checkpoint journal already has the finished report;
                // the WAL segment is obsolete.
                let _ = std::fs::remove_file(path);
                return Ok(DurableOpen::Completed(report));
            }
            Admission::Duplicate => return Err("duplicate session name".to_string()),
            Admission::Admit { session, shed } => (session, shed),
        };
        let clean_len = split.frames.last().map_or(binary::HEADER_LEN, |f| f.end);
        let repaired = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .and_then(|mut wal| {
                if bytes.len() < binary::HEADER_LEN {
                    // Torn inside the header at creation: start over.
                    wal.set_len(0)?;
                    append_wal(&mut wal, &ptrace_header())?;
                } else if clean_len < bytes.len() {
                    wal.set_len(clean_len as u64)?;
                }
                Ok(wal)
            });
        let wal = match repaired {
            Ok(wal) => wal,
            Err(e) => {
                // Admitted above: file the failure so the ledger stays
                // complete.
                let message = format!("wal segment for `{name}`: {e}");
                self.complete(durable_error_report(name, &message, SessionOutcome::Failed));
                return Err(message);
            }
        };
        if bytes.len() < binary::HEADER_LEN {
            bytes = ptrace_header().to_vec();
        }
        bytes.truncate(clean_len);
        slot.session = session;
        slot.shed = shed;
        slot.applied = split.frames.len() as u64;
        slot.stream = bytes;
        slot.wal = Some(wal);
        Ok(DurableOpen::Resumed {
            epoch: 0,
            applied: slot.applied,
        })
    }

    /// Creates a fresh WAL segment (header written and synced), or
    /// `Ok(None)` when no WAL directory is armed.
    fn create_wal(&self, name: &str) -> Result<Option<std::fs::File>, String> {
        let Some(dir) = &self.cfg.wal else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("wal directory {}: {e}", dir.display()))?;
        let path = wal_path(dir, name);
        let mut wal = std::fs::File::create(&path)
            .map_err(|e| format!("wal segment {}: {e}", path.display()))?;
        append_wal(&mut wal, &ptrace_header())
            .map_err(|e| format!("wal segment {}: {e}", path.display()))?;
        Ok(Some(wal))
    }

    /// Removes a session's WAL segment (session finished or reaped).
    fn remove_wal(&self, name: &str) {
        if let Some(dir) = &self.cfg.wal {
            let _ = std::fs::remove_file(wal_path(dir, name));
        }
    }

    /// Accepts one wire frame for an attached durable session: verified,
    /// deduped by offset against the applied watermark, journaled, then
    /// acked. A frame below the watermark is a retransmit overlap —
    /// skipped and re-acked, never applied twice. A frame above it is a
    /// gap (lost frame the client failed to retransmit): the session
    /// fails hard rather than analyze a stream with a hole in it.
    pub fn durable_frame(
        &self,
        name: &str,
        epoch: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<FrameAck, DurableFrameError> {
        let slot = self.durable_slot(name).ok_or(DurableFrameError::Detached)?;
        let mut guard = lock(&slot);
        if !guard.owned_by(epoch) {
            return Err(DurableFrameError::Detached);
        }
        let applied = guard.applied;
        if offset < applied {
            self.note_transport(|t| t.frames_deduped += 1);
            return Ok(FrameAck::Duplicate { applied });
        }
        let failure = if offset > applied {
            Some(format!(
                "frame gap: got offset {offset}, expected {applied}"
            ))
        } else if let Err(e) = binary::decode_frame_payload(bytes, offset + 1) {
            Some(e.to_string())
        } else if let Some(wal) = &mut guard.wal {
            append_wal(wal, bytes)
                .err()
                .map(|e| format!("wal append failed: {e}"))
        } else {
            None
        };
        if let Some(message) = failure {
            let report = self.durable_fail(name, &slot, &mut guard, &message);
            return Err(DurableFrameError::Failed(report));
        }
        if guard.wal.is_some() {
            self.note_transport(|t| t.frames_journaled += 1);
        }
        guard.stream.extend_from_slice(bytes);
        guard.applied += 1;
        Ok(FrameAck::Applied {
            applied: guard.applied,
        })
    }

    /// Ends an attached durable session: checks the client's frame total
    /// against the applied watermark, runs the slot's stream in place
    /// through the standard ingest/complete path — so the report is
    /// byte-identical to an uninterrupted replay of the same bytes — and
    /// retires the WAL segment.
    ///
    /// Runs under the slot's own lock: a concurrent `RESUME` for this
    /// name blocks until the report is filed and then finds it
    /// completed, while other sessions proceed.
    pub fn durable_close(
        &self,
        name: &str,
        epoch: u64,
        total: u64,
    ) -> Result<SessionReport, DurableFrameError> {
        let slot = self.durable_slot(name).ok_or(DurableFrameError::Detached)?;
        let mut guard = lock(&slot);
        if !guard.owned_by(epoch) {
            return Err(DurableFrameError::Detached);
        }
        if total != guard.applied {
            let message = format!(
                "client ended at {total} frame(s) but {} were applied",
                guard.applied
            );
            let report = self.durable_fail(name, &slot, &mut guard, &message);
            return Err(DurableFrameError::Failed(report));
        }
        let report = self.ingest(name, guard.session, guard.shed, &guard.stream[..]);
        let report = self.complete(report);
        self.remove_wal(name);
        self.durable_retire(name, &slot, &mut guard);
        Ok(report)
    }

    /// Terminally fails a slot: retires its WAL segment, files a
    /// `Failed` report, and retires the slot.
    fn durable_fail(
        &self,
        name: &str,
        slot: &Arc<Mutex<DurableSlot>>,
        guard: &mut DurableSlot,
        message: &str,
    ) -> SessionReport {
        self.remove_wal(name);
        let report = self.complete(durable_error_report(name, message, SessionOutcome::Failed));
        self.durable_retire(name, slot, guard);
        report
    }

    /// Releases an attached durable slot back to the idle lease — the
    /// connection died (or tore) before `END`; the session awaits a
    /// `RESUME`. A stale epoch is a no-op: a newer connection owns the
    /// slot.
    pub fn durable_detach(&self, name: &str, epoch: u64) {
        if let Some(slot) = self.durable_slot(name) {
            let mut slot = lock(&slot);
            if slot.owned_by(epoch) {
                slot.attached = false;
                slot.idle_ticks = 0;
            }
        }
    }

    /// Advances the idle lease on every detached durable slot by one
    /// tick; slots at the `--idle-timeout` limit are reaped — filed in
    /// the `reaped` ledger bucket, WAL segment retired. Returns the
    /// reaped reports. A no-op when no idle timeout is armed. A slot
    /// whose lock is held is busy, hence not idle, and is skipped.
    pub fn durable_tick(&self) -> Vec<SessionReport> {
        let Some(limit) = self.cfg.idle_timeout_ticks else {
            return Vec::new();
        };
        let slots: Vec<(String, Arc<Mutex<DurableSlot>>)> = lock(&self.durable)
            .slots
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut reaped = Vec::new();
        for (name, slot) in &slots {
            let mut guard = match slot.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            if guard.closed || guard.attached {
                continue;
            }
            guard.idle_ticks += 1;
            if guard.idle_ticks < limit {
                continue;
            }
            self.remove_wal(name);
            let report = self.complete(durable_error_report(
                name,
                &format!("idle timeout: reaped after {limit} idle tick(s)"),
                SessionOutcome::Reaped,
            ));
            self.durable_retire(name, slot, &mut guard);
            reaped.push(report);
        }
        reaped
    }

    /// Reaps every remaining durable slot at shutdown so the ledger is
    /// complete — but *preserves* their WAL segments: a restarted server
    /// pointed at the same `--wal` directory rebuilds them on `RESUME`.
    pub fn durable_reap_remaining(&self) -> Vec<SessionReport> {
        let slots = std::mem::take(&mut lock(&self.durable).slots);
        let mut reaped = Vec::new();
        for (name, slot) in slots {
            let mut guard = lock(&slot);
            if guard.closed {
                continue;
            }
            guard.closed = true;
            reaped.push(self.complete(durable_error_report(
                &name,
                "durable session never completed; reaped at shutdown (wal segment retained)",
                SessionOutcome::Reaped,
            )));
        }
        reaped
    }
}

/// A zero-event error report for durable-session failures that happen
/// before (or instead of) ingest.
fn durable_error_report(name: &str, message: &str, outcome: SessionOutcome) -> SessionReport {
    SessionReport {
        name: name.to_string(),
        body: format!("error: {message}\n"),
        events: 0,
        dynamic_races: 0,
        distinct_races: 0,
        shed_millionths: None,
        truncated: false,
        error: true,
        outcome,
    }
}

/// `Read` adapter enforcing per-session lifecycle budgets: an optional
/// byte cap (the `conn-drop` chaos site — the stream just ends, exactly
/// like a vanished client) and the idle-timeout reaper. Timeout-ish
/// errors (`WouldBlock`/`TimedOut`, i.e. one poll tick of a socket with
/// a read timeout armed) are counted, not propagated; any delivered
/// byte resets the count, and at the limit the stream ends with the
/// `reaped` flag raised so ingest files the session as
/// [`SessionOutcome::Reaped`].
struct LifecycleGuard<R> {
    inner: R,
    /// Bytes still allowed through (`conn-drop`); `None` = unlimited.
    remaining: Option<u64>,
    idle_limit: Option<u32>,
    idle_ticks: u32,
    reaped: Rc<Cell<bool>>,
}

impl<R: Read> Read for LifecycleGuard<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.reaped.get() || self.remaining == Some(0) {
            return Ok(0);
        }
        let cap = match self.remaining {
            Some(n) => usize::try_from(n.min(buf.len() as u64)).unwrap_or(buf.len()),
            None => buf.len(),
        };
        loop {
            match self.inner.read(&mut buf[..cap]) {
                Ok(n) => {
                    if let Some(remaining) = &mut self.remaining {
                        *remaining -= n as u64;
                    }
                    self.idle_ticks = 0;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.idle_ticks += 1;
                    match self.idle_limit {
                        Some(limit) if self.idle_ticks >= limit => {
                            self.reaped.set(true);
                            return Ok(0);
                        }
                        // No limit armed: a timeout-ish error is
                        // spurious (read timeouts are only set when the
                        // reaper is on) — retry.
                        _ => continue,
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

enum Admission {
    Restored(SessionReport),
    Duplicate,
    Admit { session: u32, shed: Option<u32> },
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Handlers run under catch-free scoped threads; a poisoned lock only
    // means another handler panicked while holding it, and the state it
    // guards (append-only vectors, maps, counters and flags, each
    // updated in one step) is always structurally consistent.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the service: spawns the shard fleet, hands the transport a
/// [`ServiceHandle`], and merges everything when the transport returns.
///
/// `drive` is the transport loop — the unix-socket accept loop, the
/// framed-stdin reader, or an in-process test driver. It may serve
/// sessions from as many threads as it likes (e.g. via
/// `std::thread::scope`); every session must be complete before it
/// returns.
///
/// # Errors
///
/// Configuration and journal failures, or whatever `drive` returns.
pub fn run_service<T>(
    cfg: &ServeConfig,
    drive: impl FnOnce(&ServiceHandle<'_>) -> Result<T, ServeError>,
) -> Result<(ServeOutput, T), ServeError> {
    if cfg.shards == 0 {
        return Err(ServeError::Config("--shards must be at least 1".into()));
    }
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err(ServeError::Config("--resume requires --checkpoint".into()));
    }
    // Supervised shard panics — injected or organic — are caught,
    // recorded in counters, and replay-rebuilt; keep them from spraying
    // backtraces on stderr for the run's lifetime (same policy as the
    // fleet's quarantine path).
    let _quiet = crate::resilient::SilencePanics::new();

    let mut restored = Vec::new();
    let mut journal = None;
    if let Some(path) = &cfg.checkpoint {
        if cfg.resume && path.exists() {
            // `recover_lines` truncates a crash-torn partial tail in the
            // same call, so the append below lands on a clean frame edge.
            let contents =
                journal::recover_lines(path).map_err(|e| ServeError::Journal(e.to_string()))?;
            for line in &contents.lines {
                restored.push(decode_entry(line).map_err(ServeError::Journal)?);
            }
            journal = Some(JournalWriter::append(path)?);
        } else {
            journal = Some(JournalWriter::create(path)?);
        }
    }

    let governor = cfg.mem_budget.map(|budget| {
        Governor::new(GovernorConfig {
            mem_budget_bytes: Some(budget),
            deadline_events: None,
            ladder: default_ladder(millionths_from_rate(1.0)),
            cooldown: DEFAULT_COOLDOWN,
        })
    });

    let kind = cfg.detector;
    let seed = cfg.seed;
    let plan = cfg.fault_plan.as_ref();
    let (shard_counters, (driven, state, transport)) = shard::run_sharded(
        cfg.shards,
        INBOX_FRAMES,
        |shard, inbox| shard_worker(kind, seed, plan, shard, inbox),
        |inboxes| {
            let handle = ServiceHandle {
                cfg,
                inboxes,
                next_session: AtomicU32::new(0),
                state: Mutex::new(EngineState {
                    completed: Vec::new(),
                    names: Vec::new(),
                    restored,
                    journal_error: None,
                    governor,
                    admitted: 0,
                    sessions: SessionCounters::default(),
                }),
                journal: Mutex::new(journal),
                durable: Mutex::new(DurableState::default()),
                transport: Mutex::new(TransportCounters::default()),
            };
            let driven = drive(&handle);
            let state = handle
                .state
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let transport = handle
                .transport
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            (driven, state, transport)
        },
    );
    let driven = driven?;
    if let Some(message) = state.journal_error {
        return Err(ServeError::Journal(message));
    }

    let mut reports = state.completed;
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    let transcript = render_transcript(&reports);
    let output = ServeOutput {
        reports,
        shard_counters,
        sessions: state.sessions,
        governor: state.governor.map(Governor::into_summary),
        transport,
        transcript,
    };
    Ok((output, driven))
}

/// In-process transport: serves `sessions` (name, bytes) with up to
/// `concurrency` parallel handlers pulling from a shared queue.
///
/// # Errors
///
/// As [`run_service`].
pub fn serve_sessions(
    cfg: &ServeConfig,
    sessions: Vec<(String, Vec<u8>)>,
    concurrency: usize,
) -> Result<ServeOutput, ServeError> {
    let (output, ()) = run_service(cfg, |handle| {
        if concurrency <= 1 {
            for (name, bytes) in &sessions {
                handle.serve(name, &bytes[..]);
            }
        } else {
            let queue = Mutex::new(sessions.iter());
            std::thread::scope(|scope| {
                for _ in 0..concurrency {
                    scope.spawn(|| loop {
                        let next = lock(&queue).next();
                        match next {
                            Some((name, bytes)) => {
                                handle.serve(name, &bytes[..]);
                            }
                            None => break,
                        }
                    });
                }
            });
        }
        Ok(())
    })?;
    Ok(output)
}

/// Renders the deterministic merged transcript: sessions by name, then
/// the fleet summary. Deliberately shard-blind — the transcript must be
/// byte-identical at any `--shards N` (shard-level detail goes to the
/// metrics snapshot instead).
fn render_transcript(reports: &[SessionReport]) -> String {
    let mut out = String::new();
    let (mut events, mut dynamic, mut distinct, mut errors, mut shed) = (0u64, 0u64, 0u64, 0, 0);
    for report in reports {
        out.push_str(&format!("=== session {} ===\n", report.name));
        out.push_str(&report.body);
        events += report.events;
        dynamic += report.dynamic_races;
        distinct += report.distinct_races;
        if report.error {
            errors += 1;
        }
        if report.shed_millionths.is_some() {
            shed += 1;
        }
    }
    out.push_str(&format!(
        "\nserved {} session(s) ({} events, {} dynamic races, {} distinct)\n",
        reports.len(),
        events,
        dynamic,
        distinct,
    ));
    if errors > 0 {
        out.push_str(&format!("{errors} session(s) rejected\n"));
    }
    if shed > 0 {
        out.push_str(&format!(
            "governor: {shed} session(s) admitted at reduced sampling rates\n"
        ));
    }
    out
}

/// Encodes one session checkpoint as single-line JSON for the journal.
fn encode_entry(report: &SessionReport) -> String {
    let mut out = String::from("{\"name\":");
    journal::escape_into(&mut out, &report.name);
    out.push_str(&format!(
        ",\"events\":{},\"dynamic\":{},\"distinct\":{}",
        report.events, report.dynamic_races, report.distinct_races
    ));
    match report.shed_millionths {
        Some(m) => out.push_str(&format!(",\"shed\":{m}")),
        None => out.push_str(",\"shed\":null"),
    }
    out.push_str(&format!(
        ",\"truncated\":{},\"error\":{},\"outcome\":\"{}\",\"body\":",
        report.truncated,
        report.error,
        report.outcome.name()
    ));
    journal::escape_into(&mut out, &report.body);
    out.push('}');
    out
}

/// Decodes one journaled session checkpoint.
fn decode_entry(json: &str) -> Result<SessionReport, String> {
    let value = JsonValue::parse(json).map_err(|e| e.to_string())?;
    let str_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let u64_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let bool_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing boolean field `{key}`"))
    };
    let shed = match value.get("shed") {
        None => return Err("missing field `shed`".into()),
        Some(v) => v.as_u64().map(|m| m as u32),
    };
    let error = bool_field("error")?;
    let outcome = match value.get("outcome") {
        // Journals written before outcomes existed: derive the bucket
        // from the fields that determined it then.
        None => {
            if error {
                SessionOutcome::Failed
            } else if shed.is_some() {
                SessionOutcome::Shed
            } else {
                SessionOutcome::Clean
            }
        }
        Some(v) => SessionOutcome::from_name(
            v.as_str()
                .ok_or_else(|| "field `outcome` must be a string".to_string())?,
        )?,
    };
    Ok(SessionReport {
        name: str_field("name")?,
        body: str_field("body")?,
        events: u64_field("events")?,
        dynamic_races: u64_field("dynamic")?,
        distinct_races: u64_field("distinct")?,
        shed_millionths: shed,
        truncated: bool_field("truncated")?,
        error,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_trace::Trace;

    fn racy_trace() -> Trace {
        Trace::parse(
            "
            fork t0 t1
            sbegin
            wr t0 x0 s0
            wr t1 x0 s1
            rd t0 x1 s2
            wr t1 x1 s3
            send
            join t0 t1
        ",
        )
        .unwrap()
    }

    fn cfg(kind: ServeDetectorKind, shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            ..ServeConfig::new(kind)
        }
    }

    #[test]
    fn report_is_shard_count_invariant() {
        let bytes = racy_trace().to_binary();
        let mut transcripts = Vec::new();
        for shards in [1, 2, 8] {
            let out = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                vec![("a".into(), bytes.clone())],
                1,
            )
            .unwrap();
            assert_eq!(out.reports.len(), 1);
            assert!(!out.reports[0].error);
            transcripts.push(out.reports[0].body.clone());
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[1], transcripts[2]);
        assert!(transcripts[0].contains("dynamic race report(s)"));
    }

    #[test]
    fn journal_entry_round_trips() {
        let report = SessionReport {
            name: "s \"quoted\"".into(),
            body: "replaying 3 actions\n\n1 dynamic race report(s), 1 distinct:\n".into(),
            events: 3,
            dynamic_races: 1,
            distinct_races: 1,
            shed_millionths: Some(500_000),
            truncated: true,
            error: false,
            outcome: SessionOutcome::Shed,
        };
        assert_eq!(decode_entry(&encode_entry(&report)).unwrap(), report);

        let plain = SessionReport {
            shed_millionths: None,
            truncated: false,
            outcome: SessionOutcome::Clean,
            ..report.clone()
        };
        assert_eq!(decode_entry(&encode_entry(&plain)).unwrap(), plain);

        let lost = SessionReport {
            body: "error: shard lost after 3 attempt(s): boom\n".into(),
            error: true,
            outcome: SessionOutcome::ShardLost,
            ..plain.clone()
        };
        assert_eq!(decode_entry(&encode_entry(&lost)).unwrap(), lost);
    }

    #[test]
    fn legacy_entries_without_outcome_still_decode() {
        // A journal line written before outcomes existed derives its
        // bucket from `error`/`shed`.
        let legacy = "{\"name\":\"a\",\"events\":3,\"dynamic\":1,\"distinct\":1,\
                      \"shed\":null,\"truncated\":false,\"error\":false,\"body\":\"b\\n\"}";
        assert_eq!(decode_entry(legacy).unwrap().outcome, SessionOutcome::Clean);
        let legacy_shed = legacy.replace("\"shed\":null", "\"shed\":500000");
        assert_eq!(
            decode_entry(&legacy_shed).unwrap().outcome,
            SessionOutcome::Shed
        );
        let legacy_err = legacy.replace("\"error\":false", "\"error\":true");
        assert_eq!(
            decode_entry(&legacy_err).unwrap().outcome,
            SessionOutcome::Failed
        );
        let bad = legacy.replace(
            "\"error\":false",
            "\"error\":false,\"outcome\":\"sideways\"",
        );
        assert!(decode_entry(&bad).is_err());
    }

    /// A `Read` fed chunk by chunk over a rendezvous channel, so a test
    /// can hold a session open at a known decode position.
    struct ChanReader {
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        cur: Vec<u8>,
        pos: usize,
    }

    impl Read for ChanReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.pos >= self.cur.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.cur = chunk;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0),
                }
            }
            let n = (self.cur.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn admission_sheds_sampling_rate_under_memory_pressure() {
        let bytes = racy_trace().to_binary();
        let mut config = cfg(ServeDetectorKind::FastTrack, 2);
        config.mem_budget = Some(1);

        let (output, ()) = run_service(&config, |handle| {
            std::thread::scope(|scope| {
                // Rendezvous channel: each send returns only once the
                // session thread has consumed the previous chunk, so the
                // decode position is deterministic at every step.
                let (tx, rx) = sync_channel::<Vec<u8>>(0);
                let long = scope.spawn(move || {
                    handle.serve(
                        "long",
                        ChanReader {
                            rx,
                            cur: Vec::new(),
                            pos: 0,
                        },
                    )
                });
                // The whole trace with the channel still open: every
                // event is routed, then the decoder blocks waiting for
                // the next frame header — the session stays live. The
                // empty rendezvous chunk returns only once the decoder
                // is past the real bytes.
                tx.send(bytes.clone()).unwrap();
                tx.send(Vec::new()).unwrap();

                // `long` now holds live detector state, breaching the
                // 1-byte budget: this admission must shed one rung.
                let short = handle.serve("short", &bytes[..]);
                assert_eq!(short.shed_millionths, Some(500_000));
                assert!(!short.error, "shed admission still analyzes: {short:?}");

                drop(tx);
                let long = long.join().unwrap();
                assert!(!long.truncated && !long.error, "{long:?}");
                assert_eq!(long.shed_millionths, None, "first admission was clear");
                Ok(())
            })
        })
        .unwrap();

        let governor = output.governor.expect("budget arms the governor");
        assert!(governor.breaches >= 1);
        let short = output.reports.iter().find(|r| r.name == "short").unwrap();
        assert!(
            short
                .body
                .contains("resampled sampling periods at r = 50.00%, mean period 50, seed 42"),
            "shed body carries the replay-identical resample line: {}",
            short.body
        );
    }

    #[test]
    fn duplicate_names_are_rejected_without_contamination() {
        let bytes = racy_trace().to_binary();
        let out = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), bytes.clone()), ("a".into(), bytes)],
            1,
        )
        .unwrap();
        assert_eq!(out.reports.len(), 2);
        assert!(!out.reports[0].error);
        assert!(out.reports[1].error);
        assert!(out.reports[1].body.contains("duplicate session name"));
        assert!(out.any_errors());
    }

    #[test]
    fn corrupt_session_does_not_poison_others() {
        let good = racy_trace().to_binary();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let out = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("bad".into(), bad), ("good".into(), good.clone())],
            2,
        )
        .unwrap();
        let by_name = |n: &str| out.reports.iter().find(|r| r.name == n).unwrap();
        assert!(by_name("bad").error);
        assert!(by_name("bad").body.starts_with("error: "));
        let alone = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("good".into(), good)],
            1,
        )
        .unwrap();
        assert_eq!(by_name("good").body, alone.reports[0].body);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.admitted, 2);
        assert_eq!(out.sessions.completed, 1);
        assert_eq!(out.sessions.failed, 1);
    }

    #[test]
    fn deadline_rejects_only_over_budget_sessions() {
        let bytes = racy_trace().to_binary();
        let clean = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), bytes.clone())],
            1,
        )
        .unwrap();
        let events = clean.reports[0].events;
        assert!(events > 1);

        // Exactly at the budget: still clean (the check is one past).
        let mut at = cfg(ServeDetectorKind::FastTrack, 2);
        at.deadline_events = Some(events);
        let out = serve_sessions(&at, vec![("a".into(), bytes.clone())], 1).unwrap();
        assert_eq!(out.reports[0].body, clean.reports[0].body);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Clean);

        // One under: rejected with a typed deadline error.
        let mut under = cfg(ServeDetectorKind::FastTrack, 2);
        under.deadline_events = Some(events - 1);
        let out = serve_sessions(&under, vec![("a".into(), bytes)], 1).unwrap();
        assert!(out.reports[0].error);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Failed);
        assert!(
            out.reports[0].body.contains("session deadline exceeded"),
            "{}",
            out.reports[0].body
        );
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
    }

    /// A `Read` that delivers its bytes, then reports `WouldBlock`
    /// forever — a client that sent a prefix and went silent.
    struct SilentAfter {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for SilentAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "poll tick",
                ));
            }
            let n = (self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_sessions_are_reaped_after_the_tick_budget() {
        let bytes = racy_trace().to_binary();
        let mut config = cfg(ServeDetectorKind::FastTrack, 2);
        config.idle_timeout_ticks = Some(3);
        let (output, ()) = run_service(&config, |handle| {
            // Without the reaper this session would spin forever on the
            // silent tail; three ticks end it deterministically.
            let report = handle.serve("idle", SilentAfter { bytes, pos: 0 });
            assert!(report.error);
            assert_eq!(report.outcome, SessionOutcome::Reaped);
            assert!(
                report.body.contains("reaped after 3 idle tick(s)"),
                "{}",
                report.body
            );
            Ok(())
        })
        .unwrap();
        assert!(output.sessions.conserved(), "{:?}", output.sessions);
        assert_eq!(output.sessions.reaped, 1);
        assert_eq!(output.sessions.admitted, 1);
    }

    #[test]
    fn injected_shard_panics_rebuild_without_changing_reports() {
        let bytes = racy_trace().to_binary();
        let sessions = vec![("a".into(), bytes.clone()), ("b".into(), bytes)];
        let clean =
            serve_sessions(&cfg(ServeDetectorKind::FastTrack, 2), sessions.clone(), 1).unwrap();

        // Panic on every event's first attempt; the default limit=1
        // stops it firing on the supervised retry.
        let mut chaos = cfg(ServeDetectorKind::FastTrack, 2);
        chaos.fault_plan = Some(pacer_faults::FaultPlan::parse("shard-panic every=1\n").unwrap());
        let out = serve_sessions(&chaos, sessions, 1).unwrap();

        assert_eq!(out.transcript, clean.transcript, "chaos must be invisible");
        let restarts: u64 = out.shard_counters.iter().map(|c| c.shard_restarts).sum();
        assert!(restarts > 0, "the plan must actually have fired");
        let lost: u64 = out.shard_counters.iter().map(|c| c.sessions_lost).sum();
        assert_eq!(lost, 0);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.completed, 2);
    }

    #[test]
    fn exhausted_retries_lose_only_the_owning_session() {
        let bytes = racy_trace().to_binary();
        // Fires on shard event index 0 alone (`every` far above the
        // event count), on every attempt: the first session's first
        // event exhausts the budget and is abandoned; the second
        // session's events arrive at later indices and never fire.
        let mut config = cfg(ServeDetectorKind::FastTrack, 1);
        config.fault_plan = Some(
            pacer_faults::FaultPlan::parse("shard-panic every=1000000000 limit=100\n").unwrap(),
        );
        let out = serve_sessions(
            &config,
            vec![
                ("victim".into(), bytes.clone()),
                ("bystander".into(), bytes.clone()),
            ],
            1,
        )
        .unwrap();
        let by_name = |n: &str| out.reports.iter().find(|r| r.name == n).unwrap();
        let victim = by_name("victim");
        assert!(victim.error);
        assert_eq!(victim.outcome, SessionOutcome::ShardLost);
        assert!(
            victim.body.contains("shard lost after 3 attempt(s)")
                && victim.body.contains("injected: shard panic"),
            "{}",
            victim.body
        );

        let clean = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 1),
            vec![("bystander".into(), bytes)],
            1,
        )
        .unwrap();
        assert_eq!(by_name("bystander").body, clean.reports[0].body);

        assert_eq!(out.shard_counters[0].sessions_lost, 1);
        assert_eq!(out.shard_counters[0].shard_restarts, 3);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
        assert_eq!(out.sessions.completed, 1);
    }

    // ------------------------------------------------------------------
    // Durable (reconnectable) session engine
    // ------------------------------------------------------------------

    /// One wire frame per action, so durable flows exercise multi-frame
    /// streams even for small traces.
    fn per_action_frames(trace: &Trace) -> Vec<Vec<u8>> {
        trace
            .actions()
            .iter()
            .map(|action| {
                let bytes = binary::encode_trace(&Trace::from_actions(vec![action.clone()]));
                bytes[binary::HEADER_LEN..].to_vec()
            })
            .collect()
    }

    fn durable_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pacer-durable-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_started(handle: &ServiceHandle, name: &str) -> u64 {
        match handle.durable_open(name, false) {
            DurableOpen::Started { epoch } => epoch,
            other => panic!("expected Started, got {other:?}"),
        }
    }

    #[test]
    fn durable_session_report_matches_direct_serve() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        for shards in [1, 4] {
            let config = cfg(ServeDetectorKind::FastTrack, shards);
            let (out, ()) = run_service(&config, |handle| {
                let epoch = open_started(handle, "a");
                for (offset, frame) in frames.iter().enumerate() {
                    let ack = handle
                        .durable_frame("a", epoch, offset as u64, frame)
                        .unwrap();
                    assert_eq!(ack.applied(), offset as u64 + 1);
                }
                let report = handle
                    .durable_close("a", epoch, frames.len() as u64)
                    .unwrap();
                assert!(!report.error, "{}", report.body);
                Ok(())
            })
            .unwrap();
            let direct = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                vec![("a".into(), trace.to_binary())],
                1,
            )
            .unwrap();
            assert_eq!(out.reports[0].body, direct.reports[0].body);
            assert_eq!(out.transcript, direct.transcript);
            assert!(out.sessions.conserved(), "{:?}", out.sessions);
        }
    }

    #[test]
    fn durable_frames_dedup_by_offset() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
                // A retransmitted overlap of the same frame: skipped,
                // re-acked at the same watermark.
                match handle.durable_frame("a", epoch, offset as u64, frame) {
                    Ok(FrameAck::Duplicate { applied }) => {
                        assert_eq!(applied, offset as u64 + 1);
                    }
                    other => panic!("expected Duplicate, got {other:?}"),
                }
            }
            handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.frames_deduped, frames.len() as u64);
        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out.reports[0].body, direct.reports[0].body);
    }

    #[test]
    fn durable_frame_gap_fails_session() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            match handle.durable_frame("a", epoch, 3, &frames[3]) {
                Err(DurableFrameError::Failed(report)) => {
                    assert!(report.error);
                    assert!(report.body.contains("frame gap"), "{}", report.body);
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            // The slot is gone: further frames from this connection are
            // fenced off.
            assert!(matches!(
                handle.durable_frame("a", epoch, 0, &frames[0]),
                Err(DurableFrameError::Detached)
            ));
            Ok(())
        })
        .unwrap();
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Failed);
    }

    #[test]
    fn durable_detach_resume_fences_stale_epoch() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            handle.durable_detach("a", epoch);

            let (epoch2, applied) = match handle.durable_open("a", true) {
                DurableOpen::Resumed { epoch, applied } => (epoch, applied),
                other => panic!("expected Resumed, got {other:?}"),
            };
            assert_eq!((epoch2, applied), (epoch + 1, 1));

            // The old connection wakes up and tries to keep writing: it
            // is fenced, and its writes change nothing.
            assert!(matches!(
                handle.durable_frame("a", epoch, 1, &frames[1]),
                Err(DurableFrameError::Detached)
            ));
            assert!(matches!(
                handle.durable_close("a", epoch, 1),
                Err(DurableFrameError::Detached)
            ));

            for (offset, frame) in frames.iter().enumerate().skip(applied as usize) {
                handle
                    .durable_frame("a", epoch2, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch2, frames.len() as u64)
                .unwrap();
            assert!(!report.error, "{}", report.body);
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.session_resumes, 1);
        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out.reports[0].body, direct.reports[0].body);
    }

    #[test]
    fn resume_of_completed_session_re_serves_report() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (_, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            match handle.durable_open("a", true) {
                DurableOpen::Completed(again) => assert_eq!(again, report),
                other => panic!("expected Completed, got {other:?}"),
            }
            // A fresh SESSION under the same name is still a duplicate.
            assert!(matches!(
                handle.durable_open("a", false),
                DurableOpen::Rejected(_)
            ));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn resume_of_unknown_session_is_rejected() {
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            match handle.durable_open("ghost", true) {
                DurableOpen::Rejected(msg) => assert!(msg.contains("unknown session"), "{msg}"),
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert!(matches!(
                handle.durable_open("bad name!", false),
                DurableOpen::Rejected(_)
            ));
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.resumes_rejected, 1);
    }

    #[test]
    fn durable_tick_reaps_idle_detached_sessions() {
        let dir = durable_dir("tick-reap");
        let config = ServeConfig {
            shards: 1,
            idle_timeout_ticks: Some(2),
            wal: Some(dir.clone()),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };
        let frames = per_action_frames(&racy_trace());
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            // Attached slots never age.
            assert!(handle.durable_tick().is_empty());
            handle.durable_detach("a", epoch);
            assert!(handle.durable_tick().is_empty());
            let reaped = handle.durable_tick();
            assert_eq!(reaped.len(), 1);
            assert_eq!(reaped[0].outcome, SessionOutcome::Reaped);
            assert!(
                reaped[0].body.contains("idle timeout"),
                "{}",
                reaped[0].body
            );
            // Tick-reap retires the WAL segment: the lease expired for
            // good, there is nothing to come back to.
            assert!(!wal_path(&dir, "a").exists());
            Ok(())
        })
        .unwrap();
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.reaped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_reap_preserves_wal_and_cold_resume_completes() {
        let dir = durable_dir("cold-resume");
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = ServeConfig {
            shards: 2,
            wal: Some(dir.clone()),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };

        // Run 1: two frames land, then the server shuts down.
        let (out1, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            handle.durable_frame("a", epoch, 1, &frames[1]).unwrap();
            let reaped = handle.durable_reap_remaining();
            assert_eq!(reaped.len(), 1);
            assert_eq!(reaped[0].outcome, SessionOutcome::Reaped);
            Ok(())
        })
        .unwrap();
        assert!(out1.sessions.conserved(), "{:?}", out1.sessions);
        assert_eq!(out1.transport.frames_journaled, 2);
        let wal = wal_path(&dir, "a");
        assert!(wal.exists(), "shutdown reap must retain the wal segment");

        // A crash can tear the tail of the segment mid-append; the
        // rebuild truncates back to the last complete frame.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
            f.write_all(&[0x07, 0x00, 0x00]).unwrap();
        }

        // Run 2: cold resume from the segment alone.
        let (out2, ()) = run_service(&config, |handle| {
            let (epoch, applied) = match handle.durable_open("a", true) {
                DurableOpen::Resumed { epoch, applied } => (epoch, applied),
                other => panic!("expected Resumed, got {other:?}"),
            };
            assert_eq!(applied, 2, "torn tail must not cost complete frames");
            for (offset, frame) in frames.iter().enumerate().skip(applied as usize) {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            assert!(!report.error, "{}", report.body);
            Ok(())
        })
        .unwrap();
        assert_eq!(out2.transport.session_resumes, 1);
        assert!(!wal.exists(), "completion must retire the wal segment");

        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out2.reports[0].body, direct.reports[0].body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_frame_rejects_corrupt_payload() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            let mut bad = frames[0].clone();
            *bad.last_mut().unwrap() ^= 0xff;
            match handle.durable_frame("a", epoch, 0, &bad) {
                Err(DurableFrameError::Failed(report)) => {
                    assert!(report.error, "{}", report.body);
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
    }

    #[test]
    fn a_held_slot_lock_never_blocks_another_session() {
        let frames = per_action_frames(&racy_trace());
        let config = ServeConfig {
            shards: 2,
            idle_timeout_ticks: Some(100),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };
        let (out, ()) = run_service(&config, |handle| {
            let epoch_a = open_started(handle, "a");
            let epoch_b = open_started(handle, "b");
            handle.durable_frame("b", epoch_b, 0, &frames[0]).unwrap();
            handle.durable_detach("b", epoch_b);
            let slot_a = handle.durable_slot("a").unwrap();
            let held = lock(&slot_a);
            let frames = &frames;
            std::thread::scope(|scope| {
                let (tx, rx) = sync_channel(1);
                scope.spawn(move || {
                    let (epoch, applied) = match handle.durable_open("b", true) {
                        DurableOpen::Resumed { epoch, applied } => (epoch, applied),
                        other => panic!("expected Resumed, got {other:?}"),
                    };
                    let acks: Vec<u64> = (applied..frames.len() as u64)
                        .map(|offset| {
                            let frame = &frames[offset as usize];
                            handle
                                .durable_frame("b", epoch, offset, frame)
                                .unwrap()
                                .applied()
                        })
                        .collect();
                    let reaped = handle.durable_tick();
                    let _ = tx.send((applied, acks, reaped.len()));
                });
                // On failure, release A before asserting, so a test that
                // finds a shared lock fails instead of hanging.
                let got = rx.recv_timeout(std::time::Duration::from_secs(10));
                drop(held);
                let (applied, acks, reaped) = got.expect("session B waited on session A's lock");
                assert_eq!(applied, 1);
                assert_eq!(acks, (2..=frames.len() as u64).collect::<Vec<_>>());
                assert_eq!(reaped, 0, "no slot has idled out");
            });
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch_a, offset as u64, frame)
                    .unwrap();
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.session_resumes, 1);
    }

    #[test]
    fn resume_racing_end_sees_the_report_or_takes_the_session_over() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let total = frames.len() as u64;
        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let expected = serve_sessions(&config, vec![("x".into(), trace.to_binary())], 1)
            .unwrap()
            .reports[0]
            .body
            .clone();
        let rounds = 50;
        let (out, (completed, taken_over)) = run_service(&config, |handle| {
            let (mut completed, mut taken_over) = (0, 0);
            for round in 0..rounds {
                let name = format!("r{round}");
                let epoch = open_started(handle, &name);
                for (offset, frame) in frames.iter().enumerate() {
                    handle
                        .durable_frame(&name, epoch, offset as u64, frame)
                        .unwrap();
                }
                let start = std::sync::Barrier::new(2);
                let (closed, resumed) = std::thread::scope(|scope| {
                    let close = scope.spawn(|| {
                        start.wait();
                        // Odd rounds give the `RESUME` a head start, so
                        // both orders get exercised.
                        if round % 2 == 1 {
                            for _ in 0..20_000 {
                                std::hint::spin_loop();
                            }
                        }
                        handle.durable_close(&name, epoch, total)
                    });
                    start.wait();
                    let resumed = handle.durable_open(&name, true);
                    (close.join().unwrap(), resumed)
                });
                match (closed, resumed) {
                    (Ok(report), DurableOpen::Completed(again)) => {
                        assert_eq!(report.body, expected);
                        assert_eq!(again.body, report.body);
                        completed += 1;
                    }
                    (Err(DurableFrameError::Detached), DurableOpen::Resumed { epoch, applied }) => {
                        assert_eq!(applied, total, "resume sees every frame applied");
                        let report = handle.durable_close(&name, epoch, total).unwrap();
                        assert_eq!(report.body, expected);
                        taken_over += 1;
                    }
                    (closed, resumed) => {
                        panic!("round {round}: close {closed:?} with resume {resumed:?}")
                    }
                }
            }
            Ok((completed, taken_over))
        })
        .unwrap();
        assert_eq!(completed + taken_over, rounds);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.admitted, rounds as u64);
        assert_eq!(out.sessions.completed, rounds as u64);
        assert_eq!(out.transport.session_resumes, rounds as u64);
    }
}
