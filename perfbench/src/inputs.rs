//! Seeded `.ptrace` inputs for each workload.
//!
//! Every structural parameter of a workload's input pool (thread counts,
//! lengths, racy/clean split, sampling rate) is fixed; the seed drives
//! only the generator's randomness and the order sessions are drawn in.
//! So two seeds give different traces of the same shape, and the
//! metrics move with the program, not with the draw.

use std::path::{Path, PathBuf};

use pacer_prng::{derive_seed, Rng};
use pacer_trace::binary::HEADER_LEN;
use pacer_trace::gen::{insert_sampling_periods, GenConfig, SiteMode};
use pacer_trace::Trace;

/// Mean sampling-period length (actions) for every workload.
pub const SAMPLING_PERIOD: usize = 1000;
/// Lock discipline of the racy half of every pool (1.0 is race-free).
pub const RACY_DISCIPLINE: f64 = 0.85;
/// Events per frame of the durable workload's client.
pub const DURABLE_FRAME_EVENTS: usize = 256;
/// Events a scaled-down oracle twin aims for: the HB oracle is
/// quadratic per variable, so it checks twins, not full-size traces.
const TWIN_EVENTS: f64 = 3000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReplayR100,
    ReplayR3,
    SocketMix,
    TcpDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayR100,
        Workload::ReplayR3,
        Workload::SocketMix,
        Workload::TcpDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayR100 => "replay_r100",
            Workload::ReplayR3 => "replay_r3",
            Workload::SocketMix => "serve_socket_mix",
            Workload::TcpDurable => "serve_tcp_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_replay(self) -> bool {
        matches!(self, Workload::ReplayR100 | Workload::ReplayR3)
    }
}

/// One pool entry's generator parameters.
#[derive(Clone, Debug)]
pub struct InputSpec {
    pub label: String,
    pub gen: GenConfig,
    pub rate: f64,
    /// Events per frame when the client re-frames the trace below the
    /// writer's canonical 4096 (TRACE_FORMAT.md §3: readers accept any
    /// framing), as a live recorder flushing often would.
    pub frame_events: Option<usize>,
}

impl InputSpec {
    pub fn racy(&self) -> bool {
        self.gen.lock_discipline < 1.0
    }

    fn generate(&self, gen: &GenConfig) -> Trace {
        let seed = derive_seed(gen.seed, 1);
        insert_sampling_periods(&gen.generate(), self.rate, SAMPLING_PERIOD, seed)
    }

    /// The same generator at a size the HB oracle can check.
    pub fn twin(&self) -> Trace {
        let mut gen = self.gen.clone();
        let events = expected_events(&gen) as f64;
        let scale = (TWIN_EVENTS / events).min(1.0);
        gen.ops_per_thread = ((gen.ops_per_thread as f64 * scale) as usize).max(10);
        self.generate(&gen)
    }

    pub fn context_json(&self) -> String {
        let g = &self.gen;
        format!(
            "{{\"label\":\"{}\",\"threads\":{},\"vars\":{},\"locks\":{},\"volatiles\":{},\"ops_per_thread\":{},\"lock_discipline\":{},\"write_fraction\":{},\"volatile_prob\":{},\"sites_per_var\":2,\"rate\":{},\"sampling_period\":{},\"frame_events\":{},\"seed\":{}}}",
            self.label, g.threads, g.vars, g.locks, g.volatiles, g.ops_per_thread,
            g.lock_discipline, g.write_fraction, g.volatile_prob, self.rate,
            SAMPLING_PERIOD, self.frame_events.unwrap_or(pacer_trace::binary::FRAME_EVENT_TARGET),
            g.seed
        )
    }
}

/// Events per worker op: volatile ops are one event, data accesses one
/// plus an acquire/release pair when guarded.
fn events_per_op(gen: &GenConfig) -> f64 {
    gen.volatile_prob + (1.0 - gen.volatile_prob) * (1.0 + 2.0 * gen.lock_discipline)
}

fn expected_events(gen: &GenConfig) -> u64 {
    ((gen.threads - 1) as f64 * gen.ops_per_thread as f64 * events_per_op(gen)) as u64
}

/// A sync-heavy generator config sized to about `events` events.
fn sized(threads: usize, racy: bool, events: u64, seed: u64) -> GenConfig {
    let mut gen = GenConfig {
        threads,
        vars: 128,
        locks: 16,
        volatiles: 4,
        ops_per_thread: 1,
        lock_discipline: if racy { RACY_DISCIPLINE } else { 1.0 },
        write_fraction: 0.3,
        volatile_prob: 0.1,
        site_mode: SiteMode::PerVar(2),
        seed,
    };
    gen.ops_per_thread =
        ((events as f64 / ((threads - 1) as f64 * events_per_op(&gen))).round() as usize).max(1);
    gen
}

/// The input pool of `workload` for `seed`.
pub fn pool(workload: Workload, seed: u64) -> Vec<InputSpec> {
    let mut specs = Vec::new();
    let mut push = |label: String, threads: usize, racy: bool, events: u64, rate: f64| {
        let gen = sized(threads, racy, events, derive_seed(seed, specs.len() as u64));
        specs.push(InputSpec {
            label,
            gen,
            rate,
            frame_events: None,
        });
    };
    match workload {
        Workload::ReplayR100 | Workload::ReplayR3 => {
            // 16 traces on a ladder of lengths (160k–310k events), so
            // session latencies spread evenly instead of in a few
            // clusters whose gaps the median would jump across.
            let rate = if workload == Workload::ReplayR100 {
                1.0
            } else {
                0.03
            };
            for i in 0..16u64 {
                let threads = [4, 8, 12, 16][(i % 4) as usize];
                let racy = (i / 4) % 2 == 0;
                let events = 160_000 + ((i * 7) % 16) * 10_000;
                let label = format!(
                    "t{threads}-{}-{events}",
                    if racy { "racy" } else { "clean" }
                );
                push(label, threads, racy, events, rate);
            }
        }
        Workload::SocketMix => {
            // 28 short sessions (0.5k–5k events) and 4 long ones (50k);
            // every fourth entry runs at r = 100%, the rest at 3%.
            for i in 0..32u64 {
                let long = i % 8 == 7;
                let events = if long { 50_000 } else { 500 + (i * 4500) / 31 };
                let threads = [2, 4, 8][(i % 3) as usize];
                let racy = i % 2 == 0;
                let rate = if i % 4 == 1 { 1.0 } else { 0.03 };
                let label = format!("s{i}-t{threads}-{events}");
                push(label, threads, racy, events, rate);
            }
        }
        Workload::TcpDurable => {
            // About 130 frames of 256 events each.
            for i in 0..8u64 {
                let threads = if i % 4 < 2 { 4 } else { 8 };
                let racy = i % 2 == 0;
                let label = format!("d{i}-t{threads}");
                push(label, threads, racy, 33_000, 0.03);
            }
            for spec in &mut specs {
                spec.frame_events = Some(DURABLE_FRAME_EVENTS);
            }
        }
    }
    specs
}

/// A materialized pool entry: the bytes on disk and `pacer replay`'s
/// report for them, computed in-process.
pub struct Input {
    pub spec: InputSpec,
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    /// Analyzed events, from the report's `replaying N actions` line.
    pub events: u64,
    pub reference: String,
}

impl Input {
    pub fn threads(&self) -> usize {
        self.spec.gen.threads
    }
}

/// In-process `pacer replay FILE --detector pacer`.
pub fn replay_in_process(path: &Path) -> String {
    let args = ["replay", &path.display().to_string(), "--detector", "pacer"].map(String::from);
    match pacer_cli::run(&args) {
        Ok(out) => out.text,
        Err(e) => format!("error: {e}\n"),
    }
}

/// The `N` of a report's leading `replaying N actions` line.
pub fn reported_events(report: &str) -> Option<u64> {
    report
        .strip_prefix("replaying ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Encodes `trace` in frames of at most `per_frame` events.
pub fn encode_framed(trace: &Trace, per_frame: usize) -> Vec<u8> {
    let actions: Vec<_> = trace.iter().copied().collect();
    let mut out = pacer_trace::binary::encode_trace(&Trace::new());
    for chunk in actions.chunks(per_frame) {
        let mut part = Trace::new();
        for a in chunk {
            part.push(*a);
        }
        // One short chunk encodes to the header plus exactly one frame.
        out.extend_from_slice(&pacer_trace::binary::encode_trace(&part)[HEADER_LEN..]);
    }
    out
}

pub fn materialize(spec: &InputSpec, dir: &Path, index: usize) -> std::io::Result<Input> {
    let trace = spec.generate(&spec.gen);
    let bytes = match spec.frame_events {
        Some(n) => encode_framed(&trace, n),
        None => pacer_trace::binary::encode_trace(&trace),
    };
    let path = dir.join(format!("in{index:02}-{}.ptrace", spec.label));
    std::fs::write(&path, &bytes)?;
    let reference = replay_in_process(&path);
    let events = reported_events(&reference)
        .ok_or_else(|| std::io::Error::other(format!("{}: {}", path.display(), reference)))?;
    Ok(Input {
        spec: spec.clone(),
        path,
        bytes,
        events,
        reference,
    })
}

/// An order over the pool: seeded permutations, back to back, so every
/// stretch of `pool` consecutive sessions holds each entry once.
pub fn draw_order(pool: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    draw_classes(&[(0..pool).collect()], count, rng)
}

/// An order that cycles through `classes` slot by slot (slot `i` draws
/// from class `i % classes.len()`), each class a sequence of seeded
/// permutations of its entries. The socket mix uses it to put its long
/// sessions at every eighth slot, so the seed never bunches them.
pub fn draw_classes(classes: &[Vec<usize>], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    (0..count)
        .map(|i| {
            let c = i % classes.len();
            if queues[c].is_empty() {
                queues[c] = classes[c].clone();
                rng.shuffle(&mut queues[c]);
            }
            queues[c].pop().expect("refilled above")
        })
        .collect()
}

/// The socket mix's slot classes: seven short-session slots, then one
/// long-session slot.
pub fn socket_classes(pool: &[InputSpec]) -> Vec<Vec<usize>> {
    let long: Vec<usize> = (0..pool.len()).filter(|&i| is_long(&pool[i])).collect();
    let short: Vec<usize> = (0..pool.len()).filter(|&i| !is_long(&pool[i])).collect();
    let mut classes = vec![short; 7];
    classes.push(long);
    classes
}

fn is_long(spec: &InputSpec) -> bool {
    expected_events(&spec.gen) > 10_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_have_fixed_shape_across_seeds() {
        for w in Workload::ALL {
            let (a, b) = (pool(w, 1), pool(w, 2));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.gen.threads, y.gen.threads);
                assert_eq!(x.gen.ops_per_thread, y.gen.ops_per_thread);
                assert_eq!(x.rate, y.rate);
                assert_ne!(x.gen.seed, y.gen.seed);
            }
            assert_eq!(a.iter().filter(|s| s.racy()).count() * 2, a.len());
        }
    }

    #[test]
    fn sizing_hits_the_target() {
        let gen = sized(8, true, 240_000, 5);
        let events = expected_events(&gen) as f64;
        assert!((events / 240_000.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn reframing_keeps_the_events() {
        let trace = GenConfig::small(4).generate();
        let bytes = encode_framed(&trace, 16);
        let split = pacer_trace::binary::split_frames(&bytes).unwrap();
        assert_eq!(split.frames.len(), trace.len().div_ceil(16));
        let back = pacer_trace::binary::decode_trace(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn draw_order_is_balanced() {
        let order = draw_order(8, 20, &mut Rng::seed_from_u64(9));
        assert_eq!(order.len(), 20);
        let mut first: Vec<usize> = order[..8].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn socket_mix_puts_long_sessions_every_eighth_slot() {
        let specs = pool(Workload::SocketMix, 3);
        let order = draw_classes(&socket_classes(&specs), 64, &mut Rng::seed_from_u64(1));
        for (i, &e) in order.iter().enumerate() {
            assert_eq!(is_long(&specs[e]), i % 8 == 7, "slot {i}");
        }
    }

    #[test]
    fn reported_events_parses_the_header() {
        let r = "replaying 1234 actions (1 accesses, 2 sync ops, 3 threads)\n";
        assert_eq!(reported_events(r), Some(1234));
        assert_eq!(reported_events("error: x"), None);
    }
}
