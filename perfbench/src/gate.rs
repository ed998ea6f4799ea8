//! The set-up half of the correctness gate. (The other half compares
//! every report of the measured run byte for byte with the in-process
//! replay of the same bytes.)
//!
//! * Each pool entry's scaled-down twin is replayed in-process and its
//!   report checked against the HB oracle: no reported pair outside the
//!   oracle's races, and no race at all on a race-free twin.
//! * At r = 100% PACER must find exactly FASTTRACK's distinct races on
//!   every full-size input (full-rate equivalence).

use std::collections::BTreeSet;
use std::path::Path;

use pacer_core::PacerDetector;
use pacer_fasttrack::FastTrackDetector;
use pacer_trace::{Action, AnyTraceReader, Detector, HbOracle};

use crate::inputs::{replay_in_process, Input};

/// The distinct site pairs listed in a replay report.
pub fn reported_pairs(report: &str) -> BTreeSet<(String, String)> {
    report
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_once("  <->  "))
        .map(|(a, b)| (a.trim().to_string(), b.trim().to_string()))
        .collect()
}

/// Decodes a generated trace's bytes.
pub fn decode(bytes: &[u8]) -> Vec<Action> {
    AnyTraceReader::new(bytes)
        .expect("generated traces decode")
        .map(|a| a.expect("generated traces decode"))
        .collect()
}

/// Checks one input's twin against the HB oracle; `None` when it holds.
pub fn oracle_check(input: &Input, dir: &Path) -> Option<String> {
    let twin = input.spec.twin();
    let path = dir.join(format!("twin-{}.ptrace", input.spec.label));
    if let Err(e) = std::fs::write(&path, pacer_trace::binary::encode_trace(&twin)) {
        return Some(format!("{}: cannot write twin: {e}", path.display()));
    }
    let report = replay_in_process(&path);
    let oracle = HbOracle::analyze(&twin);
    let truth: BTreeSet<(String, String)> = oracle
        .distinct_races()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let reported = reported_pairs(&report);
    if let Some(extra) = reported.difference(&truth).next() {
        return Some(format!(
            "{}: reported {extra:?}, which the HB oracle does not race",
            input.spec.label
        ));
    }
    if !input.spec.racy() && (!reported.is_empty() || !oracle.is_race_free()) {
        return Some(format!(
            "{}: race-free twin produced {} race(s)",
            input.spec.label,
            reported.len()
        ));
    }
    None
}

/// Full-rate equivalence on one full-size input; `None` when it holds.
pub fn fasttrack_check(input: &Input) -> Option<String> {
    let actions = decode(&input.bytes);
    let mut pacer = PacerDetector::new();
    let mut ft = FastTrackDetector::new();
    for a in &actions {
        pacer.on_action(a);
        ft.on_action(a);
    }
    let (p, f) = (pacer.distinct_races(), ft.distinct_races());
    (p != f).then(|| {
        format!(
            "{}: PACER@100% found {} distinct races, FASTTRACK {}",
            input.spec.label,
            p.len(),
            f.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_parsed_from_the_report_tail() {
        let r = "replaying 9 actions (5 accesses, 4 sync ops, 2 threads)\n\n\
                 2 dynamic race report(s), 2 distinct:\n  s1  <->  s4\n  s2  <->  s2\n";
        let pairs = reported_pairs(r);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&("s1".to_string(), "s4".to_string())));
        assert!(
            reported_pairs("replaying 0 actions\n\n0 dynamic race report(s), 0 distinct:\n")
                .is_empty()
        );
    }
}
