//! The refinement log's resume contract at tier 1: a checkpointed tiny
//! run's log cut at any record boundary, or anywhere inside its last
//! record, resumes to the uninterrupted model and report; damage before
//! the last record, or another universe, is refused with a typed error.

use quasar::model::persist::LOG_FILE;
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-refine-log-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One thread, refinement only, logging into `dir` and resuming from it.
fn config(dir: &Path) -> TrainConfig {
    TrainConfig {
        refine: RefineConfig {
            threads: 1,
            ..RefineConfig::default()
        },
        checkpoint: Some(dir.to_path_buf()),
        resume: true,
        generalize: false,
    }
}

/// The records of `log` as `(start, payload start, end, kind)`.
fn records(log: &[u8]) -> Vec<(usize, usize, usize, String)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let newline = at + log[at..].iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&log[at..newline]).unwrap();
        let fields: Vec<&str> = header.split(' ').collect();
        let end = newline + 1 + fields[2].parse::<usize>().unwrap();
        out.push((at, newline + 1, end, fields[1].to_string()));
        at = end;
    }
    assert_eq!(at, log.len(), "the log ends on a record boundary");
    out
}

#[test]
fn every_cut_of_the_log_resumes_to_the_uninterrupted_run() {
    let dataset = quasar::dataset_from(&SyntheticInternet::generate(NetGenConfig::tiny(31)));
    let dir = scratch("cuts");
    let cfg = config(&dir);
    let (model, report) = train(&dataset, &dataset, &cfg).expect("uninterrupted run");
    assert!(!report.resumed, "a directory without a log starts fresh");
    let want = model.to_json().expect("model serializes");
    let log = std::fs::read(dir.join(LOG_FILE)).expect("the run leaves its log");
    let recs = records(&log);
    let kinds: Vec<&str> = recs.iter().map(|r| r.3.as_str()).collect();
    let domains = kinds.iter().filter(|&&k| k == "domain").count();
    assert_eq!(kinds[0], "refine-log");
    assert_eq!(domains, report.refine.domains, "one record per domain");
    assert_eq!(
        kinds.len() - 1 - domains,
        report.refine.repair_rounds as usize,
        "one record per repair round"
    );
    assert!(domains > 1 && report.refine.repair_rounds > 0, "{kinds:?}");

    // Every record boundary, then offsets inside the last record: in its
    // header line, at its payload's start and middle, a byte short.
    let (start, payload, end, _) = recs[recs.len() - 1].clone();
    let mut cuts: Vec<usize> = recs.iter().map(|r| r.2).collect();
    cuts.extend([start + 1, start + 12, payload, (payload + end) / 2, end - 1]);
    for cut in cuts {
        std::fs::write(dir.join(LOG_FILE), &log[..cut]).expect("cut the log");
        let (resumed, again) = train(&dataset, &dataset, &cfg).expect("resume");
        // Only a log without a whole unit record starts afresh.
        assert_eq!(again.resumed, cut > recs[0].2, "cut at byte {cut}");
        assert!(
            resumed.to_json().expect("model serializes") == want,
            "the model resumed from a cut at byte {cut} differs"
        );
        assert_eq!(again.refine, report.refine, "cut at byte {cut}");
        assert!(
            std::fs::read(dir.join(LOG_FILE)).expect("log") == log,
            "the log continued from a cut at byte {cut} differs"
        );
    }

    // A flipped byte in a record that is not the last is damage.
    let (_, payload, end, _) = recs[recs.len() / 2].clone();
    let mut damaged = log.clone();
    damaged[(payload + end) / 2] ^= 0x20;
    std::fs::write(dir.join(LOG_FILE), &damaged).expect("damage the log");
    match train(&dataset, &dataset, &cfg) {
        Err(RefineError::Persist(PersistError::ChecksumMismatch { .. })) => {}
        other => panic!("want a checksum mismatch, got {:?}", other.map(|r| r.1)),
    }

    // Another universe is another base model: its log is refused.
    std::fs::write(dir.join(LOG_FILE), &log).expect("restore the log");
    let (half, _) = dataset.split_by_point(0.5, 3);
    match train(&half, &dataset, &cfg) {
        Err(RefineError::CheckpointMismatch(reason)) => {
            assert!(reason.contains("base model"), "{reason}")
        }
        other => panic!("want CheckpointMismatch, got {:?}", other.map(|r| r.1)),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
