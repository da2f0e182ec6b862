//! Exact-count repeat test: at a small size, two runs with one seed give
//! identical counts and ratios, and a second seed still passes every
//! output check.

use cc_perf::{archive, run, Report, RunOpts, Scale};
use std::sync::Mutex;

/// Span and metric recording are process-wide switches; the traced runs
/// below must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: &str, seed: u64, trace: bool) -> Report {
    let opts = RunOpts {
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Small,
    };
    run(workload, &opts).expect("known workload")
}

fn exact(r: &Report, key: &str) -> String {
    r.exact
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("no exact value {key}"))
}

#[test]
fn one_seed_repeats_exactly() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = small("tune", 7, true);
    let b = small("tune", 7, true);
    assert!(a.correct() && b.correct());
    for key in ["core.candidates", "tune_picks", "tune_cr"] {
        assert_eq!(exact(&a, key), exact(&b, key), "{key} differs between runs");
    }
    for (k, v) in a.exact.iter().filter(|(k, _)| k.starts_with("codecs.")) {
        assert_eq!(&exact(&b, k), v, "{k} differs between runs");
    }
    assert!(
        a.exact.iter().any(|(k, _)| k.ends_with(".ratio")),
        "codec ratios recorded"
    );
    assert_eq!(a.get("core.candidates"), b.get("core.candidates"));

    let x = archive::exact_counts(7, Scale::Small);
    let y = archive::exact_counts(7, Scale::Small);
    assert_eq!(
        x.0.to_bits(),
        y.0.to_bits(),
        "archive.bytes_read_per_slice differs"
    );
    assert_eq!(
        x.1.to_bits(),
        y.1.to_bits(),
        "archive.frames_per_slice differs"
    );
    assert_eq!(x.2.to_bits(), y.2.to_bits(), "archive_cr differs");
    assert!(x.0 > 0.0 && x.1 >= 1.0 && x.2 > 0.0 && x.2 < 1.0);
}

#[test]
fn second_seed_passes_every_check() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in cc_perf::WORKLOADS {
        let r = small(workload, 11, false);
        assert!(r.correct(), "{workload}: an output check failed");
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0, "{workload}: failed operations");
        for (name, value, _) in &r.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = small("archive", 3, true);
    let names: Vec<String> = cc_perf::layers::per_layer_names()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let got: Vec<String> = r.metrics.iter().map(|(n, _, _)| n.clone()).collect();
    assert_eq!(got, names);
    assert!(r.get("serve.fetch_slice.compute_p50_us").unwrap_or(0.0) > 0.0);
}
