//! `repro bench`: the throughput harness behind `BENCH.json`.
//!
//! Times chunked encode/decode MB/s for one representative configuration
//! of each paper codec family (plus the NetCDF-4 lossless baseline) at
//! several worker counts, and an end-to-end pipeline wall time (encode →
//! container write → serialize → parse → container read → decode) per
//! codec. Results serialize to the schema'd `BENCH.json` at the repo
//! root — the performance trajectory later PRs append to.
//!
//! # `BENCH.json` schema (`cc-bench-throughput/8`)
//!
//! ```json
//! {
//!   "schema": "cc-bench-throughput/8",
//!   "preset": "default" | "quick",
//!   "field": {"npts": N, "nlev": N, "elems": N, "bytes": N},
//!   "chunks": N,
//!   "worker_counts": [1, 2, ...],
//!   "codecs": [
//!     {
//!       "name": "fpzip-24",
//!       "ratio": 0.42,
//!       "encode":   [{"workers": 1, "secs": 0.5, "mb_per_s": 8.0}, ...],
//!       "decode":   [{"workers": 1, "secs": 0.3, "mb_per_s": 13.0}, ...],
//!       "pipeline": [{"workers": 1, "secs": 0.9}, ...],
//!       "encode_speedup": 1.8,
//!       "telemetry": {
//!         "encode_bytes_in": N, "encode_bytes_out": N,
//!         "decode_bytes_in": N, "decode_bytes_out": N
//!       }
//!     }, ...
//!   ],
//!   "max_encode_speedup": 1.9,
//!   "serve": {...}, "tune": {...}, "eval": {...}, "archive": {...}
//! }
//! ```
//!
//! `encode`/`decode` carry one entry per worker count (same order as
//! `worker_counts`); `encode_speedup` is the best multi-worker encode
//! rate over the `workers = 1` rate; `max_encode_speedup` is the maximum
//! over codecs. `telemetry` is the delta of the per-codec `cc-obs` byte
//! counters across the sweep — the counters are process-wide, so the
//! deltas are lower-bounded by this run's traffic rather than exactly
//! equal to it when other work shares the process.
//!
//! `repro bench` writes the base document; `serve-bench`, `tune`,
//! `eval-bench` and `archive-bench` each set one optional section
//! through [`merge_section`] (see [`crate::serve_bench`],
//! [`crate::tune`], [`crate::evalbench`], [`crate::archive_bench`]).
//! [`validate`] machine-checks the base document and every section that
//! is present via the minimal JSON parser in [`mod@json`], so CI can
//! reject malformed artifacts.

pub use cc_obs::json;

use cc_codecs::chunked::{compress_chunked, decompress_chunked, plan};
use cc_codecs::{Layout, Variant};
use cc_ncdf::{DType, Dataset, FilterPipeline};
use std::time::Instant;

/// Throughput-run configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Horizontal points per level.
    pub npts: usize,
    /// Vertical levels.
    pub nlev: usize,
    /// Worker counts to sweep (always starts at 1).
    pub worker_counts: Vec<usize>,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// Preset label recorded in the artifact.
    pub preset: String,
}

impl BenchConfig {
    /// Default scale: a 1,048,576-element field (the ≥1M-point target
    /// the roadmap's speedup criterion is stated against).
    pub fn default_scale() -> Self {
        BenchConfig {
            npts: 262_144,
            nlev: 4,
            worker_counts: worker_sweep(),
            reps: 3,
            preset: "default".into(),
        }
    }

    /// Smoke scale for CI: 131,072 elements, single repetition.
    pub fn quick() -> Self {
        BenchConfig {
            npts: 32_768,
            nlev: 4,
            worker_counts: worker_sweep(),
            reps: 1,
            preset: "quick".into(),
        }
    }
}

/// The worker counts to sweep: always 1 and 2, plus the machine width
/// when it exceeds 2.
fn worker_sweep() -> Vec<usize> {
    let mut counts = vec![1, 2];
    let n = cc_par::default_workers();
    if n > 2 {
        counts.push(n);
    }
    counts
}

/// One timed point.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Worker count.
    pub workers: usize,
    /// Best-of-reps wall seconds.
    pub secs: f64,
    /// Raw-data throughput at that time.
    pub mb_per_s: f64,
}

/// Byte-counter deltas for one codec across its sweep, read from the
/// process-wide `codec.<name>.{encode,decode}.{bytes_in,bytes_out}`
/// counters maintained by `cc_codecs::ObsCodec`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTelemetry {
    /// Raw f32 payload bytes fed to encode.
    pub encode_bytes_in: u64,
    /// Coded stream bytes produced by encode.
    pub encode_bytes_out: u64,
    /// Coded stream bytes fed to decode.
    pub decode_bytes_in: u64,
    /// Raw f32 payload bytes reconstructed by decode.
    pub decode_bytes_out: u64,
}

impl CodecTelemetry {
    /// Read the current counter values for `codec.<name>.*`.
    fn snapshot(name: &str) -> Self {
        let read = |suffix: &str| cc_obs::counter_value(&format!("codec.{name}.{suffix}"));
        CodecTelemetry {
            encode_bytes_in: read("encode.bytes_in"),
            encode_bytes_out: read("encode.bytes_out"),
            decode_bytes_in: read("decode.bytes_in"),
            decode_bytes_out: read("decode.bytes_out"),
        }
    }

    /// Delta against an earlier snapshot.
    fn since(self, before: CodecTelemetry) -> Self {
        CodecTelemetry {
            encode_bytes_in: self.encode_bytes_in.wrapping_sub(before.encode_bytes_in),
            encode_bytes_out: self.encode_bytes_out.wrapping_sub(before.encode_bytes_out),
            decode_bytes_in: self.decode_bytes_in.wrapping_sub(before.decode_bytes_in),
            decode_bytes_out: self.decode_bytes_out.wrapping_sub(before.decode_bytes_out),
        }
    }
}

/// Per-codec results.
#[derive(Debug, Clone)]
pub struct CodecBench {
    /// Codec display name.
    pub name: String,
    /// Compressed / raw size.
    pub ratio: f64,
    /// Encode timings, one per worker count.
    pub encode: Vec<Timing>,
    /// Decode timings, one per worker count.
    pub decode: Vec<Timing>,
    /// End-to-end pipeline seconds, one per worker count.
    pub pipeline: Vec<(usize, f64)>,
    /// Byte-counter deltas over the sweep.
    pub telemetry: CodecTelemetry,
}

impl CodecBench {
    /// Best multi-worker encode rate over the workers=1 rate.
    pub fn encode_speedup(&self) -> f64 {
        let base = self.encode.first().map(|t| t.mb_per_s).unwrap_or(0.0);
        let best = self.encode[1..].iter().map(|t| t.mb_per_s).fold(0.0, f64::max);
        if base > 0.0 { best / base } else { 0.0 }
    }
}

/// A full throughput run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Configuration used.
    pub config: BenchConfig,
    /// Field layout benchmarked.
    pub layout: Layout,
    /// Number of chunks the field splits into.
    pub chunks: usize,
    /// Per-codec results.
    pub codecs: Vec<CodecBench>,
}

/// The five benchmarked codecs: one representative configuration per
/// paper family, plus the NetCDF-4 lossless baseline.
pub fn bench_set() -> Vec<Variant> {
    vec![
        Variant::Grib2 { decimal_scale: None },
        Variant::Apax { rate: 4.0 },
        Variant::Fpzip { bits: 24 },
        Variant::Isabela { rel_err: 0.005 },
        Variant::NetCdf4,
    ]
}

/// Smooth climate-like benchmark field (deterministic, no model build —
/// benchmarking the codecs, not the emulator).
pub fn bench_field(npts: usize, nlev: usize) -> (Vec<f32>, Layout) {
    let linear = Layout::linear(npts);
    let layout = Layout { nlev, npts, rows: linear.rows, cols: linear.cols };
    let mut data = Vec::with_capacity(layout.len());
    for lev in 0..nlev {
        for p in 0..npts {
            let x = p as f32 / npts as f32;
            let v = 240.0
                + 30.0 * (6.3 * x).sin()
                + 5.0 * (31.0 * x + lev as f32).cos()
                + 0.01 * ((p * 31 + lev * 7) % 101) as f32
                + lev as f32 * 2.0;
            data.push(v);
        }
    }
    (data, layout)
}

fn best_of<F: FnMut() -> R, R>(reps: usize, mut f: F) -> (f64, R) {
    let mut best = f64::INFINITY;
    let t0 = Instant::now();
    let mut out = f();
    best = best.min(t0.elapsed().as_secs_f64());
    for _ in 1..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Run the sweep. `progress` receives one line per codec.
///
/// Enables `cc-obs` metric recording for the rest of the process so the
/// per-codec byte counters behind [`CodecTelemetry`] accumulate; the
/// timed sections are unchanged by this (one relaxed atomic add per
/// chunk).
pub fn run(config: &BenchConfig, progress: &mut dyn FnMut(&str)) -> BenchReport {
    cc_obs::set_metrics_enabled(true);
    let (data, layout) = bench_field(config.npts, config.nlev);
    let raw_mb = (layout.len() * 4) as f64 / (1024.0 * 1024.0);
    let chunks = plan(layout).len();
    let mut codecs = Vec::new();
    for variant in bench_set() {
        let codec = variant.codec();
        let counters_before = CodecTelemetry::snapshot(&variant.name());
        progress(&format!("benching {} ({} chunks, {:.1} MB raw)", variant.name(), chunks, raw_mb));
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut pipeline = Vec::new();
        let mut ratio = 0.0;
        for &w in &config.worker_counts {
            let (enc_secs, bytes) =
                best_of(config.reps, || compress_chunked(codec.as_ref(), &data, layout, w));
            ratio = bytes.len() as f64 / (layout.len() * 4) as f64;
            let (dec_secs, recon) = best_of(config.reps, || {
                decompress_chunked(codec.as_ref(), &bytes, layout, w).expect("own stream decodes")
            });
            assert_eq!(recon.len(), data.len());
            encode.push(Timing { workers: w, secs: enc_secs, mb_per_s: raw_mb / enc_secs.max(1e-12) });
            decode.push(Timing { workers: w, secs: dec_secs, mb_per_s: raw_mb / dec_secs.max(1e-12) });

            // End-to-end: encode, store the stream in a container
            // variable, serialize, parse, read back, decode.
            // End-to-end: field → container variable (shuffle+deflate
            // filters, parallel chunk pipeline) → serialize → parse →
            // read → chunked encode + decode. The write/read legs
            // exercise cc-ncdf's parallel filter path.
            let (pipe_secs, ok) = best_of(1, || {
                let mut ds = Dataset::new();
                let d = ds.add_dim("n", data.len());
                let v = ds
                    .def_var("field", DType::F32, &[d], FilterPipeline::shuffle_deflate())
                    .expect("var");
                ds.put_f32(v, &data).expect("store");
                let ser = ds.to_bytes();
                let back = Dataset::from_bytes(&ser).expect("parse");
                let field = back.get_f32(v).expect("read");
                let stream = compress_chunked(codec.as_ref(), &field, layout, w);
                let recon = decompress_chunked(codec.as_ref(), &stream, layout, w).expect("decode");
                recon.len() == data.len()
            });
            assert!(ok);
            pipeline.push((w, pipe_secs));
        }
        let telemetry = CodecTelemetry::snapshot(&variant.name()).since(counters_before);
        codecs.push(CodecBench { name: variant.name(), ratio, encode, decode, pipeline, telemetry });
    }
    BenchReport { config: config.clone(), layout, chunks, codecs }
}

impl BenchReport {
    /// Maximum per-codec encode speedup.
    pub fn max_encode_speedup(&self) -> f64 {
        self.codecs.iter().map(|c| c.encode_speedup()).fold(0.0, f64::max)
    }

    /// Serialize to the base [`SCHEMA`] JSON document.
    pub fn to_json(&self) -> String {
        let timing_arr = |ts: &[Timing]| -> String {
            let items: Vec<String> = ts
                .iter()
                .map(|t| {
                    format!(
                        "{{\"workers\": {}, \"secs\": {:.6}, \"mb_per_s\": {:.3}}}",
                        t.workers, t.secs, t.mb_per_s
                    )
                })
                .collect();
            format!("[{}]", items.join(", "))
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"preset\": \"{}\",\n", self.config.preset));
        s.push_str(&format!(
            "  \"field\": {{\"npts\": {}, \"nlev\": {}, \"elems\": {}, \"bytes\": {}}},\n",
            self.layout.npts,
            self.layout.nlev,
            self.layout.len(),
            self.layout.len() * 4
        ));
        s.push_str(&format!("  \"chunks\": {},\n", self.chunks));
        s.push_str(&format!(
            "  \"worker_counts\": [{}],\n",
            self.config
                .worker_counts
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"codecs\": [\n");
        let rows: Vec<String> = self
            .codecs
            .iter()
            .map(|c| {
                let pipe: Vec<String> = c
                    .pipeline
                    .iter()
                    .map(|(w, t)| format!("{{\"workers\": {w}, \"secs\": {t:.6}}}"))
                    .collect();
                let tel = format!(
                    "{{\"encode_bytes_in\": {}, \"encode_bytes_out\": {}, \"decode_bytes_in\": {}, \"decode_bytes_out\": {}}}",
                    c.telemetry.encode_bytes_in,
                    c.telemetry.encode_bytes_out,
                    c.telemetry.decode_bytes_in,
                    c.telemetry.decode_bytes_out
                );
                format!(
                    "    {{\"name\": \"{}\", \"ratio\": {:.6}, \"encode\": {}, \"decode\": {}, \"pipeline\": [{}], \"encode_speedup\": {:.3}, \"telemetry\": {}}}",
                    c.name,
                    c.ratio,
                    timing_arr(&c.encode),
                    timing_arr(&c.decode),
                    pipe.join(", "),
                    c.encode_speedup(),
                    tel
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str(&format!(
            "  \"max_encode_speedup\": {:.3}\n",
            self.max_encode_speedup()
        ));
        s.push_str("}\n");
        s
    }
}

/// The one schema [`validate`] accepts.
pub const SCHEMA: &str = "cc-bench-throughput/8";

/// A section validator: appends every violation it finds.
type SectionCheck = fn(&mut Vec<String>, &json::Value);

/// The optional sections and their validators, each run whenever its
/// section is present.
const SECTIONS: [(&str, SectionCheck); 4] = [
    ("serve", validate_serve),
    ("tune", validate_tune),
    ("eval", validate_eval),
    ("archive", validate_archive),
];

/// Validate a `BENCH.json` document against [`SCHEMA`]: the base
/// throughput document (per-codec `telemetry` included) is required, and
/// each of the `serve`, `tune`, `eval` and `archive` sections is checked
/// when present. Returns every violation found.
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut errs = Vec::new();
    fn check(errs: &mut Vec<String>, cond: bool, msg: &str) {
        if !cond {
            errs.push(msg.to_string());
        }
    }

    check(
        &mut errs,
        doc.get("schema").and_then(json::Value::as_str) == Some(SCHEMA),
        &format!("schema must be \"{SCHEMA}\""),
    );
    for (key, check_section) in SECTIONS {
        if let Some(section) = doc.get(key) {
            check_section(&mut errs, section);
        }
    }
    check(&mut errs, doc.get("preset").and_then(json::Value::as_str).is_some(), "preset missing");
    let field = doc.get("field");
    for key in ["npts", "nlev", "elems", "bytes"] {
        check(
            &mut errs,
            field.and_then(|f| f.get(key)).and_then(json::Value::as_f64).map(|v| v > 0.0)
                == Some(true),
            &format!("field.{key} must be a positive number"),
        );
    }
    check(
        &mut errs,
        doc.get("chunks").and_then(json::Value::as_f64).map(|v| v >= 1.0) == Some(true),
        "chunks must be >= 1",
    );

    let workers: Vec<f64> = doc
        .get("worker_counts")
        .and_then(json::Value::as_array)
        .map(|a| a.iter().filter_map(json::Value::as_f64).collect())
        .unwrap_or_default();
    check(&mut errs, workers.len() >= 2, "worker_counts must list at least two counts");
    check(&mut errs, workers.first() == Some(&1.0), "worker_counts must start at 1");

    let codecs = doc.get("codecs").and_then(json::Value::as_array);
    match codecs {
        None => errs.push("codecs array missing".into()),
        Some(list) => {
            check(&mut errs, list.len() >= 5, "codecs must cover the five benchmarked codecs");
            for c in list {
                let name = c
                    .get("name")
                    .and_then(json::Value::as_str)
                    .unwrap_or("<unnamed>")
                    .to_string();
                check(
                    &mut errs,
                    c.get("ratio").and_then(json::Value::as_f64).map(|r| r > 0.0 && r < 4.0)
                        == Some(true),
                    &format!("{name}: ratio must be in (0, 4)"),
                );
                for dir in ["encode", "decode"] {
                    let arr = c.get(dir).and_then(json::Value::as_array);
                    match arr {
                        None => errs.push(format!("{name}: {dir} timings missing")),
                        Some(ts) => {
                            if ts.len() != workers.len() {
                                errs.push(format!(
                                    "{name}: {dir} must have one entry per worker count"
                                ));
                            }
                            for t in ts {
                                let ok = t
                                    .get("mb_per_s")
                                    .and_then(json::Value::as_f64)
                                    .map(|v| v > 0.0)
                                    == Some(true)
                                    && t.get("secs").and_then(json::Value::as_f64).map(|v| v > 0.0)
                                        == Some(true)
                                    && t.get("workers").and_then(json::Value::as_f64).is_some();
                                if !ok {
                                    errs.push(format!(
                                        "{name}: {dir} entry missing workers/secs/mb_per_s"
                                    ));
                                }
                            }
                        }
                    }
                }
                check(
                    &mut errs,
                    c.get("pipeline").and_then(json::Value::as_array).map(|a| !a.is_empty())
                        == Some(true),
                    &format!("{name}: pipeline timings missing"),
                );
                check(
                    &mut errs,
                    c.get("encode_speedup").and_then(json::Value::as_f64).is_some(),
                    &format!("{name}: encode_speedup missing"),
                );
                // Counters are process-wide deltas: require positive
                // traffic in every direction, not exact byte accounting
                // (concurrent work in the same process may also have
                // incremented them).
                match c.get("telemetry") {
                    None => errs.push(format!("{name}: telemetry section missing")),
                    Some(t) => {
                        for key in [
                            "encode_bytes_in",
                            "encode_bytes_out",
                            "decode_bytes_in",
                            "decode_bytes_out",
                        ] {
                            check(
                                &mut errs,
                                t.get(key).and_then(json::Value::as_f64).map(|v| v > 0.0)
                                    == Some(true),
                                &format!("{name}: telemetry.{key} must be positive"),
                            );
                        }
                    }
                }
            }
        }
    }
    check(
        &mut errs,
        doc.get("max_encode_speedup").and_then(json::Value::as_f64).is_some(),
        "max_encode_speedup missing",
    );

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Set section `key` of the `BENCH.json` document `bench_text` to
/// `section` and return the merged document. The existing document must
/// parse and carry a schema field, and the merged one must pass
/// [`validate`], so a broken artifact refuses the merge instead of
/// producing an invalid file.
pub fn merge_section(
    bench_text: &str,
    key: &str,
    section: json::Value,
) -> Result<String, Vec<String>> {
    let mut doc = json::parse(bench_text)
        .map_err(|e| vec![format!("existing BENCH.json is not valid JSON: {e}")])?;
    if doc.get("schema").and_then(json::Value::as_str).is_none() {
        return Err(vec!["existing BENCH.json has no schema field".into()]);
    }
    doc.set(key, section);
    let merged = doc.to_json();
    validate(&merged)?;
    Ok(merged)
}

/// Check the `serve` section set by `repro serve-bench`: the
/// `client_counts` sweep and, per run, p50/p99/p999 latency plus a
/// non-empty `per_op` latency split.
fn validate_serve(errs: &mut Vec<String>, serve: &json::Value) {
    for key in ["shards", "requests_per_client", "payload_elems"] {
        if serve.get(key).and_then(json::Value::as_f64).map(|v| v > 0.0) != Some(true) {
            errs.push(format!("serve.{key} must be a positive number"));
        }
    }
    if serve
        .get("client_counts")
        .and_then(json::Value::as_array)
        .map(|a| a.iter().all(|v| v.as_f64().map(|c| c >= 1.0) == Some(true)) && !a.is_empty())
        != Some(true)
    {
        errs.push("serve.client_counts must be a non-empty array of positive counts".into());
    }
    let runs = serve.get("runs").and_then(json::Value::as_array).unwrap_or_default();
    if runs.len() < 2 {
        errs.push("serve.runs must cover at least two sweep points".into());
    }
    for (i, r) in runs.iter().enumerate() {
        let num = |key: &str| r.get(key).and_then(json::Value::as_f64);
        if num("workers").map(|v| v >= 1.0) != Some(true)
            || num("requests").map(|v| v >= 1.0) != Some(true)
            || num("req_per_s").map(|v| v > 0.0) != Some(true)
        {
            errs.push(format!("serve.runs[{i}]: workers/requests/req_per_s must be positive"));
        }
        if num("clients").map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("serve.runs[{i}]: clients must be >= 1"));
        }
        match (num("p50_us"), num("p99_us")) {
            (Some(p50), Some(p99)) if p99 >= p50 && p50 >= 0.0 => {
                if num("p999_us").map(|p999| p999 >= p99) != Some(true) {
                    errs.push(format!("serve.runs[{i}]: need p99_us <= p999_us"));
                }
            }
            _ => errs.push(format!("serve.runs[{i}]: need p50_us <= p99_us")),
        }
        if num("busy_rate").map(|v| (0.0..=1.0).contains(&v)) != Some(true) {
            errs.push(format!("serve.runs[{i}]: busy_rate must be in [0, 1]"));
        }
        let ops = r.get("per_op").and_then(json::Value::as_array).unwrap_or_default();
        if ops.is_empty() {
            errs.push(format!("serve.runs[{i}]: per_op latency split missing"));
        }
        for (j, o) in ops.iter().enumerate() {
            let onum = |key: &str| o.get(key).and_then(json::Value::as_f64);
            let ok = o.get("op").and_then(json::Value::as_str).is_some()
                && onum("count").map(|v| v >= 1.0) == Some(true)
                && matches!(
                    (onum("p50_us"), onum("p99_us"), onum("p999_us")),
                    (Some(p50), Some(p99), Some(p999))
                        if p50 >= 0.0 && p99 >= p50 && p999 >= p99
                );
            if !ok {
                errs.push(format!(
                    "serve.runs[{i}].per_op[{j}]: need op, count >= 1, p50 <= p99 <= p999"
                ));
            }
        }
    }
}

/// Check the `tune` section set by `repro tune`:
/// per-variable auto-tuning outcomes. Every chosen config must have
/// passed all four ensemble tests, and its CR (compressed/raw, smaller
/// is better) must match or beat the hand-picked hybrid's.
fn validate_tune(errs: &mut Vec<String>, tune: &json::Value) {
    if tune.get("preset").and_then(json::Value::as_str).is_none() {
        errs.push("tune.preset missing".into());
    }
    let vars = tune.get("variables").and_then(json::Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("tune.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let num = |key: &str| v.get(key).and_then(json::Value::as_f64);
        if v.get("name").and_then(json::Value::as_str).is_none()
            || v.get("chosen").and_then(json::Value::as_str).is_none()
            || v.get("hybrid").and_then(json::Value::as_str).is_none()
        {
            errs.push(format!("tune.variables[{i}]: name/chosen/hybrid must be strings"));
        }
        if v.get("passes") != Some(&json::Value::Bool(true)) {
            errs.push(format!(
                "tune.variables[{i}]: chosen config must pass all four tests"
            ));
        }
        match (num("cr"), num("hybrid_cr")) {
            (Some(cr), Some(hcr)) if cr > 0.0 && cr <= 4.0 && hcr > 0.0 => {
                if cr > hcr + 1e-9 {
                    errs.push(format!(
                        "tune.variables[{i}]: tuned CR {cr} worse than hybrid {hcr}"
                    ));
                }
            }
            _ => errs.push(format!(
                "tune.variables[{i}]: cr/hybrid_cr must be positive (cr <= 4)"
            )),
        }
        if num("candidates").map(|c| c >= 1.0) != Some(true)
            || num("passing").map(|p| p >= 1.0) != Some(true)
        {
            errs.push(format!("tune.variables[{i}]: candidates/passing must be >= 1"));
        }
    }
}

/// Check the `eval` section set by `repro eval-bench`: verification-
/// engine throughput — member-synthesis and verdict rates, per-variable
/// tune wall time, and the per-stage self-time profile the run exported.
fn validate_eval(errs: &mut Vec<String>, eval: &json::Value) {
    if eval.get("preset").and_then(json::Value::as_str).is_none() {
        errs.push("eval.preset missing".into());
    }
    let num = |key: &str| eval.get(key).and_then(json::Value::as_f64);
    for key in ["workers", "members"] {
        if num(key).map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("eval.{key} must be >= 1"));
        }
    }
    for key in ["synth_members_per_s", "verdicts_per_s", "tune_wall_s"] {
        if num(key).map(|v| v > 0.0) != Some(true) {
            errs.push(format!("eval.{key} must be positive"));
        }
    }
    let vars = eval.get("variables").and_then(json::Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("eval.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let ok = v.get("name").and_then(json::Value::as_str).is_some()
            && v.get("tune_wall_s").and_then(json::Value::as_f64).map(|w| w > 0.0)
                == Some(true);
        if !ok {
            errs.push(format!("eval.variables[{i}]: need name and positive tune_wall_s"));
        }
    }
    let stages = eval.get("stages").and_then(json::Value::as_array).unwrap_or_default();
    if stages.is_empty() {
        errs.push("eval.stages must be a non-empty per-stage self-time profile".into());
    }
    for (i, st) in stages.iter().enumerate() {
        let snum = |key: &str| st.get(key).and_then(json::Value::as_f64);
        let ok = st.get("name").and_then(json::Value::as_str).is_some()
            && snum("calls").map(|c| c >= 1.0) == Some(true)
            && snum("self_ms").map(|s| s >= 0.0) == Some(true);
        if !ok {
            errs.push(format!("eval.stages[{i}]: need name, calls >= 1, self_ms >= 0"));
        }
    }
}

/// Check the `archive` section set by `repro archive-bench`: per-variable
/// temporal-archive compression versus the per-timestep workflow, plus
/// random-slice fetch latency. The archive
/// must actually exploit temporal correlation — its CR (smaller is
/// better) must match or beat the per-timestep CR for every variable.
fn validate_archive(errs: &mut Vec<String>, archive: &json::Value) {
    if archive.get("preset").and_then(json::Value::as_str).is_none() {
        errs.push("archive.preset missing".into());
    }
    let num = |key: &str| archive.get(key).and_then(json::Value::as_f64);
    if num("timesteps").map(|v| v >= 2.0) != Some(true) {
        errs.push("archive.timesteps must be >= 2".into());
    }
    for key in ["keyframe_every", "fetches"] {
        if num(key).map(|v| v >= 1.0) != Some(true) {
            errs.push(format!("archive.{key} must be >= 1"));
        }
    }
    let vars = archive.get("variables").and_then(json::Value::as_array).unwrap_or_default();
    if vars.is_empty() {
        errs.push("archive.variables must be a non-empty array".into());
    }
    for (i, v) in vars.iter().enumerate() {
        let vnum = |key: &str| v.get(key).and_then(json::Value::as_f64);
        if v.get("name").and_then(json::Value::as_str).is_none()
            || v.get("codec").and_then(json::Value::as_str).is_none()
        {
            errs.push(format!("archive.variables[{i}]: name/codec must be strings"));
        }
        for key in ["frames", "raw_bytes", "archive_bytes", "per_timestep_bytes"] {
            if vnum(key).map(|b| b >= 1.0) != Some(true) {
                errs.push(format!("archive.variables[{i}]: {key} must be >= 1"));
            }
        }
        match (vnum("archive_cr"), vnum("per_timestep_cr")) {
            (Some(acr), Some(pcr)) if acr > 0.0 && pcr > 0.0 => {
                if acr > pcr + 1e-9 {
                    errs.push(format!(
                        "archive.variables[{i}]: archive CR {acr} worse than per-timestep {pcr}"
                    ));
                }
            }
            _ => errs.push(format!(
                "archive.variables[{i}]: archive_cr/per_timestep_cr must be positive"
            )),
        }
        match (vnum("slice_p50_us"), vnum("slice_p99_us")) {
            (Some(p50), Some(p99)) if p50 >= 0.0 && p99 >= p50 => {}
            _ => errs.push(format!(
                "archive.variables[{i}]: need slice_p50_us <= slice_p99_us"
            )),
        }
    }
}

/// One row of an archive baseline comparison.
#[derive(Debug, Clone)]
pub struct ArchiveCompareRow {
    /// Metric label (`<var> archive CR`, `<var> slice p99 µs`).
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Current value at or below `baseline / (1 - tolerance)`.
    pub pass: bool,
}

/// Compare the `archive` sections of two documents, when both carry
/// one. Archive CR and slice p99 latency are both smaller-is-better, so
/// the tolerance floor flips: the current value passes when shrinking
/// it by the tolerance would put it at or below the baseline
/// (`cur * (1 - tolerance) <= base`) — the mirror image of the
/// rate-floor used for throughput. Variables present in only one
/// document are ignored. Returns `None` when either document lacks an
/// archive section.
pub fn compare_archive(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Option<Vec<ArchiveCompareRow>> {
    let vars = |text: &str| -> Option<Vec<(String, f64, f64)>> {
        let doc = json::parse(text).ok()?;
        let list = doc.get("archive")?.get("variables")?.as_array()?;
        let mut out = Vec::new();
        for v in list {
            out.push((
                v.get("name")?.as_str()?.to_string(),
                v.get("archive_cr")?.as_f64()?,
                v.get("slice_p99_us")?.as_f64()?,
            ));
        }
        Some(out)
    };
    let cur = vars(current)?;
    let base = vars(baseline)?;
    let shrink = 1.0 - tolerance;
    let mut rows = Vec::new();
    for (name, bcr, bp99) in base {
        if let Some((_, ccr, cp99)) = cur.iter().find(|(n, _, _)| *n == name) {
            rows.push(ArchiveCompareRow {
                name: format!("{name} archive CR"),
                base: bcr,
                cur: *ccr,
                pass: ccr * shrink <= bcr,
            });
            rows.push(ArchiveCompareRow {
                name: format!("{name} slice p99 µs"),
                base: bp99,
                cur: *cp99,
                pass: cp99 * shrink <= bp99,
            });
        }
    }
    Some(rows)
}

/// Render archive comparison rows; returns the rendering and the number
/// of failing metrics.
pub fn render_archive_compare(rows: &[ArchiveCompareRow]) -> (String, usize) {
    let mut s = format!(
        "{:<22} {:>12} {:>12} {:>7}  {}\n",
        "archive metric", "base", "now", "Δ", "status"
    );
    let mut fails = 0;
    for r in rows {
        if !r.pass {
            fails += 1;
        }
        let pct = if r.base > 0.0 {
            format!("{:+.0}%", (r.cur / r.base - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        s.push_str(&format!(
            "{:<22} {:>12.4} {:>12.4} {:>7}  {}\n",
            r.name,
            r.base,
            r.cur,
            pct,
            if r.pass { "ok" } else { "REGRESSED" },
        ));
    }
    (s, fails)
}

/// One row of an eval-rate baseline comparison.
#[derive(Debug, Clone)]
pub struct EvalCompareRow {
    /// Rate label (`synth members/s`, `verdicts/s`).
    pub name: String,
    /// Baseline rate.
    pub base: f64,
    /// Current rate.
    pub cur: f64,
    /// Current rate at or above `(1 - tolerance) ×` baseline.
    pub pass: bool,
}

/// Compare the `eval` sections of two documents, when both carry one.
/// Rates (higher is better) are held to the same tolerance floor as the
/// codec comparison; wall times are machine-dependent and not gated.
/// Returns `None` when either document lacks an eval section.
pub fn compare_eval(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Option<Vec<EvalCompareRow>> {
    let rate = |text: &str, key: &str| -> Option<f64> {
        json::parse(text).ok()?.get("eval")?.get(key)?.as_f64()
    };
    let floor = 1.0 - tolerance;
    let mut rows = Vec::new();
    for (label, key) in
        [("synth members/s", "synth_members_per_s"), ("verdicts/s", "verdicts_per_s")]
    {
        let base = rate(baseline, key)?;
        let cur = rate(current, key)?;
        rows.push(EvalCompareRow {
            name: label.to_string(),
            base,
            cur,
            pass: cur >= base * floor,
        });
    }
    Some(rows)
}

/// Render eval comparison rows; returns the rendering and the number of
/// failing rates.
pub fn render_eval_compare(rows: &[EvalCompareRow]) -> (String, usize) {
    let mut s = format!("{:<18} {:>12} {:>12} {:>7}  {}\n", "eval rate", "base", "now", "Δ", "status");
    let mut fails = 0;
    for r in rows {
        if !r.pass {
            fails += 1;
        }
        let pct = if r.base > 0.0 {
            format!("{:+.0}%", (r.cur / r.base - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        s.push_str(&format!(
            "{:<18} {:>12.1} {:>12.1} {:>7}  {}\n",
            r.name,
            r.base,
            r.cur,
            pct,
            if r.pass { "ok" } else { "REGRESSED" },
        ));
    }
    (s, fails)
}

/// One row of a baseline comparison: single-worker encode/decode rates
/// of one codec in the current document versus the baseline.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Codec display name.
    pub name: String,
    /// Baseline workers=1 encode MB/s.
    pub base_encode: f64,
    /// Current workers=1 encode MB/s.
    pub cur_encode: f64,
    /// Baseline workers=1 decode MB/s.
    pub base_decode: f64,
    /// Current workers=1 decode MB/s.
    pub cur_decode: f64,
    /// Both rates at or above `(1 - tolerance) ×` baseline.
    pub pass: bool,
}

/// Extract `(name, encode MB/s, decode MB/s)` at workers=1 per codec.
fn single_worker_rates(text: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let codecs = doc
        .get("codecs")
        .and_then(json::Value::as_array)
        .ok_or("codecs array missing")?;
    let mut out = Vec::new();
    for c in codecs {
        let name = c
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("codec name missing")?
            .to_string();
        let rate = |dir: &str| -> Result<f64, String> {
            c.get(dir)
                .and_then(json::Value::as_array)
                .and_then(|a| a.first())
                .and_then(|t| t.get("mb_per_s"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{name}: {dir} workers=1 rate missing"))
        };
        let (e, d) = (rate("encode")?, rate("decode")?);
        out.push((name, e, d));
    }
    Ok(out)
}

/// Compare `current` against `baseline` (both `BENCH.json` documents).
///
/// A codec passes when its single-worker encode *and* decode rates are
/// at least `(1 - tolerance)` times the baseline's; codecs present in
/// only one document are ignored (the schema check already pins the
/// required set). Returns the per-codec rows for rendering.
pub fn compare(current: &str, baseline: &str, tolerance: f64) -> Result<Vec<CompareRow>, String> {
    let cur = single_worker_rates(current)?;
    let base = single_worker_rates(baseline).map_err(|e| format!("baseline: {e}"))?;
    let floor = 1.0 - tolerance;
    let mut rows = Vec::new();
    for (name, be, bd) in base {
        if let Some((_, ce, cd)) = cur.iter().find(|(n, _, _)| *n == name) {
            rows.push(CompareRow {
                name,
                base_encode: be,
                cur_encode: *ce,
                base_decode: bd,
                cur_decode: *cd,
                pass: *ce >= be * floor && *cd >= bd * floor,
            });
        }
    }
    if rows.is_empty() {
        return Err("no codec appears in both documents".into());
    }
    Ok(rows)
}

/// Render comparison rows as a pass/fail table; returns the rendering
/// and the number of failing codecs.
pub fn render_compare(rows: &[CompareRow], tolerance: f64) -> (String, usize) {
    let mut s = format!(
        "{:<10} {:>12} {:>12} {:>7}  {:>12} {:>12} {:>7}  {}\n",
        "codec", "enc base", "enc now", "Δ", "dec base", "dec now", "Δ", "status"
    );
    let mut fails = 0;
    for r in rows {
        let pct = |cur: f64, base: f64| {
            if base > 0.0 { format!("{:+.0}%", (cur / base - 1.0) * 100.0) } else { "n/a".into() }
        };
        if !r.pass {
            fails += 1;
        }
        s.push_str(&format!(
            "{:<10} {:>10.1}MB {:>10.1}MB {:>7}  {:>10.1}MB {:>10.1}MB {:>7}  {}\n",
            r.name,
            r.base_encode,
            r.cur_encode,
            pct(r.cur_encode, r.base_encode),
            r.base_decode,
            r.cur_decode,
            pct(r.cur_decode, r.base_decode),
            if r.pass { "ok" } else { "REGRESSED" },
        ));
    }
    s.push_str(&format!(
        "tolerance: rates must reach {:.0}% of baseline\n",
        (1.0 - tolerance) * 100.0
    ));
    (s, fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            npts: 4_096,
            nlev: 2,
            worker_counts: vec![1, 2],
            reps: 1,
            preset: "quick".into(),
        }
    }

    #[test]
    fn report_serializes_and_validates() {
        let report = run(&tiny_config(), &mut |_| {});
        let json = report.to_json();
        validate(&json).expect("fresh report must satisfy its own schema");
        assert_eq!(report.codecs.len(), 5);
        let raw = (report.layout.len() * 4) as u64;
        for c in &report.codecs {
            assert_eq!(c.encode.len(), 2);
            assert_eq!(c.decode.len(), 2);
            assert!(c.ratio > 0.0 && c.ratio < 2.0, "{}: {}", c.name, c.ratio);
            // Each worker count encodes+decodes the whole field at least
            // once; the counters are process-wide so >= is the contract.
            assert!(c.telemetry.encode_bytes_in >= 2 * raw, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.encode_bytes_out > 0, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.decode_bytes_in > 0, "{}: {:?}", c.name, c.telemetry);
            assert!(c.telemetry.decode_bytes_out >= 2 * raw, "{}: {:?}", c.name, c.telemetry);
        }
    }

    #[test]
    fn validator_rejects_damage() {
        let report = run(&tiny_config(), &mut |_| {});
        let good = report.to_json();
        for bad in [
            good.replace(SCHEMA, "cc-bench-throughput/0"),
            good.replace("\"worker_counts\": [1, 2]", "\"worker_counts\": [1]"),
            good.replace("\"codecs\"", "\"kodecs\""),
            good.replace("\"telemetry\"", "\"telemetree\""),
            "{not json".to_string(),
        ] {
            assert!(validate(&bad).is_err(), "must reject: {}", &bad[..60.min(bad.len())]);
        }
    }

    /// Minimal document `compare` accepts: one codec, workers=1 rates.
    fn doc_with_rates(encode: f64, decode: f64) -> String {
        format!(
            "{{\"codecs\": [{{\"name\": \"fpzip-24\", \
             \"encode\": [{{\"workers\": 1, \"secs\": 1.0, \"mb_per_s\": {encode}}}], \
             \"decode\": [{{\"workers\": 1, \"secs\": 1.0, \"mb_per_s\": {decode}}}]}}]}}"
        )
    }

    #[test]
    fn compare_flags_regressions_within_tolerance() {
        let base = doc_with_rates(100.0, 200.0);
        // Identical documents always pass.
        let rows = compare(&base, &base, 0.1).unwrap();
        assert!(rows.iter().all(|r| r.pass));
        let (text, fails) = render_compare(&rows, 0.1);
        assert_eq!(fails, 0);
        assert!(text.contains("ok"));

        // 12% slower encode fails a 10% tolerance but passes 15%.
        let slower = doc_with_rates(88.0, 200.0);
        let rows = compare(&slower, &base, 0.1).unwrap();
        assert!(!rows[0].pass);
        let (text, fails) = render_compare(&rows, 0.1);
        assert_eq!(fails, 1);
        assert!(text.contains("REGRESSED"));
        assert!(compare(&slower, &base, 0.15).unwrap()[0].pass);

        // A decode-only regression also fails.
        let slow_decode = doc_with_rates(100.0, 150.0);
        assert!(!compare(&slow_decode, &base, 0.1).unwrap()[0].pass);
        // Faster is always fine.
        assert!(compare(&doc_with_rates(300.0, 400.0), &base, 0.0).unwrap()[0].pass);

        // Garbage inputs error instead of passing.
        assert!(compare("{", &base, 0.1).is_err());
        assert!(compare(&base, "{\"codecs\": []}", 0.1).is_err());
        assert!(
            compare(&doc_with_rates(1.0, 1.0), "{\"codecs\": [{\"name\": \"other\"}]}", 0.1)
                .is_err(),
            "disjoint codec sets must error"
        );
    }

    fn committed_bench() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json"))
            .expect("read the committed BENCH.json")
    }

    #[test]
    fn committed_bench_validates_with_every_section() {
        let text = committed_bench();
        validate(&text).expect("committed BENCH.json must validate");
        let doc = json::parse(&text).unwrap();
        for (key, _) in SECTIONS {
            assert!(doc.get(key).is_some(), "committed BENCH.json lacks its {key} section");
        }
    }

    #[test]
    fn sections_merge_in_any_order() {
        let committed = json::parse(&committed_bench()).unwrap();
        let section = |key: &str| committed.get(key).unwrap().clone();
        let base = run(&tiny_config(), &mut |_| {}).to_json();
        let keys: Vec<&str> = SECTIONS.iter().map(|(key, _)| *key).collect();
        let merge_all = |order: &[&str]| {
            order.iter().fold(base.clone(), |doc, key| {
                merge_section(&doc, key, section(key)).unwrap_or_else(|e| panic!("{key}: {e:?}"))
            })
        };
        let reversed: Vec<&str> = keys.iter().rev().copied().collect();
        for merged in [merge_all(&keys), merge_all(&reversed)] {
            validate(&merged).expect("merged document validates");
            let doc = json::parse(&merged).unwrap();
            assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some(SCHEMA));
            for key in &keys {
                assert_eq!(doc.get(key), committed.get(key), "{key} changed in the merge");
            }
        }

        // A schema-less document refuses the merge, and so does a
        // damaged section.
        assert!(merge_section("{}", "tune", section("tune")).is_err());
        let mut serve = section("serve");
        serve.set("runs", json::Value::Arr(Vec::new()));
        assert!(merge_section(&base, "serve", serve).is_err());
    }

    #[test]
    fn earlier_schema_levels_are_rejected() {
        let text = committed_bench();
        for level in 1..=7 {
            let old = text.replace(SCHEMA, &format!("cc-bench-throughput/{level}"));
            assert!(validate(&old).is_err(), "/{level} must be rejected");
        }
    }
}
