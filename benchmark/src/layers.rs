//! Per-layer measurements shared by the workloads: the cc-codecs
//! round-trip rates, the cc-serve split of stitched request traces, and
//! the list of every per-layer metric name so each traced run prints all
//! of them (a layer that does no work on a workload reads 0).

use crate::common::{mean, percentile, ratio, sorted, Report};
use cc_codecs::chunked::{compress_chunked, decompress_chunked};
use cc_codecs::{Layout, Variant};
use cc_obs::SpanNode;
use std::collections::BTreeMap;
use std::time::Instant;

/// Codec variants whose rates the traced run reports.
pub const CODEC_VARIANTS: [&str; 7] = [
    "SZ-rel-1e-3",
    "SZ-rel-1e-4",
    "fpzip-24",
    "GRIB2",
    "APAX-4",
    "ISA-0.5",
    "NetCDF-4",
];

/// Wire operations whose server-side split the traced run reports, as
/// (metric label, opcode name in the `client.req.*` span).
pub const SERVE_OPS: [(&str, &str); 2] = [
    ("fetch_slice", "fetch-slice"),
    ("archive_put", "archive-put"),
];

/// Position of `compute` in [`SERVE_PARTS`].
const COMPUTE: usize = 2;

/// Parts of one request: the `srv.*` spans plus the client-side rest.
pub const SERVE_PARTS: [(&str, &str); 5] = [
    ("decode", "srv.decode"),
    ("queue", "srv.queue"),
    ("compute", "srv.compute"),
    ("reply", "srv.reply.enqueue"),
    ("wire", ""),
];

/// Minimum timed wall per codec direction, so each rate averages over
/// several passes.
const CODEC_MIN_SECS: f64 = 0.04;

/// Every per-layer metric as (name, unit), in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("core.context_build_ms".into(), "ms"),
        ("core.tune_variable_ms".into(), "ms"),
        ("core.candidates".into(), "count"),
        ("core.passing_share".into(), "share"),
        ("model.synth_ms".into(), "ms"),
        ("model.synth_members_per_s".into(), "1/s"),
        ("pvt.ensemble_stats_ms".into(), "ms"),
        ("pvt.tests_ms".into(), "ms"),
        ("metrics.compare_ms".into(), "ms"),
    ];
    for v in CODEC_VARIANTS {
        out.push((format!("codecs.{v}.encode_mb_s"), "MB/s"));
        out.push((format!("codecs.{v}.decode_mb_s"), "MB/s"));
        out.push((format!("codecs.{v}.ratio"), "ratio"));
    }
    out.extend([
        ("lossless.deflate_encode_self_ms".into(), "ms"),
        ("lossless.deflate_decode_self_ms".into(), "ms"),
        ("par.task_queue_ns_mean".into(), "ns"),
        ("par.busy_share".into(), "share"),
        ("archive.open_us".into(), "us"),
        ("archive.keyframe_decode_us".into(), "us"),
        ("archive.delta_replay_us".into(), "us"),
        ("archive.copy_us".into(), "us"),
        ("archive.bytes_read_per_slice".into(), "bytes"),
        ("archive.frames_per_slice".into(), "count"),
        ("archive.useful_share".into(), "share"),
        ("archive.encode_ms".into(), "ms"),
    ]);
    for (op, _) in SERVE_OPS {
        for (part, _) in SERVE_PARTS {
            out.push((format!("serve.{op}.{part}_p50_us"), "us"));
            out.push((format!("serve.{op}.{part}_p99_us"), "us"));
        }
    }
    out.extend([
        ("serve.busy_per_req".into(), "count"),
        ("serve.queue_full_retry_per_req".into(), "count"),
        ("serve.stream_frames_per_req".into(), "count"),
        ("archive.overlap_errors_per_fetch".into(), "count"),
        ("wall.ops_per_s".into(), "1/s"),
        ("wall.op_p50_ms".into(), "ms"),
        ("wall.op_tail_ms".into(), "ms"),
        ("traced.cpu_p50_ms".into(), "ms"),
        ("trace.overhead_ms".into(), "ms"),
        ("unattributed_ms".into(), "ms"),
    ]);
    out
}

/// Replace the report's metrics by the full per-layer list: measured
/// values where `layer` has them, 0 for layers this workload does not
/// exercise.
pub fn emit_per_layer(report: &mut Report, layer: &BTreeMap<String, f64>) {
    report.metrics.clear();
    for (name, unit) in per_layer_names() {
        let v = layer.get(&name).copied().unwrap_or(0.0);
        report.metric(name, v, unit);
    }
}

/// What the caller waited in the untraced pass, in wall time: operations
/// per second over `wall_s`, and the median and `tail_q` percentile of
/// `op_ms`. These move with the host's other tenants, so they are
/// reported beside the layers and not gated.
pub fn wall_figures(layer: &mut BTreeMap<String, f64>, op_ms: &[f64], wall_s: f64, tail_q: f64) {
    let s = sorted(op_ms.to_vec());
    layer.insert("wall.ops_per_s".into(), ratio(s.len() as f64, wall_s));
    layer.insert("wall.op_p50_ms".into(), percentile(&s, 0.5));
    layer.insert("wall.op_tail_ms".into(), percentile(&s, tail_q));
}

/// Round-trip every [`CODEC_VARIANTS`] entry through the chunked
/// pipeline at one worker over `fields`, recording encode and decode
/// MB/s (raw bytes) and the exact ratio. Returns false when a decode
/// failed or a lossless variant did not round-trip exactly.
pub fn codec_rates(
    fields: &[(&[f32], Layout)],
    layer: &mut BTreeMap<String, f64>,
    report: &mut Report,
) -> bool {
    let spans_were = cc_obs::spans_enabled();
    cc_obs::set_spans_enabled(false);
    let raw: usize = fields.iter().map(|(d, _)| d.len() * 4).sum();
    let mut ok = true;
    for name in CODEC_VARIANTS {
        let variant = Variant::by_name(name).expect("benchmark variant names resolve");
        let codec = variant.codec();
        let mut streams = Vec::new();
        let t0 = Instant::now();
        let mut passes = 0usize;
        while passes == 0 || t0.elapsed().as_secs_f64() < CODEC_MIN_SECS {
            streams = fields
                .iter()
                .map(|(d, l)| std::hint::black_box(compress_chunked(codec.as_ref(), d, *l, 1)))
                .collect();
            passes += 1;
        }
        let enc_s = t0.elapsed().as_secs_f64();
        let bytes: usize = streams.iter().map(Vec::len).sum();
        let t1 = Instant::now();
        let mut dpasses = 0usize;
        while dpasses == 0 || t1.elapsed().as_secs_f64() < CODEC_MIN_SECS {
            for ((d, l), s) in fields.iter().zip(&streams) {
                match decompress_chunked(codec.as_ref(), s, *l, 1) {
                    Ok(r) => {
                        if r.len() != d.len()
                            || (variant.is_lossless()
                                && r.iter()
                                    .zip(d.iter())
                                    .any(|(a, b)| a.to_bits() != b.to_bits()))
                        {
                            ok = false;
                        }
                        std::hint::black_box(r);
                    }
                    Err(_) => ok = false,
                }
            }
            dpasses += 1;
        }
        let dec_s = t1.elapsed().as_secs_f64();
        let mb = raw as f64 / 1e6;
        layer.insert(
            format!("codecs.{name}.encode_mb_s"),
            mb * passes as f64 / enc_s,
        );
        layer.insert(
            format!("codecs.{name}.decode_mb_s"),
            mb * dpasses as f64 / dec_s,
        );
        let r = bytes as f64 / raw as f64;
        layer.insert(format!("codecs.{name}.ratio"), r);
        report.exact(format!("codecs.{name}.ratio"), format!("{r:?}"));
    }
    cc_obs::set_spans_enabled(spans_were);
    ok
}

/// Per-request parts of stitched `client.req.<op>` spans, in µs.
#[derive(Debug, Default)]
pub struct RequestParts {
    /// Client-observed total, send to last byte.
    pub total: Vec<f64>,
    /// One sample list per [`SERVE_PARTS`] entry.
    pub parts: [Vec<f64>; 5],
}

/// Split every traced request in `roots` by opcode name: the server's
/// `srv.*` children of its grafted `srv.request`, and the wire rest
/// (client total minus `srv.request`). Requests whose telemetry frame
/// was missing are skipped.
pub fn request_parts(roots: &[SpanNode]) -> BTreeMap<String, RequestParts> {
    let mut out: BTreeMap<String, RequestParts> = BTreeMap::new();
    fn walk(n: &SpanNode, out: &mut BTreeMap<String, RequestParts>) {
        if let Some(op) = n.name.strip_prefix("client.req.") {
            if let Some(srv) = n.children.iter().find(|c| c.name == "srv.request") {
                let e = out.entry(op.to_string()).or_default();
                e.total.push(n.dur_ns as f64 / 1e3);
                for (i, (_, span)) in SERVE_PARTS.iter().enumerate() {
                    let us = if span.is_empty() {
                        n.dur_ns.saturating_sub(srv.dur_ns) as f64 / 1e3
                    } else {
                        srv.children
                            .iter()
                            .filter(|c| c.name == *span)
                            .map(|c| c.dur_ns as f64 / 1e3)
                            .sum()
                    };
                    e.parts[i].push(us);
                }
            }
            return;
        }
        for c in &n.children {
            walk(c, out);
        }
    }
    for r in roots {
        walk(r, &mut out);
    }
    out
}

/// Record the p50/p99 of every part for every op present in `parts`;
/// returns the mean client total minus the mean of every part except
/// compute, per op (what the compute layers must explain).
pub fn record_request_parts(
    parts: &BTreeMap<String, RequestParts>,
    layer: &mut BTreeMap<String, f64>,
    report: &mut Report,
) -> BTreeMap<String, f64> {
    let mut compute_us = BTreeMap::new();
    for (label, wire_name) in SERVE_OPS {
        let Some(p) = parts.get(wire_name) else {
            continue;
        };
        report.env(format!("traced_{label}_requests"), p.total.len());
        for (i, (part, _)) in SERVE_PARTS.iter().enumerate() {
            let s = sorted(p.parts[i].clone());
            layer.insert(format!("serve.{label}.{part}_p50_us"), percentile(&s, 0.5));
            layer.insert(format!("serve.{label}.{part}_p99_us"), percentile(&s, 0.99));
        }
        let rest: f64 = (0..SERVE_PARTS.len())
            .filter(|&i| i != COMPUTE)
            .map(|i| mean(&p.parts[i]))
            .sum();
        compute_us.insert(label.to_string(), (mean(&p.total) - rest).max(0.0));
    }
    compute_us
}

/// Per-request server counters over a traced pass.
pub fn serve_counters(
    before: &cc_obs::MetricsSnapshot,
    after: &cc_obs::MetricsSnapshot,
    layer: &mut BTreeMap<String, f64>,
) {
    use crate::common::counter_delta;
    let reqs = counter_delta(before, after, "serve.requests") as f64;
    for (metric, counter) in [
        ("serve.busy_per_req", "serve.busy"),
        ("serve.queue_full_retry_per_req", "serve.queue_full_retry"),
        ("serve.stream_frames_per_req", "serve.stream.frames"),
    ] {
        layer.insert(
            metric.into(),
            ratio(counter_delta(before, after, counter) as f64, reqs),
        );
    }
}
