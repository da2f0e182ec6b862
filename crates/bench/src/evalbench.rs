//! `repro eval-bench`: the verification-engine throughput artifact.
//!
//! Runs the auto-tuner over the focus variables through the pipelined
//! driver (`Evaluation::map_contexts` + the batched candidate sweep)
//! with span recording forced on, and distills the trace into an `eval`
//! JSON section: member-synthesis and verdict rates, per-variable tune
//! wall time, and the per-stage self-time profile. `repro eval-bench`
//! sets the section on an existing `BENCH.json` document through
//! [`crate::throughput::merge_section`].
//!
//! Unlike the `tune` section, the rates here are wall-clock measurements
//! and vary run to run — `bench-check --against` holds them to the same
//! tolerance floor as the codec throughput comparison.

use cc_core::evaluation::Evaluation;
use cc_core::tuning::{tune_variable, TuneReport};
use cc_obs::json::{self, Value};
use cc_obs::trace::TraceReport;
use std::time::Instant;

/// Per-stage self-time row, aggregated from the run's span tree.
#[derive(Debug, Clone)]
pub struct EvalStage {
    /// Span name (`eval.member_synth`, `eval.sample`, ...).
    pub name: String,
    /// Number of spans recorded under this name.
    pub calls: u64,
    /// Summed self time (wall minus direct children), in milliseconds.
    pub self_ms: f64,
}

/// Per-variable tuning wall time.
#[derive(Debug, Clone)]
pub struct EvalVariable {
    /// Variable name.
    pub name: String,
    /// Wall-clock seconds spent scoring this variable's candidate space
    /// (context build overlaps the previous variable and is excluded).
    pub tune_wall_s: f64,
}

/// Everything `repro eval-bench` measured, ready to land in `BENCH.json`.
#[derive(Debug, Clone)]
pub struct EvalArtifact {
    /// Preset label ("quick", "default", ...).
    pub preset: String,
    /// Worker-pool width the sweep ran at.
    pub workers: usize,
    /// Ensemble size.
    pub members: usize,
    /// Members synthesized per second of synthesis CPU time (span
    /// self-time, so the rate is comparable across worker counts).
    pub synth_members_per_s: f64,
    /// Candidate verdicts produced per wall-clock second.
    pub verdicts_per_s: f64,
    /// Total wall-clock seconds for the whole tuning sweep, context
    /// builds included.
    pub tune_wall_s: f64,
    /// Per-variable wall times, in sweep order.
    pub variables: Vec<EvalVariable>,
    /// Per-stage self-time profile, largest first.
    pub stages: Vec<EvalStage>,
    /// The tune report the measurement produced (for printing; not part
    /// of the JSON section).
    pub report: TuneReport,
}

/// Run the tuning sweep over `vars` with spans forced on and distill the
/// timings. The sweep runs on a scoped helper thread so its spans land
/// as that thread's roots even when the caller holds an open span (e.g.
/// `repro --trace` wraps experiments in `exp.*`).
pub fn run(eval: &Evaluation, vars: &[usize], preset: &str) -> EvalArtifact {
    let spans_were = cc_obs::spans_enabled();
    cc_obs::set_spans_enabled(true);
    let (tuned, walls, total_wall, spans) = std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            let tuned = eval.map_contexts(vars, |ctx| {
                let v0 = Instant::now();
                let tv = tune_variable(ctx);
                (tv, v0.elapsed().as_secs_f64())
            });
            let total = t0.elapsed().as_secs_f64();
            let (tuned, walls): (Vec<_>, Vec<_>) = tuned.into_iter().unzip();
            (tuned, walls, total, cc_obs::take_local_roots())
        })
        .join()
        .expect("eval-bench sweep thread")
    });
    cc_obs::set_spans_enabled(spans_were);

    let report = TraceReport { spans, metrics: Default::default() };
    let mut stages: Vec<EvalStage> = report
        .summary()
        .into_iter()
        .map(|s| EvalStage {
            name: s.name,
            calls: s.calls,
            self_ms: s.self_ns as f64 / 1e6,
        })
        .collect();
    stages.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(&b.name)));
    // Read the synthesis rate before truncating: on a small sweep member
    // synthesis can rank below the sixteen largest stages.
    let synth = stages.iter().find(|s| s.name == "eval.member_synth");
    let synth_members_per_s = synth
        .filter(|s| s.self_ms > 0.0)
        .map(|s| s.calls as f64 / (s.self_ms / 1e3))
        .unwrap_or(0.0);
    stages.truncate(16);
    let verdicts: usize = tuned.iter().map(|t| t.candidates).sum();
    let verdicts_per_s =
        if total_wall > 0.0 { verdicts as f64 / total_wall } else { 0.0 };

    let variables = tuned
        .iter()
        .zip(&walls)
        .map(|(t, &w)| EvalVariable { name: t.name.clone(), tune_wall_s: w.max(1e-9) })
        .collect();
    EvalArtifact {
        preset: preset.to_string(),
        workers: eval.config.workers,
        members: eval.config.members,
        synth_members_per_s,
        verdicts_per_s,
        tune_wall_s: total_wall.max(1e-9),
        variables,
        stages,
        report: TuneReport { variables: tuned },
    }
}

impl EvalArtifact {
    /// The `eval` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"tune_wall_s\": {:.6}}}",
                    json::escape(&v.name),
                    v.tune_wall_s
                )
            })
            .collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"calls\": {}, \"self_ms\": {:.3}}}",
                    json::escape(&s.name),
                    s.calls,
                    s.self_ms
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"workers\": {}, \"members\": {}, \
             \"synth_members_per_s\": {:.3}, \"verdicts_per_s\": {:.3}, \
             \"tune_wall_s\": {:.6}, \"variables\": [{}], \"stages\": [{}]}}",
            json::escape(&self.preset),
            self.workers,
            self.members,
            self.synth_members_per_s,
            self.verdicts_per_s,
            self.tune_wall_s,
            vars.join(", "),
            stages.join(", ")
        );
        json::parse(&text).expect("eval section serializes to valid JSON")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::evaluation::EvalConfig;
    use cc_grid::Resolution;
    use cc_model::Model;

    /// `run` flips the process-wide span gate and restores it on return,
    /// so two overlapping calls would switch spans off under each other's
    /// sweeps. The tests here take turns.
    static SPAN_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn run_quick(eval: &Evaluation, vars: &[usize]) -> EvalArtifact {
        let _gate = SPAN_GATE.lock().unwrap_or_else(|p| p.into_inner());
        run(eval, vars, "quick")
    }

    fn tiny_artifact() -> EvalArtifact {
        let model = Model::new(Resolution::reduced(2, 2), 13);
        let eval = Evaluation::new(model, EvalConfig::quick(9));
        let vars = vec![eval.model.var_id("U").unwrap()];
        run_quick(&eval, &vars)
    }

    #[test]
    fn eval_section_merges_into_bench() {
        let artifact = tiny_artifact();
        assert!(artifact.synth_members_per_s > 0.0, "no synthesis rate measured");
        assert!(artifact.verdicts_per_s > 0.0);
        assert_eq!(artifact.variables.len(), 1);
        assert!(
            artifact.stages.iter().any(|s| s.name == "eval.sample"),
            "stage profile missing eval.sample: {:?}",
            artifact.stages
        );

        let base = crate::throughput::run(
            &crate::throughput::BenchConfig {
                npts: 2_048,
                nlev: 1,
                worker_counts: vec![1, 2],
                reps: 1,
                preset: "quick".into(),
            },
            &mut |_| {},
        );
        let merged = crate::throughput::merge_section(&base.to_json(), "eval", artifact.to_value())
            .expect("merge");
        let doc = json::parse(&merged).unwrap();
        let stages = doc
            .get("eval")
            .and_then(|e| e.get("stages"))
            .and_then(Value::as_array)
            .expect("eval.stages");
        assert!(!stages.is_empty());
    }

    #[test]
    fn eval_compare_flags_regressions() {
        let artifact = tiny_artifact();
        let base = crate::throughput::run(
            &crate::throughput::BenchConfig {
                npts: 2_048,
                nlev: 1,
                worker_counts: vec![1, 2],
                reps: 1,
                preset: "quick".into(),
            },
            &mut |_| {},
        );
        let merged = crate::throughput::merge_section(&base.to_json(), "eval", artifact.to_value())
            .expect("merge");
        // Same document on both sides: everything passes.
        let rows = crate::throughput::compare_eval(&merged, &merged, 0.25)
            .expect("both documents carry eval sections");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.pass));
        let (_, fails) = crate::throughput::render_eval_compare(&rows);
        assert_eq!(fails, 0);

        // A baseline with 10x our rates fails both.
        let mut doc = json::parse(&merged).unwrap();
        let mut eval_sec = doc.get("eval").unwrap().clone();
        for key in ["synth_members_per_s", "verdicts_per_s"] {
            let v = eval_sec.get(key).and_then(Value::as_f64).unwrap();
            eval_sec.set(key, Value::Num(v * 10.0));
        }
        doc.set("eval", eval_sec);
        let inflated = doc.to_json();
        let rows = crate::throughput::compare_eval(&merged, &inflated, 0.25).unwrap();
        assert!(rows.iter().all(|r| !r.pass));
        let (table, fails) = crate::throughput::render_eval_compare(&rows);
        assert_eq!(fails, 2);
        assert!(table.contains("REGRESSED"));

        // No eval section on one side: no comparison.
        assert!(crate::throughput::compare_eval(&merged, &base.to_json(), 0.25).is_none());
    }
}
