//! `repro tune`: the per-variable auto-tuning artifact.
//!
//! Wraps [`cc_core::TuneReport`] — the generalized enumerate-filter-
//! minimize search over the (family × parameter) candidate space — in the
//! same artifact plumbing `serve_bench` uses: serialize the outcomes to a
//! `tune` JSON section, which `repro tune` sets on an existing
//! `BENCH.json` document through [`crate::throughput::merge_section`].
//!
//! The section is deterministic by construction: the tuner's candidate
//! order is fixed, CRs come from worker-count-independent chunked
//! streams, and no timestamps are recorded — two runs at any worker
//! count produce byte-identical sections.

use cc_core::TuneReport;
use cc_obs::json::{self, Value};

/// A tune report plus the preset it was produced under, ready to land in
/// `BENCH.json`.
#[derive(Debug, Clone)]
pub struct TuneArtifact {
    /// Preset label ("quick", "default", ...).
    pub preset: String,
    /// The per-variable tuning outcomes.
    pub report: TuneReport,
}

impl TuneArtifact {
    /// The `tune` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .report
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"chosen\": \"{}\", \"cr\": {:.6}, \"passes\": {}, \
                     \"hybrid\": \"{}\", \"hybrid_cr\": {:.6}, \"candidates\": {}, \
                     \"passing\": {}}}",
                    json::escape(&v.name),
                    json::escape(&v.chosen.name()),
                    v.verdict.cr,
                    v.verdict.all_pass(),
                    json::escape(&v.hybrid_variant.name()),
                    v.hybrid_cr,
                    v.candidates,
                    v.passing
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"variables\": [{}]}}",
            json::escape(&self.preset),
            vars.join(", ")
        );
        json::parse(&text).expect("tune section serializes to valid JSON")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::evaluation::EvalConfig;
    use cc_core::Evaluation;
    use cc_grid::Resolution;
    use cc_model::Model;

    fn tiny_report() -> TuneReport {
        let model = Model::new(Resolution::reduced(2, 2), 13);
        let eval = Evaluation::new(model, EvalConfig::quick(9));
        let vars = vec![eval.model.var_id("U").unwrap()];
        TuneReport::build(&eval, &vars)
    }

    #[test]
    fn tune_section_merges_into_bench() {
        let report = tiny_report();
        let artifact = TuneArtifact { preset: "quick".into(), report };

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
        let merged = crate::throughput::merge_section(&base.to_json(), "tune", artifact.to_value())
            .expect("merge");
        let doc = json::parse(&merged).unwrap();
        let vars = doc
            .get("tune")
            .and_then(|t| t.get("variables"))
            .and_then(Value::as_array)
            .expect("tune.variables");
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].get("name").and_then(Value::as_str), Some("U"));
        assert_eq!(vars[0].get("passes"), Some(&Value::Bool(true)));
    }

    #[test]
    fn tune_section_is_deterministic() {
        let a = TuneArtifact { preset: "quick".into(), report: tiny_report() };
        let b = TuneArtifact { preset: "quick".into(), report: tiny_report() };
        assert_eq!(a.to_value().to_json(), b.to_value().to_json());
    }
}
