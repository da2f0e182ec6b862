//! `repro archive-bench`: the temporal-archive artifact.
//!
//! Archives a correlated model run per focus variable (keyframes +
//! error-bounded delta frames) and measures what the paper's
//! per-timestep workflow cannot see: the compression won by exploiting
//! temporal correlation (archive CR vs compressing every timestep
//! independently with the same codec and bound) and the random-access
//! cost of the footer index (p50/p99 slice-fetch latency over seeded
//! random (timestep, level) picks at 100+ timesteps).
//!
//! The results serialize to an `archive` JSON section, which `repro
//! archive-bench` sets on an existing `BENCH.json` document through
//! [`crate::throughput::merge_section`] — the same artifact plumbing
//! `serve_bench`, `tune`, and `evalbench` use.

use cc_archive::{ArchiveOptions, ArchiveReader, ArchiveWriter};
use cc_codecs::chunked::compress_chunked;
use cc_codecs::sz::ErrorBound;
use cc_codecs::{Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_obs::json::{self, Value};
use std::time::Instant;

/// Archive-bench configuration.
#[derive(Debug, Clone)]
pub struct ArchiveBenchConfig {
    /// Grid resolution of the synthetic run.
    pub resolution: Resolution,
    /// Model seed.
    pub seed: u64,
    /// Timesteps in the run (the acceptance floor is 100).
    pub timesteps: usize,
    /// Trajectory interval — small keeps adjacent steps correlated.
    pub interval: f64,
    /// Keyframe interval used for every variable.
    pub keyframe_every: usize,
    /// Random slice fetches per variable for the latency percentiles.
    pub fetches: usize,
    /// Variables to archive.
    pub variables: Vec<String>,
    /// Preset label recorded in the artifact.
    pub preset: String,
}

impl ArchiveBenchConfig {
    /// Default scale: two focus variables, 120 timesteps.
    pub fn default_scale() -> Self {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(3, 4),
            seed: 2014,
            timesteps: 120,
            interval: 0.02,
            keyframe_every: 16,
            fetches: 200,
            variables: vec!["U".into(), "FSDSC".into()],
            preset: "default".into(),
        }
    }

    /// Smoke scale for CI: the 100-timestep acceptance floor on the
    /// smallest grid.
    pub fn quick() -> Self {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(2, 3),
            seed: 2014,
            timesteps: 100,
            interval: 0.02,
            keyframe_every: 16,
            fetches: 64,
            variables: vec!["U".into(), "FSDSC".into()],
            preset: "quick".into(),
        }
    }
}

/// Per-variable archive results.
#[derive(Debug, Clone)]
pub struct ArchiveVarBench {
    /// Variable name.
    pub name: String,
    /// Keyframe codec name.
    pub codec: String,
    /// Timesteps archived.
    pub frames: usize,
    /// Raw f32 bytes across the run.
    pub raw_bytes: u64,
    /// This variable's frame bytes inside the archive.
    pub archive_bytes: u64,
    /// Bytes when every timestep compresses independently with the same
    /// codec (the paper's per-timestep workflow).
    pub per_timestep_bytes: u64,
    /// `archive_bytes / raw_bytes` (smaller is better).
    pub archive_cr: f64,
    /// `per_timestep_bytes / raw_bytes`.
    pub per_timestep_cr: f64,
    /// Random slice fetch latency, median, microseconds.
    pub slice_p50_us: u64,
    /// Random slice fetch latency, 99th percentile, microseconds.
    pub slice_p99_us: u64,
}

/// A full archive-bench run.
#[derive(Debug, Clone)]
pub struct ArchiveBenchArtifact {
    /// Configuration used.
    pub config: ArchiveBenchConfig,
    /// Per-variable results.
    pub variables: Vec<ArchiveVarBench>,
}

/// Run the archive benchmark. `progress` receives one line per variable.
pub fn run(config: &ArchiveBenchConfig, progress: &mut dyn FnMut(&str)) -> ArchiveBenchArtifact {
    let model = Model::new(config.resolution, config.seed);
    let trajectory = model.trajectory(0, config.timesteps, config.interval);
    let bound = ErrorBound::Rel(1e-4);
    let variant = Variant::Sz { bound };
    let codec = variant.codec();
    let mut variables = Vec::new();
    for name in &config.variables {
        let id = model.var_id(name).unwrap_or_else(|| panic!("unknown variable {name}"));
        let layout = Layout::for_grid(model.grid(), model.var_nlev(id));
        progress(&format!(
            "archiving {name}: {} timesteps x {} elements (keyframe every {})",
            config.timesteps,
            layout.len(),
            config.keyframe_every
        ));
        let frames: Vec<Vec<f32>> =
            trajectory.iter().map(|m| model.synthesize(m, id).data).collect();
        let raw_bytes = (frames.len() * layout.len() * 4) as u64;

        // The per-timestep baseline: every frame compressed
        // independently with the same codec and bound.
        let per_timestep_bytes: u64 = frames
            .iter()
            .map(|f| compress_chunked(codec.as_ref(), f, layout, 1).len() as u64)
            .sum();

        let opts = ArchiveOptions::new(variant)
            .with_bound(bound)
            .with_keyframe_every(config.keyframe_every);
        let mut w = ArchiveWriter::new();
        let summary = w.add_variable(name, layout, &frames, &opts).expect("clean run archives");
        let bytes = w.finish();

        // Random-access latency over seeded (timestep, level) picks.
        let mut reader = ArchiveReader::open(bytes.as_slice()).expect("own archive opens");
        let mut rng = crate::faults::SplitMix64::new(config.seed ^ 0xA2C4_1BE5);
        let mut lat_us: Vec<u64> = Vec::with_capacity(config.fetches);
        for _ in 0..config.fetches {
            let t = rng.below(frames.len());
            let lev = rng.below(layout.nlev);
            let t0 = Instant::now();
            let slice = reader.fetch_slice(name, t, lev).expect("in-range fetch");
            lat_us.push(t0.elapsed().as_micros() as u64);
            assert_eq!(slice.len(), layout.npts);
        }
        lat_us.sort_unstable();
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];

        variables.push(ArchiveVarBench {
            name: name.clone(),
            codec: variant.name(),
            frames: frames.len(),
            raw_bytes,
            archive_bytes: summary.bytes,
            per_timestep_bytes,
            archive_cr: summary.bytes as f64 / raw_bytes as f64,
            per_timestep_cr: per_timestep_bytes as f64 / raw_bytes as f64,
            slice_p50_us: pct(0.50),
            slice_p99_us: pct(0.99),
        });
    }
    ArchiveBenchArtifact { config: config.clone(), variables }
}

impl ArchiveBenchArtifact {
    /// The `archive` section as a JSON value.
    pub fn to_value(&self) -> Value {
        let vars: Vec<String> = self
            .variables
            .iter()
            .map(|v| {
                format!(
                    "{{\"name\": \"{}\", \"codec\": \"{}\", \"frames\": {}, \
                     \"raw_bytes\": {}, \"archive_bytes\": {}, \"per_timestep_bytes\": {}, \
                     \"archive_cr\": {:.6}, \"per_timestep_cr\": {:.6}, \
                     \"slice_p50_us\": {}, \"slice_p99_us\": {}}}",
                    json::escape(&v.name),
                    json::escape(&v.codec),
                    v.frames,
                    v.raw_bytes,
                    v.archive_bytes,
                    v.per_timestep_bytes,
                    v.archive_cr,
                    v.per_timestep_cr,
                    v.slice_p50_us,
                    v.slice_p99_us
                )
            })
            .collect();
        let text = format!(
            "{{\"preset\": \"{}\", \"timesteps\": {}, \"keyframe_every\": {}, \
             \"fetches\": {}, \"variables\": [{}]}}",
            json::escape(&self.config.preset),
            self.config.timesteps,
            self.config.keyframe_every,
            self.config.fetches,
            vars.join(", ")
        );
        json::parse(&text).expect("archive section serializes to valid JSON")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ArchiveBenchConfig {
        ArchiveBenchConfig {
            resolution: Resolution::reduced(2, 2),
            seed: 7,
            timesteps: 40,
            interval: 0.02,
            keyframe_every: 8,
            fetches: 16,
            variables: vec!["U".into()],
            preset: "quick".into(),
        }
    }

    #[test]
    fn temporal_archive_beats_per_timestep_on_correlated_run() {
        let artifact = run(&tiny_config(), &mut |_| {});
        let v = &artifact.variables[0];
        assert!(
            v.archive_bytes < v.per_timestep_bytes,
            "archive {} bytes must beat per-timestep {} bytes",
            v.archive_bytes,
            v.per_timestep_bytes
        );
        assert!(v.archive_cr < v.per_timestep_cr);
        assert!(v.slice_p50_us <= v.slice_p99_us);
    }

    #[test]
    fn archive_section_merges_into_bench() {
        let artifact = run(&tiny_config(), &mut |_| {});
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
        let merged =
            crate::throughput::merge_section(&base.to_json(), "archive", artifact.to_value())
                .expect("merge");
        let doc = json::parse(&merged).unwrap();
        let vars = doc
            .get("archive")
            .and_then(|a| a.get("variables"))
            .and_then(Value::as_array)
            .expect("archive.variables");
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].get("name").and_then(Value::as_str), Some("U"));
    }

    #[test]
    fn archive_section_escapes_names() {
        let name = r#"U "hi" \ lo"#;
        let artifact = ArchiveBenchArtifact {
            config: ArchiveBenchConfig { preset: r#"q"\"#.into(), ..tiny_config() },
            variables: vec![ArchiveVarBench {
                name: name.into(),
                codec: r#"SZ "rel" \ 1e-4"#.into(),
                frames: 1,
                raw_bytes: 8,
                archive_bytes: 4,
                per_timestep_bytes: 6,
                archive_cr: 0.5,
                per_timestep_cr: 0.75,
                slice_p50_us: 1,
                slice_p99_us: 2,
            }],
        };
        let section = artifact.to_value();
        let var = &section.get("variables").and_then(Value::as_array).expect("variables")[0];
        assert_eq!(var.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(var.get("codec").and_then(Value::as_str), Some(r#"SZ "rel" \ 1e-4"#));
        assert_eq!(section.get("preset").and_then(Value::as_str), Some(r#"q"\"#));
    }
}
