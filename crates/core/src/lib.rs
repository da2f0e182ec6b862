//! The paper's primary contribution: a verification methodology deciding
//! whether lossily-compressed climate data is statistically
//! indistinguishable from the original.
//!
//! * [`evaluation`] — builds per-variable ensemble contexts and scores any
//!   codec variant with the four acceptance tests (Pearson ρ, RMSZ
//!   ensemble, E_nmax ensemble, bias regression) of Section 4.
//! * [`hybrid`] — the Section-5.4 per-variable customization: walk each
//!   method family's variant ladder to the best-compressing variant that
//!   passes all four tests (Tables 7 and 8).
//! * [`tuning`] — the RMSZ-ensemble-guided GRIB2 decimal-scale search and
//!   the generalized (family × parameter) auto-tuner it grew into.
//! * [`energy`] — the global energy-budget drift check named as future
//!   work in the paper's conclusions.
//! * [`report`] — text/CSV rendering of every table and figure.
//! * [`cli`] — the flag dialect shared by the `ccc` and `repro`
//!   binaries (`--flag value` parsing, `--workers`, the `--trace` /
//!   `--metrics` / `--quiet` observability bracket).
//!
//! ```no_run
//! use cc_core::evaluation::{EvalConfig, Evaluation, verdict_for};
//! use cc_model::Model;
//! use cc_grid::Resolution;
//! use cc_codecs::Variant;
//!
//! let model = Model::new(Resolution::default(), 42);
//! let eval = Evaluation::new(model, EvalConfig::default());
//! let ctx = eval.context(eval.model.var_id("U").unwrap());
//! let verdict = verdict_for(&ctx, Variant::Fpzip { bits: 24 });
//! println!("fpzip-24 on U: all tests pass = {}", verdict.all_pass());
//! ```

pub mod calibration;
pub mod cli;
pub mod diagnostics;
pub mod energy;
pub mod evaluation;
pub mod hybrid;
pub mod port;
pub mod report;
pub mod timeseries;
pub mod tuning;
pub mod visual;

pub use evaluation::{
    verdict_for, verdicts_for, EvalConfig, Evaluation, TestTally, VariableContext,
    VariableVerdict,
};
pub use hybrid::{build_hybrid, build_nc_baseline, HybridChoice, HybridResult};
pub use tuning::{
    candidate_space, tune_decimal_scale, tune_variable, TuneReport, TunedD, TunedVariable,
};
