//! Shared plumbing: run options, the result record, exact percentiles,
//! a seeded generator, the CPU clock, working memory, and the set-up
//! repetition rule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How large the generated inputs are. `Full` is what the benchmark
/// command runs; `Small` keeps the repeat tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own input sizes.
    Full,
    /// Reduced sizes for the package's tests.
    Small,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured wall seconds (set-up and replays excluded).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl RunOpts {
    /// Load threads, connections, server and evaluation workers: all
    /// pinned to the machine's available parallelism.
    pub fn threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: a typed error or a wrong result.
    pub failed: u64,
    /// Operations whose reply was wrong (a subset of `failed`), and
    /// invariant checks that did not hold. Any of these makes the run
    /// incorrect.
    pub wrong: u64,
    /// Metrics, in print order: (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Environment and sample-count record.
    pub env: Vec<(String, String)>,
    /// Exact values the repeat test compares between runs of one seed.
    pub exact: Vec<(String, String)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record an environment entry.
    pub fn env(&mut self, key: impl Into<String>, value: impl ToString) {
        self.env.push((key.into(), value.to_string()));
    }

    /// Record a value that must repeat exactly for a given seed.
    pub fn exact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.exact.push((key.into(), value.to_string()));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Count one operation's outcome.
    pub fn outcome(&mut self, ok: bool, wrong: bool) {
        self.attempted += 1;
        if !ok || wrong {
            self.failed += 1;
        }
        if wrong {
            self.wrong += 1;
        }
    }

    /// True when no reply was wrong and every invariant held.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The environment line printed before the result.
    pub fn env_line(&self) -> String {
        let fields: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
            .collect();
        format!("{{\"env\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number with all its digits (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Exact percentile of a sample set by linear interpolation between
/// closest ranks (NumPy's default). Returns 0 for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample set for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample set.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Mean of a sample set (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seeded splitmix64 generator: the only source of input randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Model seed for a benchmark seed: the benchmark seed picks the
/// ensemble, the model sees only the derived value.
pub fn model_seed(seed: u64) -> u64 {
    Rng::new(seed, 0x006D_6F64_656C).next_u64() >> 16
}

/// The system allocator with a live-byte count and its high-water mark.
/// Heap bytes, unlike the resident set, do not depend on how the
/// allocator's per-thread arenas happened to fill.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Live bytes when the measured pass began: the benchmark's own inputs
/// and reference copies, which the working-memory figure leaves out.
static BASELINE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Start measuring working memory: the live heap now (set-up done, its
/// inputs and references resident) becomes the baseline, and the
/// high-water mark restarts from it.
pub fn start_working_memory() {
    let live = LIVE.load(Ordering::Relaxed);
    BASELINE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Highest live heap since [`start_working_memory`], above its baseline,
/// in MiB: the memory the program itself needs for the measured work.
pub fn working_heap_mb() -> f64 {
    let peak = PEAK.load(Ordering::Relaxed);
    peak.saturating_sub(BASELINE.load(Ordering::Relaxed)) as f64 / (1024.0 * 1024.0)
}

/// The process CPU clock. Every timed figure the benchmark gates on is
/// CPU time: on a Linux guest built with paravirtualized steal-time
/// accounting, time the host lends to another tenant, and time spent
/// waiting for a core, is charged to no CPU clock of this process. Wall
/// time on a shared host swings with the neighbours; CPU time measures
/// the program's own work.
mod clock {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(id: c_int, tp: *mut Timespec) -> c_int;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
    /// process.
    pub const PROCESS: c_int = 2;

    pub fn seconds(id: c_int) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, and the clock id exists on every Linux kernel.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({id}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!("cc-perf reads the Linux CPU clocks");

/// CPU seconds used so far by every thread of this process (client,
/// in-process server and workers alike).
pub fn process_cpu_s() -> f64 {
    clock::seconds(clock::PROCESS)
}

/// Set-up repetitions per run: `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times, keep the last state, and return
/// it with the median CPU seconds of one set-up and the median wall
/// seconds. Earlier states are dropped (servers shut down) before the
/// next repetition starts, and working memory is measured from the kept
/// state on.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64, f64) {
    let mut cpu = Vec::with_capacity(SETUP_REPEATS);
    let mut wall = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        let c0 = process_cpu_s();
        state = Some(setup());
        cpu.push(process_cpu_s() - c0);
        wall.push(t0.elapsed().as_secs_f64());
    }
    start_working_memory();
    (state.expect("at least one set-up"), median(&cpu), median(&wall))
}

/// Split the measured time between the untraced and the traced pass.
pub fn phase_budget(opts: &RunOpts) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(opts.seconds.max(0.1));
    if opts.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

/// Common environment entries.
pub fn base_env(report: &mut Report, workload: &str, opts: &RunOpts) {
    report.env("workload", workload);
    report.env("seed", opts.seed);
    report.env("seconds", opts.seconds);
    report.env("trace", opts.trace as u8);
    report.env("available_parallelism", RunOpts::threads());
    report.env("rustc", env!("CC_PERF_RUSTC"));
    report.env("build_profile", env!("CC_PERF_PROFILE"));
    report.env("setup_repeats", SETUP_REPEATS);
}

/// Metrics every workload records the same way: set-up CPU time and the
/// working memory of the measured pass. The set-up wall goes to the
/// environment record.
pub fn setup_and_memory(report: &mut Report, setup_cpu_s: f64, setup_wall_s: f64) {
    report.env("setup_wall_s", setup_wall_s);
    report.metric("setup_s", setup_cpu_s, "s");
    report.metric("work_heap_mb", working_heap_mb(), "MiB");
}

/// Self time in milliseconds of every span named `name` in a set of
/// trees.
pub fn self_ms(roots: &[cc_obs::SpanNode], name: &str) -> f64 {
    fn walk(n: &cc_obs::SpanNode, name: &str) -> u64 {
        let own = if n.name == name { n.self_ns() } else { 0 };
        own + n.children.iter().map(|c| walk(c, name)).sum::<u64>()
    }
    roots.iter().map(|r| walk(r, name)).sum::<u64>() as f64 / 1e6
}

/// Sum and count of a histogram between two metric snapshots.
pub fn hist_delta(
    before: &cc_obs::MetricsSnapshot,
    after: &cc_obs::MetricsSnapshot,
    name: &str,
) -> (u64, u64) {
    let d = after.delta(before);
    d.histogram(name)
        .map(|h| (h.sum, h.count))
        .unwrap_or((0, 0))
}

/// Counter increase between two metric snapshots.
pub fn counter_delta(
    before: &cc_obs::MetricsSnapshot,
    after: &cc_obs::MetricsSnapshot,
    name: &str,
) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}
