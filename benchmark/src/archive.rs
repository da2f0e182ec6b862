//! `archive`: one 120-timestep run of two variables at the paper's 30
//! levels, archived with `ArchiveWriter` (SZ-rel-1e-4 keyframes plus
//! bounded deltas) and stored in an in-process `cc-serve` with
//! `ArchivePut`. One connection issues closed-loop `FetchSlice` calls at
//! seeded (variable, timestep, level) picks; after every
//! [`FETCHES_PER_PUT`] of them an archiving job on a second connection
//! re-encodes the other run version of one variable and puts it in
//! place of the stored one, as a re-run archiving job would. The timed
//! pass runs the two in turn, so each operation's CPU is its own; an
//! untimed overlap phase then runs them side by side, where the
//! in-place put (ROADMAP 3d) shows as typed fetch errors and any torn
//! slice fails the run.

use crate::common::{
    base_env, median, model_seed, percentile, phase_budget, process_cpu_s, ratio, repeat_setup,
    self_ms, setup_and_memory, sorted, Report, Rng, RunOpts, Scale,
};
use crate::layers::{
    codec_rates, emit_per_layer, record_request_parts, request_parts, wall_figures,
};
use cc_archive::source::SliceSource;
use cc_archive::{
    delta, ArchiveOptions, ArchiveReader, ArchiveWriter, DeltaMode, FileSource, FrameKind,
};
use cc_codecs::chunked::decompress_chunked;
use cc_codecs::{ErrorBound, Layout, Variant};
use cc_grid::Resolution;
use cc_model::Model;
use cc_serve::client::Client;
use cc_serve::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Variables archived (both 3-D, so every level of the paper's 30 is
/// stored).
const VARS: [&str; 2] = ["U", "Z3"];
/// Vertical levels: the paper's 30.
const NLEV: usize = 30;
/// Tail percentile of the fetch latency.
const TAIL_Q: f64 = 0.9;
/// Keyframe interval.
const KEYFRAME_EVERY: usize = 16;
/// Slice picks replayed locally in the traced pass.
const REPLAY_PICKS: usize = 400;
/// Fetches between two puts of the archiving job. A workload parameter,
/// not a measured cadence: at 30, fetching and re-archiving each take
/// about half of the timed pass, so a change to either path shows.
const FETCHES_PER_PUT: usize = 30;
/// Puts the archiving job makes in the overlap phase: each variable is
/// replaced twice.
const OVERLAP_PUTS: usize = 4;
/// Attempts per overlap-phase fetch before it counts as failed.
const MAX_ATTEMPTS: usize = 50;

struct Size {
    ne: usize,
    timesteps: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            ne: 3,
            timesteps: 120,
        },
        Scale::Small => Size {
            ne: 2,
            timesteps: 24,
        },
    }
}

/// One stored variable: its two run versions as generated frames, as
/// archive bytes and as locally decoded frames.
struct Stored {
    name: String,
    layout: Layout,
    /// Generated frames of run 0 and run 1.
    raw: [Vec<Vec<f32>>; 2],
    /// `cc-arch/1` bytes of each run.
    bytes: [Vec<u8>; 2],
    /// Local decode of each version, frame by frame.
    frames: [Vec<Vec<f32>>; 2],
    /// The version the server holds now.
    stored: AtomicUsize,
}

struct State {
    vars: Vec<Stored>,
    dir: PathBuf,
    server: Option<Server>,
    raw_bytes: u64,
    archive_bytes: u64,
    synth_ms: f64,
    timesteps: usize,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn options() -> ArchiveOptions {
    let bound = ErrorBound::Rel(1e-4);
    ArchiveOptions::new(Variant::Sz { bound })
        .with_bound(bound)
        .with_keyframe_every(KEYFRAME_EVERY)
}

/// Encode one variable's run; returns the bytes and the encode wall (s).
fn encode(name: &str, layout: Layout, frames: &[Vec<f32>]) -> (Vec<u8>, f64) {
    let t0 = Instant::now();
    let mut w = ArchiveWriter::new();
    w.add_variable(name, layout, frames, &options())
        .expect("generated runs archive");
    let bytes = w.finish();
    (bytes, t0.elapsed().as_secs_f64())
}

/// Start an in-process server storing archives under `archive_dir`,
/// with shards and workers pinned to the machine's parallelism.
fn start_server(archive_dir: PathBuf) -> Server {
    let n = RunOpts::threads();
    Server::start(ServerConfig {
        shards: n,
        workers: n,
        archive_dir: Some(archive_dir),
        ..ServerConfig::default()
    })
    .expect("start the in-process server")
}

/// Archive names on the server: one archive per variable.
fn archive_name(var: &str) -> String {
    format!("run-{var}")
}

fn setup(opts: &RunOpts, serial: &mut u32) -> State {
    let s = size(opts.scale);
    let model = Model::new(Resolution::reduced(s.ne, NLEV), model_seed(opts.seed));
    let jobs: Vec<(usize, usize)> = (0..2)
        .flat_map(|r| (0..VARS.len()).map(move |v| (r, v)))
        .collect();
    let t_synth = Instant::now();
    let runs: Vec<Vec<cc_model::Member>> = (0..2)
        .map(|r| model.trajectory(r, s.timesteps, 0.02))
        .collect();
    let id = |v: usize| {
        model
            .var_id(VARS[v])
            .expect("archived variables are registered")
    };
    let layout = Layout::for_grid(model.grid(), NLEV);
    let threads = RunOpts::threads();
    let mut raw: Vec<Vec<Vec<f32>>> = cc_par::par_map_with(threads, &jobs, |&(r, v)| {
        runs[r]
            .iter()
            .map(|m| model.synthesize(m, id(v)).data)
            .collect()
    });
    let synth_ms = t_synth.elapsed().as_secs_f64() * 1e3;
    let mut encoded: Vec<Vec<u8>> =
        cc_par::par_map_with(threads, &(0..jobs.len()).collect::<Vec<_>>(), |&i| {
            encode(VARS[jobs[i].1], layout, &raw[i]).0
        });
    let raw_var = (s.timesteps * layout.len() * 4) as u64;
    let mut vars = Vec::new();
    for (v, name) in VARS.iter().enumerate() {
        let pick = |r: usize| jobs.iter().position(|&j| j == (r, v)).expect("job");
        let (i0, i1) = (pick(0), pick(1));
        let raw = [std::mem::take(&mut raw[i0]), std::mem::take(&mut raw[i1])];
        let bytes = [
            std::mem::take(&mut encoded[i0]),
            std::mem::take(&mut encoded[i1]),
        ];
        let frames = [0, 1].map(|r| {
            ArchiveReader::open(bytes[r].as_slice())
                .and_then(|mut rd| rd.decode_variable(name))
                .expect("own archive decodes")
        });
        vars.push(Stored {
            name: name.to_string(),
            layout,
            raw,
            bytes,
            frames,
            stored: AtomicUsize::new(0),
        });
    }
    let archive_bytes = vars.iter().map(|v| v.bytes[0].len() as u64).sum();
    *serial += 1;
    let dir = std::env::current_dir()
        .expect("working directory")
        .join(".cc-perf-tmp")
        .join(format!("archive-{}-{serial}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the archive directory");
    let server = start_server(dir.clone());
    let state = State {
        vars,
        dir,
        server: Some(server),
        raw_bytes: raw_var * VARS.len() as u64,
        archive_bytes,
        synth_ms,
        timesteps: s.timesteps,
    };
    let mut c = state.client();
    for v in &state.vars {
        c.archive_put(&archive_name(&v.name), &v.bytes[0])
            .expect("initial put");
    }
    // Warm-up: one fetch per variable.
    for v in &state.vars {
        c.fetch_slice(&archive_name(&v.name), &v.name, 0, 0)
            .expect("warm-up fetch");
    }
    state
}

impl State {
    fn client(&self) -> Client {
        let addr = self
            .server
            .as_ref()
            .expect("server running")
            .addr()
            .to_string();
        Client::connect(&addr).expect("connect to the in-process server")
    }

    /// Does `slice` equal (var, t, lev) of run `version`, bit for bit?
    fn is_version(&self, v: usize, version: usize, t: usize, lev: usize, slice: &[f32]) -> bool {
        let var = &self.vars[v];
        let npts = var.layout.npts;
        let want = &var.frames[version][t][lev * npts..(lev + 1) * npts];
        want.len() == slice.len()
            && want
                .iter()
                .zip(slice)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Does `slice` equal (var, t, lev) of either run version?
    fn matches(&self, v: usize, t: usize, lev: usize, slice: &[f32]) -> bool {
        (0..2).any(|version| self.is_version(v, version, t, lev, slice))
    }
}

/// Samples of one measured pass, of successful operations only. CPU
/// figures are process CPU: client, server shards and workers together.
#[derive(Default)]
struct Pass {
    /// Each fetch, send to last byte: process CPU and wall, ms.
    fetch_cpu_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    /// Each step of the archiving job, re-encode and put (send to ack):
    /// process CPU, ms.
    step_cpu_ms: Vec<f64>,
    roots: Vec<cc_obs::SpanNode>,
}

/// A seeded (variable, timestep, level) pick.
fn pick(st: &State, rng: &mut Rng) -> (usize, usize, usize) {
    (
        rng.below(st.vars.len()),
        rng.below(st.timesteps),
        rng.below(NLEV),
    )
}

/// One step of the archiving job: re-encode the other run version of
/// variable `v`, check that it reproduces that version's stored bytes,
/// and put it in place of the current one. Returns the step's process
/// CPU in ms and (ok, wrong).
fn replace(st: &State, c: &mut Client, v: usize) -> (f64, bool, bool) {
    let var = &st.vars[v];
    let version = 1 - var.stored.load(Ordering::SeqCst);
    let c0 = process_cpu_s();
    let (bytes, _) = encode(&var.name, var.layout, &var.raw[version]);
    let wrong = bytes != var.bytes[version];
    let ok = c.archive_put(&archive_name(&var.name), &bytes).is_ok();
    let cpu_ms = (process_cpu_s() - c0) * 1e3;
    if ok {
        var.stored.store(version, Ordering::SeqCst);
    } else {
        *c = st.client();
    }
    (cpu_ms, ok, wrong)
}

/// The measured pass, from one load thread: [`FETCHES_PER_PUT`]
/// closed-loop fetches on one connection, then the archiving job's next
/// put on a second, until the budget is spent. Nothing else runs in the
/// process meanwhile, so each operation's process CPU is its own, and
/// every fetch must return exactly the version stored at the time.
fn run_pass(st: &State, report: &mut Report, rng: &mut Rng, budget: Duration) -> Pass {
    let mut pass = Pass::default();
    let mut fetcher = st.client();
    let mut putter = st.client();
    let deadline = Instant::now() + budget;
    let mut puts = 0usize;
    while Instant::now() < deadline || pass.fetch_cpu_ms.len() < 100 {
        for _ in 0..FETCHES_PER_PUT {
            let (v, t, lev) = pick(st, rng);
            let var = &st.vars[v];
            let version = var.stored.load(Ordering::SeqCst);
            let t0 = Instant::now();
            let c0 = process_cpu_s();
            let res = fetcher.fetch_slice(&archive_name(&var.name), &var.name, t as u32, lev as u32);
            let cpu_ms = (process_cpu_s() - c0) * 1e3;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok(slice) => {
                    let wrong = !st.is_version(v, version, t, lev, &slice);
                    report.outcome(true, wrong);
                    if !wrong {
                        pass.fetch_cpu_ms.push(cpu_ms);
                        pass.fetch_ms.push(wall_ms);
                    }
                }
                Err(_) => {
                    report.outcome(false, false);
                    fetcher = st.client();
                }
            }
        }
        let (cpu_ms, ok, wrong) = replace(st, &mut putter, puts % st.vars.len());
        puts += 1;
        report.outcome(ok, wrong);
        if ok && !wrong {
            pass.step_cpu_ms.push(cpu_ms);
        }
    }
    pass.roots = cc_obs::take_local_roots();
    pass
}

/// Fetch closed-loop while an archiving job on a second thread and
/// connection replaces the archives in place [`OVERLAP_PUTS`] times. A
/// put rewrites the file a fetch may be reading (ROADMAP 3d), so such a
/// fetch can end in a typed error: it is retried, up to
/// [`MAX_ATTEMPTS`] times, and every error is counted. A slice that
/// matches neither stored version is a torn read and makes the run
/// incorrect. Returns typed errors per fetch.
fn overlap(st: &State, report: &mut Report, rng: &mut Rng) -> f64 {
    let done = AtomicBool::new(false);
    let (fetches, errors, puts) = std::thread::scope(|s| {
        let job = s.spawn(|| {
            let mut c = st.client();
            let puts: Vec<(bool, bool)> = (0..OVERLAP_PUTS)
                .map(|n| {
                    let (_, ok, wrong) = replace(st, &mut c, n % st.vars.len());
                    (ok, wrong)
                })
                .collect();
            done.store(true, Ordering::SeqCst);
            puts
        });
        let mut c = st.client();
        let (mut fetches, mut errors) = (0usize, 0usize);
        while !done.load(Ordering::SeqCst) {
            let (v, t, lev) = pick(st, rng);
            let var = &st.vars[v];
            let mut slice = None;
            for _ in 0..MAX_ATTEMPTS {
                match c.fetch_slice(&archive_name(&var.name), &var.name, t as u32, lev as u32) {
                    Ok(s) => {
                        slice = Some(s);
                        break;
                    }
                    Err(_) => {
                        errors += 1;
                        c = st.client();
                    }
                }
            }
            fetches += 1;
            match slice {
                Some(s) => report.outcome(true, !st.matches(v, t, lev, &s)),
                None => report.outcome(false, false),
            }
        }
        (fetches, errors, job.join().expect("archiving job thread"))
    });
    for (ok, wrong) in puts {
        report.outcome(ok, wrong);
    }
    cc_obs::take_local_roots();
    ratio(errors as f64, fetches as f64)
}

/// Run the archive workload.
pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    base_env(&mut report, "archive", opts);
    let s = size(opts.scale);
    let mut serial = 0;
    let (st, setup_cpu_s, setup_wall_s) = repeat_setup(|| setup(opts, &mut serial));
    let threads = RunOpts::threads();
    report.env("server_workers", threads);
    report.env("server_shards", threads);
    report.env("load_threads", 2);
    report.env("connections", 2);
    report.env(
        "grid",
        format!("ne={} nlev={NLEV} timesteps={}", s.ne, s.timesteps),
    );
    report.env("fetches_per_put", FETCHES_PER_PUT);

    let mut rng = Rng::new(opts.seed, 0xA2C4);
    let (plain, traced) = phase_budget(opts);
    let pass = run_pass(&st, &mut report, &mut rng, plain);
    let overlap_errors = overlap(&st, &mut report, &mut rng);
    let fetch = sorted(pass.fetch_cpu_ms.clone());
    report.env("fetches", fetch.len());
    report.env("puts", pass.step_cpu_ms.len());
    report.env("tail_percentile", TAIL_Q);
    let cr = st.archive_bytes as f64 / st.raw_bytes as f64;
    report.exact("archive_cr", format!("{cr:?}"));

    setup_and_memory(&mut report, setup_cpu_s, setup_wall_s);
    let cpu_p50 = percentile(&fetch, 0.5);
    report.metric("cpu_p50_ms", cpu_p50, "ms");
    report.metric("cpu_tail_ms", percentile(&fetch, TAIL_Q), "ms");
    // The whole archiving step: the put's own CPU (a few ms of ~120)
    // fell by a third with two busy processes beside the benchmark.
    report.metric("side_cpu_ms", median(&pass.step_cpu_ms), "ms");
    report.metric("cr", cr, "ratio");

    if opts.trace {
        let mut layer = BTreeMap::new();
        let wall_s = pass.fetch_ms.iter().sum::<f64>() / 1e3;
        wall_figures(&mut layer, &pass.fetch_ms, wall_s, TAIL_Q);
        layer.insert("archive.overlap_errors_per_fetch".into(), overlap_errors);
        traced_pass(&st, &mut report, &mut rng, traced, cpu_p50, &mut layer);
        emit_per_layer(&mut report, &layer);
    }
    report
}

fn traced_pass(
    st: &State,
    report: &mut Report,
    rng: &mut Rng,
    budget: Duration,
    plain_cpu_p50_ms: f64,
    layer: &mut BTreeMap<String, f64>,
) {
    cc_obs::set_spans_enabled(true);
    let m0 = cc_obs::metrics_snapshot();
    let pass = run_pass(st, report, rng, budget);
    let m1 = cc_obs::metrics_snapshot();
    let traced_p50 = percentile(&sorted(pass.fetch_cpu_ms), 0.5);
    layer.insert("traced.cpu_p50_ms".into(), traced_p50);
    layer.insert("trace.overhead_ms".into(), traced_p50 - plain_cpu_p50_ms);
    let parts = request_parts(&pass.roots);
    let compute = record_request_parts(&parts, layer, report);
    crate::layers::serve_counters(&m0, &m1, layer);

    // Encode one version with spans on: the archive encode layer and the
    // deflate self time inside it.
    let v0 = &st.vars[0];
    let (_, enc_s) = encode(&v0.name, v0.layout, &v0.raw[0]);
    let roots = cc_obs::take_local_roots();
    layer.insert("archive.encode_ms".into(), enc_s * 1e3);
    layer.insert(
        "lossless.deflate_encode_self_ms".into(),
        self_ms(&roots, "deflate.encode"),
    );
    layer.insert("model.synth_ms".into(), st.synth_ms);

    // Replay seeded slice picks from the stored files, layer by layer.
    let ok = replay_slices(st, rng, layer);
    report.outcome(ok, !ok);
    let roots = cc_obs::take_local_roots();
    layer.insert(
        "lossless.deflate_decode_self_ms".into(),
        self_ms(&roots, "deflate.decode") / REPLAY_PICKS as f64,
    );
    cc_obs::set_spans_enabled(false);
    let covered: f64 = [
        "archive.open_us",
        "archive.keyframe_decode_us",
        "archive.delta_replay_us",
        "archive.copy_us",
    ]
    .iter()
    .map(|k| layer.get(*k).copied().unwrap_or(0.0))
    .sum();
    let fetch_compute = compute.get("fetch_slice").copied().unwrap_or(0.0);
    layer.insert("unattributed_ms".into(), (fetch_compute - covered) / 1e3);

    let fields: Vec<(&[f32], Layout)> = st
        .vars
        .iter()
        .map(|v| (v.frames[0][0].as_slice(), v.layout))
        .collect();
    let ok = codec_rates(&fields, layer, report);
    report.outcome(ok, !ok);
}

/// Replay [`REPLAY_PICKS`] fetches against the files on disk through the
/// public archive API: open + index, chain walk, keyframe decode, delta
/// replay, level copy. Returns false when a replayed slice is wrong.
fn replay_slices(st: &State, rng: &mut Rng, layer: &mut BTreeMap<String, f64>) -> bool {
    let mut open = 0.0;
    let mut key = 0.0;
    let mut deltas = 0.0;
    let mut copy = 0.0;
    let mut bytes_read = 0u64;
    let mut frames = 0usize;
    let mut useful = 0.0;
    let mut ok = true;
    let path = |name: &str| st.dir.join(format!("{}.ccarch", archive_name(name)));
    for _ in 0..REPLAY_PICKS {
        let v = rng.below(st.vars.len());
        let t = rng.below(st.timesteps);
        let lev = rng.below(NLEV);
        let var = &st.vars[v];
        let t0 = Instant::now();
        let reader = FileSource::open(&path(&var.name)).and_then(ArchiveReader::open);
        let Ok(reader) = reader else { return false };
        open += t0.elapsed().as_secs_f64() * 1e6;
        let entry = reader
            .index()
            .var(&var.name)
            .expect("stored variable")
            .clone();
        let chain = entry.chain(t).expect("in-range timestep");
        let mut src = FileSource::open(&path(&var.name)).expect("stored archive opens");
        let codec = Variant::by_name(&entry.codec)
            .expect("keyframe codec")
            .codec();
        let quantized = matches!(entry.delta, DeltaMode::Bounded(_));
        let mut recon: Option<Vec<f32>> = None;
        bytes_read += reader.bytes_read();
        for &i in &chain {
            let f = entry.frames[i];
            bytes_read += f.len;
            let t1 = Instant::now();
            let blob = src
                .read_at(f.offset, f.len as usize)
                .expect("frame in range");
            recon = Some(match f.kind {
                FrameKind::Key => {
                    let r = decompress_chunked(codec.as_ref(), &blob, entry.layout, 1);
                    key += t1.elapsed().as_secs_f64() * 1e6;
                    r.expect("keyframe decodes")
                }
                FrameKind::Delta => {
                    let prev = recon.take().expect("chain starts with a keyframe");
                    let r = delta::decode(&blob, &prev, quantized);
                    deltas += t1.elapsed().as_secs_f64() * 1e6;
                    r.expect("delta decodes")
                }
            });
        }
        let frame = recon.expect("non-empty chain");
        let npts = entry.layout.npts;
        let t2 = Instant::now();
        let slice = frame[lev * npts..(lev + 1) * npts].to_vec();
        copy += t2.elapsed().as_secs_f64() * 1e6;
        ok &= st.matches(v, t, lev, &slice);
        frames += chain.len();
        useful += npts as f64 / (chain.len() * entry.layout.len()) as f64;
    }
    let n = REPLAY_PICKS as f64;
    layer.insert("archive.open_us".into(), open / n);
    layer.insert("archive.keyframe_decode_us".into(), key / n);
    layer.insert("archive.delta_replay_us".into(), deltas / n);
    layer.insert("archive.copy_us".into(), copy / n);
    layer.insert("archive.bytes_read_per_slice".into(), bytes_read as f64 / n);
    layer.insert("archive.frames_per_slice".into(), frames as f64 / n);
    layer.insert("archive.useful_share".into(), useful / n);
    ok
}

/// Exact archive counts for the repeat test: bytes read and frames
/// decoded per slice over seeded picks of the version-0 archives.
pub fn exact_counts(seed: u64, scale: Scale) -> (f64, f64, f64) {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        trace: false,
        scale,
    };
    let mut serial = 0;
    let st = setup(&opts, &mut serial);
    let mut rng = Rng::new(seed, 0xC0DE);
    let mut layer = BTreeMap::new();
    assert!(
        replay_slices(&st, &mut rng, &mut layer),
        "replayed slices match"
    );
    (
        layer["archive.bytes_read_per_slice"],
        layer["archive.frames_per_slice"],
        st.archive_bytes as f64 / st.raw_bytes as f64,
    )
}
