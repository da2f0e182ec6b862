//! `cc-perf --workload <tune|archive> --seed N --seconds S --trace 0|1`
//!
//! Prints an environment line, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when an output check failed.

use cc_perf::{RunOpts, Scale, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("cc-perf: {msg}");
    eprintln!(
        "usage: cc-perf --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let mut report = cc_perf::run(&workload, &opts)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    report.env("wrong_results", report.wrong);
    println!("{}", report.env_line());
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
