//! Command-line entry point of the Graphite-rs benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints a human summary, writes `perfbench/out/<workload>-s<seed>-t<trace>.json`
//! (host fingerprint, every metric, determinism record, span totals), and
//! ends with one JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use graphite_perfbench::{self as bench, Fingerprint, Options, Size};

fn usage() -> ExitCode {
    eprintln!(
        "usage: graphite-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        bench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut job = false;
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).map(String::as_str);
        let ok = match (args[i].as_str(), val) {
            ("--workload", Some(v)) => {
                workload = Some(v.to_owned());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok() && seconds > 0.0,
            ("--trace", Some(v)) => match v {
                "0" | "1" => {
                    trace = v == "1";
                    true
                }
                _ => false,
            },
            ("--tiny", _) => {
                size = Size::Tiny;
                i += 1;
                continue;
            }
            // Internal: run one simulation job and print its `JOB` line.
            ("--job", _) => {
                job = true;
                i += 1;
                continue;
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
        i += 2;
    }
    let Some(workload) = workload.filter(|w| bench::WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };

    if job {
        if workload == "serve_mix" {
            return usage();
        }
        println!("{}", bench::sim::job_line(&bench::sim::job(&workload, seed, size, trace)));
        return ExitCode::SUCCESS;
    }

    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let out_dir = root.join("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = Options {
        seed,
        seconds,
        trace,
        size,
        exe,
        scratch: out_dir.join(format!("serve-{}", std::process::id())),
        serve_reference_skew: 0,
    };
    let fp = Fingerprint::collect(&root);
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={} | host: {} x {} | rev {} src {}",
        u8::from(trace),
        fp.nproc,
        fp.cpu_model,
        fp.git_rev.as_deref().unwrap_or("-"),
        fp.source_hash
    );
    let out = bench::run(&workload, &opts).expect("workload name was checked");

    let stem = format!("{workload}-s{seed}-t{}", u8::from(trace));
    let file = out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&file, bench::result_json(&workload, &opts, &fp, &out)) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    let det =
        bench::merge_determinism(&out_dir.join("determinism.json"), &workload, &out.determinism);
    for (name, value, unit) in out.reported(trace) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let range = |r: Option<(u64, u64)>| r.map_or("-".to_owned(), |(a, b)| format!("{a}..{b}"));
    println!(
        "  jobs {} failed {} | across runs: sim_cycles {} instructions {} accesses {}",
        out.attempted,
        out.failed,
        range(det.sim_cycles),
        range(det.instructions),
        range(det.accesses)
    );
    println!("{}", out.result_line(trace));
    ExitCode::SUCCESS
}
