//! Tiny-size smoke runs of every workload: each must pass its output
//! checks and emit every named metric, and the serve check must catch a
//! wrong reference.

use std::path::PathBuf;

use graphite_perfbench::{self as bench, Options, Outcome, Size, END_TO_END, PER_LAYER};

fn tiny(workload: &str, trace: bool, skew: u64) -> Outcome {
    let opts = Options {
        seed: 7,
        seconds: 0.5,
        trace,
        size: Size::Tiny,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_graphite-perfbench")),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{workload}-{trace}-{skew}")),
        serve_reference_skew: skew,
    };
    bench::run(workload, &opts).expect("known workload")
}

/// Per-layer metrics each workload must exercise (non-zero when traced).
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "fig5_matmul1024" => &[
            "memory.new_s",
            "network.new_s",
            "core.sim_build_s",
            "sched.handoffs",
            "sched.threads_peak",
            "net.memory.flits",
            "user_msgs",
            "transport.inter_machine",
        ],
        "lu_barrier32" => &["core.sim_build_s", "sched.handoffs", "sync.barrier_releases"],
        "miss_walk2" => &[
            "core.load.count",
            "core.load_ns",
            "core.store.count",
            "core.store_ns",
            "mem.accesses",
            "mem.misses",
        ],
        "serve_mix" => &[
            "serve.job_build_ms",
            "http.submit_ms",
            "http.poll_ms",
            "http.keepalive_ms",
            "serve.run_ms",
        ],
        _ => unreachable!(),
    }
}

fn check_emits_every_metric(workload: &str) {
    let plain = tiny(workload, false, 0);
    assert!(plain.attempted >= 1, "{workload}: nothing attempted");
    assert_eq!(plain.failed, 0, "{workload}: failed operations");
    for (name, _) in END_TO_END {
        let v = plain.metrics.get(*name).copied();
        assert!(v.is_some_and(|v| v > 0.0 && v.is_finite()), "{workload}: {name} = {v:?}");
    }
    let line = plain.result_line(false);
    assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");

    let traced = tiny(workload, true, 0);
    assert_eq!(traced.failed, 0, "{workload}: failed operations when traced");
    let reported = traced.reported(true);
    assert_eq!(reported.len(), PER_LAYER.len());
    assert!(traced.metrics.contains_key("trace.run_overhead_s"), "{workload}: no overhead");
    for name in exercised(workload) {
        let v = traced.metrics.get(*name).copied().unwrap_or(0.0);
        assert!(v > 0.0, "{workload}: traced {name} = {v}");
    }
    assert!(traced.result_line(true).starts_with("{\"correct\": true"));
}

#[test]
fn fig5_matmul1024_emits_every_metric() {
    check_emits_every_metric("fig5_matmul1024");
}

#[test]
fn lu_barrier32_emits_every_metric() {
    check_emits_every_metric("lu_barrier32");
}

#[test]
fn miss_walk2_emits_every_metric() {
    check_emits_every_metric("miss_walk2");
}

#[test]
fn serve_mix_emits_every_metric() {
    check_emits_every_metric("serve_mix");
}

#[test]
fn serve_check_fails_jobs_against_a_wrong_reference() {
    let out = tiny("serve_mix", false, 1);
    assert!(out.attempted >= 1);
    assert!(out.failed > 0, "a wrong reference sim_cycles must fail jobs");
    assert_eq!(out.failed, out.attempted, "every job mismatches a skewed reference");
    assert!(out.result_line(false).starts_with("{\"correct\": false"));
}
