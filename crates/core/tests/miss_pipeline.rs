//! Golden tests for the miss pipeline.
//!
//! The MSHR table, the sharded directory, and the lock-free read probe are
//! host-side mechanisms: they change how fast the simulator runs, never what
//! it computes. These tests pin that contract against recorded values —
//! simulated cycles, guest output, and every modeled counter of a
//! cache-hostile walk must match the constants below under every
//! synchronization model, both for an uninterrupted run and for one that
//! checkpoints mid-run and resumes in a fresh simulator.

use std::collections::BTreeMap;
use std::path::PathBuf;

use graphite::{Ctx, Sim, SimConfig, SimReport, SyncModel};
use graphite_memory::addr::layout;
use graphite_memory::Addr;

/// 384 lines x 64 B = 24 KiB working set against a 16 KiB (256-line) L2: the
/// stride-7 cyclic walk revisits lines long after eviction, so steady-state
/// passes stream through capacity misses, evictions, and dirty writebacks.
const SLOTS: u64 = 384;
const N: u64 = 400; // steps before the checkpoint
const M: u64 = 300; // steps after the checkpoint

/// Simulated cycles of the `N + M`-step walk (all three sync models).
const GOLDEN_CYCLES: u64 = 123_000;

/// Guest stdout of the walk: one line every 100 steps.
const GOLDEN_STDOUT: &str = "step 0\nstep 100\nstep 200\nstep 300\nstep 400\nstep 500\nstep 600\n";

/// Every non-zero modeled counter of the walk; all other modeled counters
/// are zero. LaxBarrier additionally counts one barrier release per quantum.
const GOLDEN_COUNTERS: &[(&str, u64)] = &[
    ("ctrl.syscalls", 7),
    ("mem.dram_reads", 700),
    ("mem.latency_sum", 136300),
    ("mem.loads", 700),
    ("mem.max_latency", 183),
    ("mem.misses", 700),
    ("mem.stores", 700),
    ("mem.upgrades", 700),
    ("mem.writebacks", 444),
    ("net.link.0.1.flits", 2698),
    ("net.link.1.0.flits", 3500),
    ("net.memory.bytes", 99168),
    ("net.memory.hops", 1622),
    ("net.memory.latency_sum", 15640),
    ("net.memory.packets", 3244),
];

fn cfg() -> SimConfig {
    let mut cfg = SimConfig::builder().tiles(2).processes(1).seed(7).build().unwrap();
    if let Some(l2) = cfg.target.l2.as_mut() {
        l2.size_bytes = 16 * 1024;
        l2.associativity = 4;
    }
    cfg
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("graphite-miss-pipeline-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// A cache-hostile deterministic workload: strided read-modify-writes over a
/// working set 1.5 times the L2, so the miss path (including evictions and
/// writebacks) runs constantly.
fn run_steps(ctx: &mut Ctx, lo: u64, hi: u64) {
    for i in lo..hi {
        let slot = (i * 7) % SLOTS;
        let a = Addr(layout::STATIC_BASE.0 + slot * 64);
        let v: u64 = ctx.load(a);
        ctx.store(a, v.wrapping_add(i | 1));
        if i % 100 == 0 {
            ctx.print(&format!("step {i}\n"));
        }
    }
}

/// The non-zero modeled counters of a run: everything in the metrics
/// snapshot except the host-side pipeline diagnostics (`mem.mshr.*`,
/// `mem.probe_hits`), which depend on how host threads interleave.
fn modeled_counters(r: &SimReport) -> BTreeMap<String, u64> {
    r.metrics
        .counters
        .iter()
        .filter(|(k, v)| **v != 0 && !k.starts_with("mem.mshr.") && *k != "mem.probe_hits")
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn assert_golden(r: &SimReport, sync: SyncModel, name: &str) {
    let mut golden: BTreeMap<String, u64> =
        GOLDEN_COUNTERS.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if let SyncModel::LaxBarrier { quantum } = sync {
        golden.insert("sync.barrier_releases".into(), GOLDEN_CYCLES / quantum);
    }
    assert_eq!(r.simulated_cycles.0, GOLDEN_CYCLES, "{name}: simulated clock moved");
    assert_eq!(String::from_utf8_lossy(&r.stdout), GOLDEN_STDOUT, "{name}: guest output moved");
    assert_eq!(modeled_counters(r), golden, "{name}: modeled counters moved");
}

fn timing_invariance_for(sync: SyncModel, name: &str) {
    let r = Sim::builder(cfg()).sync_model(sync).build().unwrap().run(|ctx| {
        run_steps(ctx, 0, N + M);
    });
    assert_golden(&r, sync, name);
}

#[test]
fn timing_invariance_lax() {
    timing_invariance_for(SyncModel::Lax, "lax");
}

#[test]
fn timing_invariance_lax_barrier() {
    timing_invariance_for(SyncModel::LaxBarrier { quantum: 1_000 }, "barrier");
}

#[test]
fn timing_invariance_lax_p2p() {
    timing_invariance_for(SyncModel::LaxP2P { slack: 100_000, check_interval: 500 }, "p2p");
}

/// Checkpoints after `N` steps, resumes in a fresh simulator for the last
/// `M`, and requires the resumed run to land on the golden values.
fn restore_equivalence_for(sync: SyncModel, name: &str) {
    let path = tmp(&format!("miss-eq-{name}.ckpt"));
    let p = path.clone();
    Sim::builder(cfg()).sync_model(sync).build().unwrap().run(move |ctx| {
        run_steps(ctx, 0, N);
        ctx.checkpoint(&p).expect("checkpoint at a quiesce point");
    });
    let resumed = Sim::builder(cfg()).sync_model(sync).resume(&path).build().unwrap().run(|ctx| {
        run_steps(ctx, N, N + M);
    });
    assert_golden(&resumed, sync, name);
}

#[test]
fn restore_equivalence_lax() {
    restore_equivalence_for(SyncModel::Lax, "lax");
}

#[test]
fn restore_equivalence_lax_barrier() {
    restore_equivalence_for(SyncModel::LaxBarrier { quantum: 1_000 }, "barrier");
}

#[test]
fn restore_equivalence_lax_p2p() {
    restore_equivalence_for(SyncModel::LaxP2P { slack: 100_000, check_interval: 500 }, "p2p");
}
