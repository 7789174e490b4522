//! The three in-process simulation workloads: `fig5_matmul1024`,
//! `lu_barrier32` and `miss_walk2`.
//!
//! Every iteration is one simulation job a user would run: build a fresh
//! `Sim` from the config (modeled caches start cold), run the guest, and
//! check its output. Iterations repeat until the run's time is spent.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite::{Ctx, GuestEntry, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::GlobalProgress;
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;
use graphite_workloads::{Lu, MatMul, Workload};

use crate::stats::{median, peak_rss_mb, quantile, Spans};
use crate::{Options, Outcome, Size};

/// Which simulation workload, with its size resolved.
enum Kind {
    /// `MatMul::fig5(n)`, one thread per tile.
    MatMul { n: u64 },
    /// SPLASH LU, contiguous rows, one thread per tile.
    Lu { n: u64 },
    /// The benchmark's own two-thread miss walk.
    MissWalk { lines: u64, passes: u64 },
}

struct Plan {
    kind: Kind,
    cfg: SimConfig,
    threads: u32,
    /// A job slower than this misses its deadline (`slo_frac`).
    deadline: Duration,
}

fn plan(workload: &str, seed: u64, size: Size) -> Plan {
    let base = || SimConfig::builder().seed(seed);
    let (kind, cfg, threads, deadline_s) = match (workload, size) {
        ("fig5_matmul1024", Size::Full) => {
            let cfg = base().tiles(1024).processes(10).machines(10).build();
            (Kind::MatMul { n: 96 }, cfg, 1024, 20.0)
        }
        ("fig5_matmul1024", Size::Tiny) => {
            let cfg = base().tiles(64).processes(2).machines(2).build();
            (Kind::MatMul { n: 16 }, cfg, 64, 20.0)
        }
        ("lu_barrier32", size) => {
            let n = if size == Size::Full { 128 } else { 24 };
            let cfg = base().tiles(32).sync(SyncModel::LaxBarrier { quantum: 1000 }).build();
            (Kind::Lu { n }, cfg, 32, 10.0)
        }
        ("miss_walk2", size) => {
            let cfg = base().tiles(2).processes(1).build().expect("miss_walk2 config");
            let l2 = cfg.target.l2.clone().expect("the default target has an L2");
            // 1.5x the L2 walked in order: LRU keeps none of it, so every
            // access misses every level.
            let lines = l2.num_lines() * 3 / 2;
            let passes = if size == Size::Full { 8 } else { 1 };
            (Kind::MissWalk { lines, passes }, Ok(cfg), 2, 10.0)
        }
        _ => unreachable!("workload names are checked by the caller"),
    };
    Plan {
        kind,
        cfg: cfg.expect("benchmark configs are valid"),
        threads,
        deadline: Duration::from_secs_f64(deadline_s),
    }
}

/// Host-side timers around the miss walk's `Ctx::load` / `Ctx::store`
/// calls, filled only by traced iterations.
#[derive(Default)]
struct AccessTimers {
    loads: AtomicU64,
    load_ns: AtomicU64,
    stores: AtomicU64,
    store_ns: AtomicU64,
}

/// The value the walk stores at `line` on `pass` (a splitmix64 mix).
fn walk_value(seed: u64, tid: u64, pass: u64, line: u64) -> u64 {
    let mut z = seed ^ (tid << 56) ^ (pass << 40) ^ line;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Access `k` of a walk is a store when `k % 3 == 2`.
fn is_store(pass: u64, lines: u64, line: u64) -> bool {
    (pass * lines + line) % 3 == 2
}

/// One thread's walk over its private region.
#[allow(clippy::too_many_arguments)]
fn walk(
    ctx: &mut Ctx,
    base: Addr,
    tid: u64,
    seed: u64,
    lines: u64,
    passes: u64,
    line_size: u64,
    timers: Option<&AccessTimers>,
) {
    let (mut loads, mut load_ns, mut stores, mut store_ns) = (0u64, 0u64, 0u64, 0u64);
    for pass in 0..passes {
        for line in 0..lines {
            let addr = base.offset(line * line_size);
            let store = is_store(pass, lines, line);
            let t0 = timers.map(|_| Instant::now());
            if store {
                ctx.store(addr, walk_value(seed, tid, pass, line));
            } else {
                std::hint::black_box(ctx.load::<u64>(addr));
            }
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                if store {
                    stores += 1;
                    store_ns += ns;
                } else {
                    loads += 1;
                    load_ns += ns;
                }
            }
        }
    }
    if let Some(t) = timers {
        t.loads.fetch_add(loads, Ordering::Relaxed);
        t.load_ns.fetch_add(load_ns, Ordering::Relaxed);
        t.stores.fetch_add(stores, Ordering::Relaxed);
        t.store_ns.fetch_add(store_ns, Ordering::Relaxed);
    }
}

/// Reads back, through the unmodeled peek path, the last value the walk
/// stored in every line of `base`'s region; returns the mismatches.
fn verify_walk(
    ctx: &Ctx,
    base: Addr,
    tid: u64,
    seed: u64,
    lines: u64,
    passes: u64,
    line_size: u64,
) -> u64 {
    let mut bad = 0;
    for line in 0..lines {
        let Some(pass) = (0..passes).rev().find(|&p| is_store(p, lines, line)) else { continue };
        let mut b = [0u8; 8];
        ctx.peek_bytes(base.offset(line * line_size), &mut b);
        if u64::from_le_bytes(b) != walk_value(seed, tid, pass, line) {
            bad += 1;
        }
    }
    bad
}

/// The miss walk's guest `main`: two threads, one private region each.
fn miss_walk_main(
    ctx: &mut Ctx,
    seed: u64,
    lines: u64,
    passes: u64,
    line_size: u64,
    timers: Option<Arc<AccessTimers>>,
    mismatches: &AtomicU64,
) {
    let bytes = lines * line_size;
    let mut regions = [Addr(0); 2];
    for r in &mut regions {
        let raw = ctx.malloc(bytes + line_size).expect("walk region fits the heap");
        *r = Addr(raw.0.div_ceil(line_size) * line_size);
    }
    let other = regions[1];
    let t2 = timers.clone();
    let entry: GuestEntry = Arc::new(move |ctx, _| {
        walk(ctx, other, 1, seed, lines, passes, line_size, t2.as_deref());
    });
    let h = ctx.spawn(entry, 0).expect("two tiles host two threads");
    walk(ctx, regions[0], 0, seed, lines, passes, line_size, timers.as_deref());
    h.join(ctx).expect("walker joins");
    for (tid, base) in regions.iter().enumerate() {
        let bad = verify_walk(ctx, *base, tid as u64, seed, lines, passes, line_size);
        mismatches.fetch_add(bad, Ordering::Relaxed);
    }
}

/// What one job measured, by name: timings in seconds, counts from the
/// report, the host-side access timers and span totals. `ok` is 1 when the
/// output check passed.
pub type JobResult = BTreeMap<String, f64>;

/// Runs one job of `workload` in this process: build a fresh `Sim`, run
/// the guest, check its output. A traced job also times standalone
/// `Network::new` / `MemorySystem::new` builds and the miss walk's
/// `Ctx::load` / `Ctx::store` calls.
pub fn job(workload: &str, seed: u64, size: Size, traced: bool) -> JobResult {
    let p = plan(workload, seed, size);
    let mut spans = Spans::default();
    let mut r = JobResult::new();
    if traced {
        layer_builds(&p.cfg, &mut spans, &mut r);
    }
    let timers = Arc::new(AccessTimers::default());
    let t0 = Instant::now();
    let sim = spans.time("core.sim_build", |_| Sim::builder(p.cfg.clone()).build());
    r.insert("setup_s".into(), t0.elapsed().as_secs_f64());
    let sim = match sim {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: build failed: {e}");
            r.insert("ok".into(), 0.0);
            return r;
        }
    };
    let mismatches = Arc::new(AtomicU64::new(0));
    let threads = p.threads;
    let guest: Box<dyn FnOnce(&mut Ctx) + Send> = match p.kind {
        Kind::MatMul { n } => {
            let w = MatMul { n, seed, fine_grained: true };
            Box::new(move |ctx| w.run(ctx, threads))
        }
        Kind::Lu { n } => {
            let w = Lu { n, contiguous: true, seed };
            Box::new(move |ctx| w.run(ctx, threads))
        }
        Kind::MissWalk { lines, passes } => {
            let line_size = u64::from(p.cfg.target.l2.as_ref().expect("L2").line_size);
            let timers = traced.then(|| Arc::clone(&timers));
            let m = Arc::clone(&mismatches);
            Box::new(move |ctx| miss_walk_main(ctx, seed, lines, passes, line_size, timers, &m))
        }
    };
    let t1 = Instant::now();
    let id = spans.enter("core.sim_run");
    // The SPLASH kernels check their own result and panic on a mismatch.
    let result = std::panic::catch_unwind(AssertUnwindSafe(move || sim.run(guest)));
    spans.exit(id);
    let run_s = t1.elapsed().as_secs_f64();
    r.insert("run_s".into(), run_s);
    r.insert("job_s".into(), t0.elapsed().as_secs_f64());
    let bad_lines = mismatches.load(Ordering::Relaxed);
    let ok = result.is_ok() && bad_lines == 0;
    if !ok {
        eprintln!("perfbench: {workload} output check failed (mismatched lines: {bad_lines})");
    }
    r.insert("ok".into(), f64::from(u8::from(ok)));
    if let Ok(rep) = &result {
        let counts = [
            ("instructions", rep.total_instructions),
            ("sim_cycles", rep.simulated_cycles.0),
            ("mem.accesses", rep.mem.accesses()),
            ("mem.misses", rep.mem.misses),
            ("mem.mshr.coalesced", counter(rep, "mem.mshr.coalesced")),
            ("mem.dir.batch.acquisitions", counter(rep, "mem.dir.batch.acquisitions")),
            ("sched.handoffs", rep.sched.handoffs),
            ("sched.parks", rep.sched.parks),
            ("sched.steals", rep.sched.steals),
            ("sched.threads_spawned", rep.sched.threads_spawned),
            ("sched.threads_peak", rep.sched.threads_peak),
            ("sync.barrier_waits", rep.sync.barrier_waits),
            ("sync.barrier_releases", rep.sync.barrier_releases),
            ("net.memory.flits", link_flits(rep)),
            ("user_msgs", rep.user_msgs),
            ("transport.inter_process", rep.transport.inter_process),
            ("transport.inter_machine", rep.transport.inter_machine),
            ("core.load.count", timers.loads.load(Ordering::Relaxed)),
            ("core.store.count", timers.stores.load(Ordering::Relaxed)),
            ("core.load.busy_ns", timers.load_ns.load(Ordering::Relaxed)),
            ("core.store.busy_ns", timers.store_ns.load(Ordering::Relaxed)),
        ];
        for (k, v) in counts {
            r.insert(k.into(), v as f64);
        }
    }
    for (name, t) in spans.totals() {
        r.insert(format!("span.{name}.count"), t.count as f64);
        r.insert(format!("span.{name}.total_s"), t.total.as_secs_f64());
        r.insert(format!("span.{name}.self_s"), t.self_time.as_secs_f64());
    }
    r.insert("peak_rss_mb".into(), peak_rss_mb());
    r
}

/// Times a standalone `Network::new` and `MemorySystem::new` for the
/// workload's config; both are dropped before the job's `Sim` is built.
fn layer_builds(cfg: &SimConfig, spans: &mut Spans, r: &mut JobResult) {
    let t0 = Instant::now();
    let net = spans.time("network.new", |_| {
        Arc::new(Network::new(cfg, Arc::new(GlobalProgress::new(cfg.progress_window as usize))))
    });
    r.insert("network.new_s".into(), t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let mem = spans.time("memory.new", |_| MemorySystem::new(cfg, Arc::clone(&net), false));
    r.insert("memory.new_s".into(), t1.elapsed().as_secs_f64());
    drop(mem);
    drop(net);
}

/// The line a `--job` child prints last: `JOB key=value ...`.
pub fn job_line(r: &JobResult) -> String {
    let mut s = String::from("JOB");
    for (k, v) in r {
        s.push_str(&format!(" {k}={v:?}"));
    }
    s
}

fn parse_job_line(stdout: &str) -> Option<JobResult> {
    let line = stdout.lines().rev().find_map(|l| l.strip_prefix("JOB "))?;
    line.split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_owned(), v.parse::<f64>().ok()?))
        })
        .collect()
}

/// Runs one job in a fresh child process (`exe --job ...`), so every job
/// pays a cold process like a user's run and reports its own peak RSS.
fn job_in_child(workload: &str, opts: &Options, traced: bool) -> JobResult {
    let mut cmd = std::process::Command::new(&opts.exe);
    cmd.args(["--job", "--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    if opts.size == Size::Tiny {
        cmd.arg("--tiny");
    }
    let parsed = match cmd.output() {
        Ok(o) if o.status.success() => parse_job_line(&String::from_utf8_lossy(&o.stdout)),
        Ok(o) => {
            eprintln!("perfbench: {workload} job exited with {}", o.status);
            None
        }
        Err(e) => {
            eprintln!("perfbench: cannot start {workload} job: {e}");
            None
        }
    };
    parsed.unwrap_or_else(|| JobResult::from([("ok".to_owned(), 0.0)]))
}

/// Runs `workload`'s jobs back to back for the options' time budget.
pub fn run(workload: &str, opts: &Options) -> Outcome {
    let deadline = plan(workload, opts.seed, opts.size).deadline;
    let budget = Duration::from_secs_f64(opts.seconds);
    // Trace runs alternate untraced and traced jobs, so the traced run also
    // measures its own overhead on `run_s`.
    let min_jobs = if opts.trace { 2 } else { 1 };
    let one = |traced: bool| job_in_child(workload, opts, traced);
    // The first job of a run is slower on a host that has just freed the
    // previous run's memory (fig5: ~3.9 s against ~2.9 s); it is checked
    // but not measured.
    let warmup = one(false);
    let start = Instant::now();
    let mut jobs: Vec<(bool, JobResult)> = Vec::new();
    while jobs.len() < min_jobs || start.elapsed() < budget {
        let traced = opts.trace && jobs.len() % 2 == 1;
        jobs.push((traced, one(traced)));
    }

    let mut out = Outcome::new(jobs.len() as u64 + 1);
    let ok = |r: &JobResult| r.get("ok").copied() == Some(1.0);
    out.failed = jobs.iter().filter(|(_, r)| !ok(r)).count() as u64 + u64::from(!ok(&warmup));
    let good = |traced: bool| -> Vec<&JobResult> {
        jobs.iter().filter(|(t, r)| *t == traced && ok(r)).map(|(_, r)| r).collect()
    };
    let col = |rs: &[&JobResult], k: &str| -> Vec<f64> {
        rs.iter().filter_map(|r| r.get(k).copied()).collect()
    };
    let plain = good(false);
    let traced = good(true);

    let jobs_ms: Vec<f64> = col(&plain, "job_s").iter().map(|s| s * 1e3).collect();
    let mips: Vec<f64> = plain.iter().map(|r| r["instructions"] / r["run_s"] / 1e6).collect();
    out.set("setup_s", median(&col(&plain, "setup_s")));
    out.set("run_s", median(&col(&plain, "run_s")));
    out.set("sim_mips", median(&mips));
    out.set("peak_rss_mb", median(&col(&plain, "peak_rss_mb")));
    out.set("job_p50_ms", median(&jobs_ms));
    out.set("job_p95_ms", quantile(&jobs_ms, 0.95).unwrap_or(0.0));
    // Every job of a simulation workload is a batch job.
    out.set("long_job_ms", median(&jobs_ms));
    let sent = jobs.iter().filter(|(t, _)| !t).count().max(1);
    let on_time = jobs_ms.iter().filter(|&&ms| ms <= deadline.as_secs_f64() * 1e3).count();
    out.set("slo_frac", on_time as f64 / sent as f64);
    out.note("deadline_s", deadline.as_secs_f64().to_string());
    out.note("jobs_per_metric", plain.len().to_string());
    let list =
        |k: &str| col(&plain, k).iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ");
    out.note("job_setup_s", list("setup_s"));
    out.note("job_run_s", list("run_s"));

    for r in jobs.iter().map(|(_, r)| r).chain([&warmup]) {
        if let (Some(c), Some(i), Some(a)) =
            (r.get("sim_cycles"), r.get("instructions"), r.get("mem.accesses"))
        {
            out.determinism.add(*c as u64, *i as u64, *a as u64);
        }
    }
    for (_, r) in &jobs {
        for (k, v) in r {
            let Some(rest) = k.strip_prefix("span.") else { continue };
            let Some((name, field)) = rest.rsplit_once('.') else { continue };
            let t = out.spans.entry(name.to_owned()).or_default();
            match field {
                "count" => t.count += *v as u64,
                "total_s" => t.total += Duration::from_secs_f64(*v),
                "self_s" => t.self_time += Duration::from_secs_f64(*v),
                _ => {}
            }
        }
    }

    if opts.trace {
        out.set(
            "trace.run_overhead_s",
            median(&col(&traced, "run_s")) - median(&col(&plain, "run_s")),
        );
        // Untraced jobs build cold; a traced job builds into memory its
        // standalone `MemorySystem::new` just freed.
        out.set("core.sim_build_s", median(&col(&plain, "setup_s")));
        for k in [
            "memory.new_s",
            "network.new_s",
            "mem.accesses",
            "mem.misses",
            "mem.mshr.coalesced",
            "mem.dir.batch.acquisitions",
            "sched.handoffs",
            "sched.parks",
            "sched.steals",
            "sched.threads_spawned",
            "sched.threads_peak",
            "sync.barrier_waits",
            "sync.barrier_releases",
            "net.memory.flits",
            "user_msgs",
            "transport.inter_process",
            "transport.inter_machine",
            "core.load.count",
            "core.load.busy_ns",
            "core.store.count",
            "core.store.busy_ns",
        ] {
            out.set(k, median(&col(&traced, k)));
        }
        let per_call = |busy: &str, calls: &str| {
            let (b, c): (f64, f64) =
                (col(&traced, busy).iter().sum(), col(&traced, calls).iter().sum());
            if c > 0.0 {
                b / c
            } else {
                0.0
            }
        };
        out.set("core.load_ns", per_call("core.load.busy_ns", "core.load.count"));
        out.set("core.store_ns", per_call("core.store.busy_ns", "core.store.count"));
    }
    out
}

/// A global counter from the report's metrics snapshot (0 if absent).
fn counter(r: &SimReport, name: &str) -> u64 {
    r.metrics.counters.get(name).copied().unwrap_or(0)
}

/// Flits carried over mesh links (`net.link.<from>.<to>.flits`, memory
/// and user classes; system traffic is not charged to links).
fn link_flits(r: &SimReport) -> u64 {
    r.metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("net.link.") && k.ends_with(".flits"))
        .map(|(_, v)| v)
        .sum()
}
