//! The Graphite-rs benchmark: four named workloads driven through the
//! public APIs of `graphite`, `graphite-workloads` and `graphite-serve`,
//! with output checks, end-to-end metrics and a traced per-layer view.
//!
//! See `README.md` in this directory for why each workload exists and which
//! per-layer metric should move which end-to-end metric.

pub mod serve;
pub mod sim;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use stats::SpanTotals;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fig5_matmul1024", "lu_barrier32", "miss_walk2", "serve_mix"];

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("long_job_ms", "ms"),
    ("slo_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.run_overhead_s", "s"),
    ("memory.new_s", "s"),
    ("network.new_s", "s"),
    ("core.sim_build_s", "s"),
    ("serve.job_build_ms", "ms"),
    ("core.load.count", "count"),
    ("core.load.busy_ns", "ns"),
    ("core.load_ns", "ns"),
    ("core.store.count", "count"),
    ("core.store.busy_ns", "ns"),
    ("core.store_ns", "ns"),
    ("mem.accesses", "count"),
    ("mem.misses", "count"),
    ("mem.mshr.coalesced", "count"),
    ("mem.dir.batch.acquisitions", "count"),
    ("sched.handoffs", "count"),
    ("sched.parks", "count"),
    ("sched.steals", "count"),
    ("sched.threads_spawned", "count"),
    ("sched.threads_peak", "count"),
    ("sync.barrier_waits", "count"),
    ("sync.barrier_releases", "count"),
    ("net.memory.flits", "count"),
    ("user_msgs", "count"),
    ("transport.inter_process", "count"),
    ("transport.inter_machine", "count"),
    ("http.submit_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("http.keepalive_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.preemptions", "count"),
    ("serve.requeue_gap_ms", "ms"),
    ("ckpt.serialize_ms", "ms"),
    ("ckpt.restore_ms", "ms"),
    ("ckpt.bytes", "bytes"),
];

/// Workload size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// This benchmark's executable: each simulation job runs as a fresh
    /// `<exe> --job` child process.
    pub exe: PathBuf,
    /// Where `serve_mix` keeps the service's data directory.
    pub scratch: PathBuf,
    /// Test hook: offset added to every serve reference `sim_cycles`, so a
    /// deliberately wrong reference shows up as failed operations.
    pub serve_reference_skew: u64,
}

/// Min and max of the simulated results across the jobs of a run. Not
/// gated: multi-tile runs are not bit-identical from run to run.
#[derive(Debug, Clone, Default)]
pub struct Determinism {
    pub sim_cycles: Option<(u64, u64)>,
    pub instructions: Option<(u64, u64)>,
    pub accesses: Option<(u64, u64)>,
}

impl Determinism {
    /// Widens the ranges to include one job's results.
    pub fn add(&mut self, cycles: u64, instructions: u64, accesses: u64) {
        for (slot, v) in [
            (&mut self.sim_cycles, cycles),
            (&mut self.instructions, instructions),
            (&mut self.accesses, accesses),
        ] {
            *slot = Some(slot.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
        }
    }

    /// Widens the ranges to include `other`'s.
    pub fn merge(&mut self, other: &Determinism) {
        for (slot, v) in [
            (&mut self.sim_cycles, other.sim_cycles),
            (&mut self.instructions, other.instructions),
            (&mut self.accesses, other.accesses),
        ] {
            if let Some((lo, hi)) = v {
                *slot = Some(slot.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        }
    }

    fn to_json(&self) -> String {
        let range = |r: Option<(u64, u64)>| {
            r.map_or("null".to_owned(), |(lo, hi)| format!("{{\"min\": {lo}, \"max\": {hi}}}"))
        };
        format!(
            "{{\"sim_cycles\": {}, \"instructions\": {}, \"accesses\": {}}}",
            range(self.sim_cycles),
            range(self.instructions),
            range(self.accesses)
        )
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulation jobs, or service jobs sent).
    pub attempted: u64,
    /// Operations whose output check failed (or that never completed).
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub determinism: Determinism,
    pub spans: BTreeMap<String, SpanTotals>,
    /// Free-form facts for the result file.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(attempted: u64) -> Self {
        Outcome { attempted, ..Default::default() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// The metrics this mode prints, in list order, with units. Per-layer
    /// metrics of layers the workload does not exercise read 0.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        list.iter().map(|&(n, u)| (n, self.metrics.get(n).copied().unwrap_or(0.0), u)).collect()
    }

    /// The result line: one JSON object, the last line the benchmark prints.
    pub fn result_line(&self, trace: bool) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (n, v, u)) in self.reported(trace).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(metrics, "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(v));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, opts: &Options) -> Option<Outcome> {
    let mut out = match workload {
        "fig5_matmul1024" | "lu_barrier32" | "miss_walk2" => sim::run(workload, opts),
        "serve_mix" => serve::run(opts),
        _ => return None,
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    Some(out)
}

/// The host and source a result was measured on. Numbers from different
/// hosts are never compared.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// `git` commit of the checkout, when it is a git work tree.
    pub git_rev: Option<String>,
    /// FNV-1a over the simulator's and the benchmark's source files, for
    /// checkouts without git metadata.
    pub source_hash: String,
}

impl Fingerprint {
    /// Fingerprints this host and the source tree under `root`.
    pub fn collect(root: &Path) -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
            .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned());
        Fingerprint { nproc, cpu_model, git_rev: git_rev(root), source_hash: source_hash(root) }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"git_rev\": {}, \"source_hash\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            self.git_rev.as_deref().map_or("null".to_owned(), |r| format!("\"{}\"", escape(r))),
            self.source_hash
        )
    }
}

/// Reads `HEAD` from `root/.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(r).map(|rev| rev.trim().to_owned()))
}

/// FNV-1a over the path and bytes of every `.rs` / `.toml` file under
/// `root/crates`, `root/vendor` and `root/perfbench/src`, in sorted order.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The result file of one run: fingerprint, settings, every metric, the
/// determinism record and span totals.
pub fn result_json(workload: &str, opts: &Options, fp: &Fingerprint, out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (n, v)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{n}\": {}", num(*v));
    }
    let mut spans = String::new();
    for (i, (n, t)) in out.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            spans,
            "{sep}\"{n}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            t.count,
            num(t.total.as_secs_f64()),
            num(t.self_time.as_secs_f64())
        );
    }
    let mut notes = String::new();
    for (i, (k, v)) in out.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(notes, "{sep}\"{k}\": \"{}\"", escape(v));
    }
    format!(
        concat!(
            "{{\n  \"schema\": \"graphite.perfbench.v1\",\n  \"workload\": \"{}\",\n",
            "  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {},\n",
            "  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{{}}},\n",
            "  \"determinism\": {},\n  \"spans\": {{{}}},\n  \"notes\": {{{}}}\n}}\n"
        ),
        workload,
        opts.seed,
        num(opts.seconds),
        opts.trace,
        fp.to_json(),
        out.attempted,
        out.failed,
        metrics,
        out.determinism.to_json(),
        spans,
        notes
    )
}

/// Merges this run's determinism record into `path` (one entry per
/// workload, accumulated across runs in the same checkout) and returns the
/// merged record.
pub fn merge_determinism(path: &Path, workload: &str, run: &Determinism) -> Determinism {
    use graphite_serve::Json;
    let doc = std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok());
    let range = |v: Option<&Json>, key: &str| {
        let r = v?.get(key)?;
        Some((r.get("min")?.as_u64()?, r.get("max")?.as_u64()?))
    };
    let mut all: BTreeMap<String, Determinism> = BTreeMap::new();
    if let Some(Json::Obj(members)) = &doc {
        for (name, v) in members {
            all.insert(
                name.clone(),
                Determinism {
                    sim_cycles: range(Some(v), "sim_cycles"),
                    instructions: range(Some(v), "instructions"),
                    accesses: range(Some(v), "accesses"),
                },
            );
        }
    }
    all.entry(workload.to_owned()).or_default().merge(run);
    let body: Vec<String> =
        all.iter().map(|(n, d)| format!("  \"{n}\": {}", d.to_json())).collect();
    let _ = std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")));
    all.remove(workload).unwrap_or_default()
}
