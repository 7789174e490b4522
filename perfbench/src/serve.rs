//! `serve_mix`: open-loop job traffic through `graphite-serve` over one
//! loopback HTTP connection.
//!
//! One generator thread sends jobs at a fixed rate, whether or not earlier
//! jobs have finished, and polls each outstanding job with
//! `GET /jobs/:id` until it is terminal. A job's latency runs from the time
//! it was due to be sent until its completion is seen, so a stalled
//! generator shows up as latency. Short jobs alternate between tenants
//! `alice` (`mixed`) and `bob` (`memstream`); every 100th submission is a
//! `batch` `spin` job long enough to be checkpoint-preempted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite_config::ServeConfig;
use graphite_serve::{server, workload, JobSpec, Json, Service};

use crate::stats::{mean, median, quantile, Spans};
use crate::{Options, Outcome, Size};

/// A short job meets its SLO when it completes within this.
const SLO_MS: f64 = 100.0;
/// Spec variants per job class, each with its own seed.
const VARIANTS: u64 = 4;
/// Requests timed on a keep-alive connection without quick ACKs.
const KEEPALIVE_PROBES: usize = 5;
/// Service set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// The traffic shape for one size.
struct Mix {
    rate_per_s: f64,
    /// Traffic sent (and checked) before measuring starts, seconds.
    warmup_s: f64,
    alice_iters: u64,
    bob_iters: u64,
    batch_iters: u64,
    /// Every `batch_every`-th submission (offset by half) is a batch job.
    batch_every: u64,
    /// An outstanding job is first polled this long after it was sent (a
    /// short job cannot finish sooner), then every `poll_every`.
    first_poll: Duration,
    poll_every: Duration,
}

fn mix(size: Size) -> Mix {
    match size {
        Size::Full => Mix {
            rate_per_s: 60.0,
            warmup_s: 2.0,
            alice_iters: 20_000,
            bob_iters: 250,
            batch_iters: 3_000_000,
            batch_every: 100,
            first_poll: Duration::from_millis(6),
            poll_every: Duration::from_millis(2),
        },
        Size::Tiny => Mix {
            rate_per_s: 40.0,
            warmup_s: 0.0,
            alice_iters: 2_000,
            bob_iters: 60,
            batch_iters: 1_500_000,
            batch_every: 10,
            first_poll: Duration::from_millis(1),
            poll_every: Duration::from_millis(2),
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Alice,
    Bob,
    Batch,
}

/// A job spec the run may send, with the result of its uninterrupted
/// in-process reference run.
struct RefSpec {
    class: Class,
    spec: JobSpec,
    sim_cycles: u64,
    instructions: u64,
    accesses: u64,
    metrics_json: String,
}

fn spec_seed(seed: u64, class: u64, variant: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (class << 8) ^ variant;
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 29)) & 0x7FFF_FFFF
}

/// The small fixed set of specs this seed sends, each run once in-process
/// as the reference. Returns the specs and each reference build's time.
fn references(opts: &Options, m: &Mix) -> (Vec<RefSpec>, Vec<f64>) {
    let mut refs = Vec::new();
    let mut build_ms = Vec::new();
    let classes = [
        (Class::Alice, "alice", "mixed", m.alice_iters, 20),
        (Class::Bob, "bob", "memstream", m.bob_iters, 100),
        (Class::Batch, "batch", "spin", m.batch_iters, 100),
    ];
    for (ci, (class, tenant, wl, iters, work)) in classes.into_iter().enumerate() {
        let variants = if class == Class::Batch { 1 } else { VARIANTS };
        for v in 0..variants {
            let spec = JobSpec {
                tenant: tenant.into(),
                workload: wl.into(),
                iters,
                work,
                tiles: 2,
                seed: spec_seed(opts.seed, ci as u64, v),
                trace: false,
            };
            let t0 = Instant::now();
            let sim = workload::build_sim(&spec)
                .and_then(|b| b.build())
                .expect("reference job specs build");
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let s = spec.clone();
            let report = sim.run(move |ctx| workload::run(&s, ctx));
            refs.push(RefSpec {
                class,
                spec,
                sim_cycles: report.simulated_cycles.0 + opts.serve_reference_skew,
                instructions: report.total_instructions,
                accesses: report.mem.accesses(),
                metrics_json: report.metrics_json(),
            });
        }
    }
    (refs, build_ms)
}

/// Asks the kernel to acknowledge the next incoming segments at once
/// instead of delaying the ACK (Linux `TCP_QUICKACK`; the flag is not
/// sticky, so it is set again before every response is read).
///
/// The service writes each response as two segments (head, then body)
/// without `TCP_NODELAY`, so on a keep-alive connection the body waits for
/// the client's ACK of the head, which a delayed-ACK client holds for up to
/// 40 ms. Quick ACKs let one connection carry the benchmark's rate; the
/// stall itself is measured separately as `http.keepalive_ms`.
#[cfg(target_os = "linux")]
fn quickack(s: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: the descriptor is open for the lifetime of `s`, and `value`
    // points to a live `i32` whose size is passed as `len`.
    unsafe {
        setsockopt(
            s.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_: &TcpStream) {}

/// A keep-alive HTTP/1.1 client on one connection.
struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Whether to ACK responses at once (see [`quickack`]).
    quick: bool,
}

impl Client {
    fn new(addr: SocketAddr, quick: bool) -> Self {
        Client { addr, conn: None, quick }
    }

    fn connect(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            let r = BufReader::new(s.try_clone()?);
            self.conn = Some((s, r));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One request; reconnects once if the server closed the connection.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        match self.try_request(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.conn = None;
                self.try_request(method, path, body)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let quick = self.quick;
        let (stream, reader) = self.connect()?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes())?;
        if quick {
            quickack(stream);
        }
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("status"))?;
        let (mut len, mut close) = (0usize, false);
        loop {
            let mut h = String::new();
            reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf)?;
        if close {
            self.conn = None;
        }
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// A started service with its HTTP front end.
struct Running {
    svc: Arc<Service>,
    addr: SocketAddr,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(data_dir: &std::path::Path) -> std::io::Result<Running> {
        let svc = Service::start(ServeConfig::default(), data_dir)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let s = Arc::clone(&svc);
        let server = std::thread::spawn(move || server::serve_on(s, listener));
        Ok(Running { svc, addr, server })
    }

    /// Drains the service and joins its HTTP thread. Every client
    /// connection must be closed first.
    fn stop(self) {
        self.svc.drain();
        match self.server.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server error: {e}"),
            Err(_) => eprintln!("perfbench: server thread panicked"),
        }
    }
}

/// One sent job.
struct Sent {
    id: u64,
    due: Duration,
    spec: usize,
    /// Index into [`Phase::short`] for short jobs.
    short: Option<usize>,
    next_poll: Instant,
}

/// What one traffic phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    failed: u64,
    run_s: f64,
    /// Every short job sent: its latency (ms) if it completed and passed
    /// its check.
    short: Vec<Option<f64>>,
    /// Latency of completed batch jobs (ms).
    batch_ms: Vec<f64>,
    instructions: u64,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    preemptions: u64,
    requeue_gap_ms: f64,
    serialize_ms: f64,
    restore_ms: f64,
    ckpt_bytes: u64,
}

fn f(doc: &Json, path: &[&str]) -> f64 {
    let mut v = Some(doc);
    for k in path {
        v = v.and_then(|x| x.get(k));
    }
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Checks a terminal job against its reference; returns whether it passed.
fn check(client: &mut Client, doc: &Json, r: &RefSpec, spans: Option<&mut Spans>) -> bool {
    if doc.get("state").and_then(Json::as_str) != Some("completed") {
        return false;
    }
    if doc.get("sim_cycles").and_then(Json::as_u64) != Some(r.sim_cycles) {
        return false;
    }
    if r.class == Class::Batch && doc.get("preemptions").and_then(Json::as_u64).unwrap_or(0) > 0 {
        // A preempted batch job must match its reference bit for bit.
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        let span = spans.map(|s| (s.enter("http.metrics"), s));
        let got = client.request("GET", &format!("/jobs/{id}/metrics"), "");
        if let Some((sid, s)) = span {
            s.exit(sid);
        }
        return matches!(got, Ok((200, body)) if body == r.metrics_json);
    }
    true
}

/// Sends `n` jobs on the open-loop schedule and waits for all of them.
fn phase(
    client: &mut Client,
    m: &Mix,
    refs: &[RefSpec],
    n: u64,
    first_index: u64,
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut p = Phase::default();
    let interval = Duration::from_secs_f64(1.0 / m.rate_per_s);
    let of = |c: Class| -> Vec<usize> { (0..refs.len()).filter(|&i| refs[i].class == c).collect() };
    let (alice, bob) = (of(Class::Alice), of(Class::Bob));
    let batch = refs.iter().position(|r| r.class == Class::Batch).expect("one batch spec");
    let give_up = interval * n as u32 + Duration::from_secs(60);

    let t0 = Instant::now();
    let mut next = 0u64;
    let mut outstanding: Vec<Sent> = Vec::new();
    let mut rr = 0usize;
    loop {
        let now = t0.elapsed();
        let due = interval * next as u32;
        if next < n && now >= due {
            let k = first_index + next;
            let spec = if k % m.batch_every == m.batch_every / 2 {
                batch
            } else if k.is_multiple_of(2) {
                alice[(k / 2 % alice.len() as u64) as usize]
            } else {
                bob[(k / 2 % bob.len() as u64) as usize]
            };
            let body = refs[spec].spec.to_json().encode();
            p.late_ms.push((now - due).as_secs_f64() * 1e3);
            let sid = spans.as_deref_mut().map(|s| s.enter("http.submit"));
            let t = Instant::now();
            let reply = client.request("POST", "/jobs", &body);
            p.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), sid) {
                s.exit(id);
            }
            p.sent += 1;
            let short = (refs[spec].class != Class::Batch).then(|| {
                p.short.push(None);
                p.short.len() - 1
            });
            let id = match reply {
                Ok((202, body)) => Json::parse(&body).ok().and_then(|j| j.get("id")?.as_u64()),
                _ => None,
            };
            match id {
                Some(id) => {
                    // Dither the first poll over one poll period (golden-
                    // ratio sequence): polls locked to the send time would
                    // round every latency up to the same 2 ms step.
                    let dither = m.poll_every.mul_f64((k as f64 * 0.618_033_988_75).fract());
                    let next_poll = Instant::now() + m.first_poll + dither;
                    outstanding.push(Sent { id, due, spec, short, next_poll });
                }
                None => p.failed += 1,
            }
            next += 1;
            continue;
        }
        if next >= n && outstanding.is_empty() {
            break;
        }
        if now > give_up {
            p.failed += outstanding.len() as u64;
            outstanding.clear();
            break;
        }
        // Poll the next outstanding job that is due for a poll.
        let now_i = Instant::now();
        let pick = (0..outstanding.len())
            .map(|j| (rr + j) % outstanding.len())
            .find(|&j| outstanding[j].next_poll <= now_i);
        let Some(j) = pick else {
            // Sleep until the next send or poll is due; the generator shares
            // the host's cores with the service's workers.
            let send_in = if next < n { due.saturating_sub(now) } else { Duration::MAX };
            let poll_in = outstanding
                .iter()
                .map(|o| o.next_poll.saturating_duration_since(now_i))
                .min()
                .unwrap_or(Duration::MAX);
            std::thread::sleep(send_in.min(poll_in).min(Duration::from_millis(5)));
            continue;
        };
        rr = j + 1;
        let id = outstanding[j].id;
        let sid = spans.as_deref_mut().map(|s| s.enter("http.poll"));
        let t = Instant::now();
        let reply = client.request("GET", &format!("/jobs/{id}"), "");
        p.poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(s), Some(sid)) = (spans.as_deref_mut(), sid) {
            s.exit(sid);
        }
        outstanding[j].next_poll = Instant::now() + m.poll_every;
        let doc = match reply {
            Ok((200, body)) => Json::parse(&body).ok(),
            _ => None,
        };
        let Some(doc) = doc else {
            p.failed += 1;
            outstanding.swap_remove(j);
            continue;
        };
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
        if state == "queued" || state == "running" {
            continue;
        }
        let done = outstanding.swap_remove(j);
        let latency_ms = (t0.elapsed() - done.due).as_secs_f64() * 1e3;
        let r = &refs[done.spec];
        if !check(client, &doc, r, spans.as_deref_mut()) {
            eprintln!("perfbench: job {} failed its check: {}", done.id, doc.encode());
            p.failed += 1;
            continue;
        }
        p.instructions += r.instructions;
        match done.short {
            Some(k) => p.short[k] = Some(latency_ms),
            None => p.batch_ms.push(latency_ms),
        }
        p.queue_wait_ms.push(f(&doc, &["queue_wait_ms"]));
        p.run_ms.push(f(&doc, &["run_ms"]));
        p.preemptions += doc.get("preemptions").and_then(Json::as_u64).unwrap_or(0);
        p.requeue_gap_ms += f(&doc, &["preempt_cost", "requeue_gap_ms"]);
        p.serialize_ms += f(&doc, &["preempt_cost", "serialize_ms"]);
        p.restore_ms += f(&doc, &["preempt_cost", "restore_ms"]);
        p.ckpt_bytes += f(&doc, &["preempt_cost", "ckpt_bytes"]) as u64;
    }
    p.run_s = t0.elapsed().as_secs_f64();
    p
}

/// Runs `serve_mix` for the options' time budget.
pub fn run(opts: &Options) -> Outcome {
    let m = mix(opts.size);
    let (refs, build_ms) = references(opts, &m);
    let mut spans = Spans::default();

    // Set up several times; the last service carries the traffic.
    let mut setup_s = Vec::new();
    let mut svc = None;
    // One data directory for every start-up, as a restarted service would
    // reuse its own; deleting files between start-ups would put file-system
    // work into the timings.
    let dir = opts.scratch.join("data");
    let _ = std::fs::remove_dir_all(&dir);
    for i in 0..SETUPS {
        let t = Instant::now();
        let id = spans.enter("serve.start");
        let r = Running::start(&dir);
        spans.exit(id);
        setup_s.push(t.elapsed().as_secs_f64());
        match r {
            Ok(r) if i + 1 == SETUPS => svc = Some(r),
            Ok(r) => r.stop(),
            Err(e) => {
                eprintln!("perfbench: service start failed: {e}");
                let mut out = Outcome::new(1);
                out.failed = 1;
                return out;
            }
        }
    }
    let svc = svc.expect("last set-up kept");
    let mut client = Client::new(svc.addr, true);

    // A service that has run for a while is what users meet: the first
    // seconds of traffic (thread and allocator warm-up) are sent and
    // checked but not measured.
    let warm = phase(&mut client, &m, &refs, (m.warmup_s * m.rate_per_s) as u64, 0, None);
    let total = (opts.seconds * m.rate_per_s).round().max(2.0) as u64;
    // Trace runs send the first half untraced and the second half traced,
    // so the traced run also measures its own overhead on `run_s`.
    let (plain, traced) = if opts.trace {
        let a = phase(&mut client, &m, &refs, total / 2, 0, None);
        let b = phase(&mut client, &m, &refs, total - total / 2, total / 2, Some(&mut spans));
        (a, Some(b))
    } else {
        (phase(&mut client, &m, &refs, total, 0, None), None)
    };
    drop(client);
    // What a client without quick ACKs meets on a keep-alive connection
    // (see `quickack`), probed on a fresh connection after the traffic.
    let keepalive_ms = opts.trace.then(|| {
        let mut slow = Client::new(svc.addr, false);
        let ms: Vec<f64> = (0..KEEPALIVE_PROBES)
            .filter_map(|_| {
                let t = Instant::now();
                slow.request("GET", "/healthz", "").ok()?;
                Some(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        median(&ms)
    });
    svc.stop();
    let _ = std::fs::remove_dir_all(&opts.scratch);

    let mut out = Outcome::new(warm.sent + plain.sent + traced.as_ref().map_or(0, |t| t.sent));
    out.failed = warm.failed + plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    out.set("setup_s", median(&setup_s));
    let us: Vec<String> = setup_s.iter().map(|s| format!("{:.0}", s * 1e6)).collect();
    out.note("setup_us", us.join(" "));
    out.set("run_s", plain.run_s);
    out.set("sim_mips", plain.instructions as f64 / plain.run_s / 1e6);
    let done: Vec<f64> = plain.short.iter().flatten().copied().collect();
    let on_time = done.iter().filter(|&&ms| ms <= SLO_MS).count();
    out.set("job_p50_ms", median(&done));
    out.set("job_p95_ms", quantile(&done, 0.95).unwrap_or(0.0));
    out.set("long_job_ms", median(&plain.batch_ms));
    // Refused and failed short jobs count as misses.
    out.set("slo_frac", on_time as f64 / plain.short.len().max(1) as f64);
    out.note("short_jobs", plain.short.len().to_string());
    out.note("batch_jobs", plain.batch_ms.len().to_string());
    out.note("rate_per_s", m.rate_per_s.to_string());
    for r in &refs {
        out.determinism.add(r.sim_cycles, r.instructions, r.accesses);
    }
    if let Some(t) = &traced {
        out.set("trace.run_overhead_s", t.run_s - plain.run_s);
        out.set("serve.job_build_ms", median(&build_ms));
        out.set("http.submit_ms", mean(&t.submit_ms));
        out.set("http.poll_ms", mean(&t.poll_ms));
        out.set("http.keepalive_ms", keepalive_ms.unwrap_or(0.0));
        out.set("gen.late_ms", mean(&t.late_ms));
        out.set("serve.queue_wait_ms", mean(&t.queue_wait_ms));
        out.set("serve.run_ms", mean(&t.run_ms));
        out.set("serve.preemptions", t.preemptions as f64);
        out.set("serve.requeue_gap_ms", t.requeue_gap_ms);
        out.set("ckpt.serialize_ms", t.serialize_ms);
        out.set("ckpt.restore_ms", t.restore_ms);
        out.set("ckpt.bytes", t.ckpt_bytes as f64);
    }
    out.spans = spans.totals().into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    out
}
