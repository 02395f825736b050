//! `starbench` — drives `dwc serve` over loopback with the star schema.
//!
//! ```text
//! starbench --dwc <path> --workload star-ingest|star-query --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the server loads
//! `examples/specs/starschema.dwc`); scratch files go to
//! `.starbench_work/`. The last stdout line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer ones
//! under `--trace 1`. The exit code is non-zero when any check failed.

mod replay;

use starbench::client::{Conn, QueryReply};
use starbench::gen::{self, Inputs};
use starbench::json::Json;
use starbench::server::{self, ProcSample, Server};
use starbench::stats::{beyond, greatest, least, median, quantile};
use starbench::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The spec the server is started with, relative to the repository root.
const SPEC: &str = "examples/specs/starschema.dwc";
/// Scratch directory, relative to the repository root.
const WORK: &str = ".starbench_work";
/// The one source every report comes from.
const SOURCE: &str = "outbox";
/// Outstanding reports while loading the initial state.
const LOAD_WINDOW: usize = 256;
/// How often the open-loop writer looks for acks between sends.
const POLL: Duration = Duration::from_micros(200);
/// Rounds every run makes, even past `--seconds`: the best of three
/// rounds, and their median set-up, shrug off a round slowed by a
/// neighbour on the machine.
const MIN_ROUNDS: usize = 3;
/// No round starts unless the longest round so far would still end by
/// then; keeps a run, replay included, well inside the 180 s it may take.
const LAST_ROUND_END: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Writer {
    /// Keeps `window` reports outstanding until all are acked.
    Window(usize),
    /// Sends on a seeded Poisson schedule of `per_s` reports a second.
    OpenLoop { per_s: u32 },
}

/// One workload: inputs, writer, reader and how often to repeat.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    why: &'static str,
    /// Initial state at `ScaleConfig::scaled(scale)`.
    scale: f64,
    /// Phase reports per round (fixed work, never a fixed duration).
    reports: usize,
    writer: Writer,
    /// The reader's closed loop: the next query leaves `think` after the
    /// previous reply's last byte, and no sooner than `period` after the
    /// previous query was due.
    think: Duration,
    period: Duration,
    /// `Some(n)`: exactly `n` queries; `None`: until the writer is done.
    queries: Option<usize>,
    /// Indices into `dwc_starschema::queries::workload()`.
    query_set: &'static [usize],
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "star-ingest",
            why: "backlog drain: sequencing, planner, maintenance, WAL group commit and a long-WAL recovery",
            scale: 0.02,
            reports: 3000,
            writer: Writer::Window(256),
            think: Duration::ZERO,
            period: Duration::from_millis(30),
            queries: None,
            query_set: &[0, 1, 3, 5],
        },
        Workload {
            name: "star-query",
            why: "analyst mix: query translation, relalg joins and reply formatting, reply stall exposed",
            scale: 0.05,
            reports: 600,
            writer: Writer::OpenLoop { per_s: 100 },
            think: Duration::from_millis(10),
            period: Duration::ZERO,
            queries: Some(90),
            query_set: &[0, 1, 2, 3, 4, 5, 6, 7],
        },
    ]
}

struct Args {
    dwc: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: starbench --dwc PATH --workload star-ingest|star-query --seed N \
                 --seconds S --trace 0|1";
    let mut a = Args {
        dwc: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(usage)?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number\n{usage}"))
        };
        match flag.as_str() {
            "--dwc" => a.dwc = PathBuf::from(value),
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            _ => return Err(usage.to_owned()),
        }
    }
    if a.dwc.as_os_str().is_empty() || a.workload.is_empty() || a.seconds == 0 {
        return Err(usage.to_owned());
    }
    Ok(a)
}

/// A workload query: name, wire text, and its expected answer on the
/// generator's final source state (rows as printed).
struct Query {
    name: &'static str,
    text: String,
    expr: dwcomplements::relalg::RaExpr,
    expected: BTreeSet<String>,
}

/// What one report went through.
#[derive(Clone, Copy, Debug)]
struct Sent {
    /// When it was due (open loop) or sent (window).
    due: Instant,
    sent: Instant,
    first: Option<Instant>,
    end: Option<Instant>,
    applied: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records one ack or `err` line against the outstanding reports;
/// returns how many reports it resolved.
fn absorb(
    line: &starbench::client::Line,
    seq0: u64,
    recs: &mut [Sent],
    errors: &mut Vec<String>,
) -> Result<usize, String> {
    let f: Vec<&str> = line.text.splitn(4, ' ').collect();
    match f.as_slice() {
        ["ack", _epoch, seq, outcome] => {
            let idx = seq
                .parse::<u64>()
                .ok()
                .and_then(|s| s.checked_sub(seq0))
                .map(|i| i as usize);
            match idx.and_then(|i| recs.get_mut(i)) {
                Some(r) if r.end.is_none() => {
                    r.first = Some(line.first);
                    r.end = Some(line.end);
                    r.applied = outcome.starts_with("applied");
                    if !r.applied {
                        errors.push(line.text.clone());
                    }
                    Ok(1)
                }
                _ => Err(format!("ack for a report not outstanding: `{}`", line.text)),
            }
        }
        ["err", ..] => {
            errors.push(line.text.clone());
            Ok(1)
        }
        _ => Err(format!(
            "unexpected line on the writer connection: `{}`",
            line.text
        )),
    }
}

/// Sends `lines` keeping at most `window` unacked.
fn drain(
    conn: &mut Conn,
    lines: &[String],
    seq0: u64,
    window: usize,
    errors: &mut Vec<String>,
) -> Result<Vec<Sent>, String> {
    let n = lines.len();
    let mut recs: Vec<Sent> = Vec::with_capacity(n);
    let (mut next, mut resolved) = (0, 0);
    while resolved < n {
        while next < n && next - resolved < window {
            let at = conn.send(&lines[next]).map_err(|e| format!("send: {e}"))?;
            recs.push(Sent {
                due: at,
                sent: at,
                first: None,
                end: None,
                applied: false,
            });
            next += 1;
        }
        let line = conn
            .next_line()
            .map_err(|e| format!("waiting for acks: {e}"))?;
        resolved += absorb(&line, seq0, &mut recs, errors)?;
        while conn.buffered() > 0 {
            let line = conn.next_line().map_err(|e| e.to_string())?;
            resolved += absorb(&line, seq0, &mut recs, errors)?;
        }
    }
    Ok(recs)
}

/// Sends `lines[i]` at `offsets[i]` after the start, reading acks in
/// between.
fn open_loop(
    conn: &mut Conn,
    lines: &[String],
    seq0: u64,
    offsets: &[Duration],
    errors: &mut Vec<String>,
) -> Result<Vec<Sent>, String> {
    let n = lines.len();
    let mut recs: Vec<Sent> = Vec::with_capacity(n);
    let (mut next, mut resolved) = (0, 0);
    let start = Instant::now();
    while resolved < n {
        while let Some(line) = conn.poll_line().map_err(|e| e.to_string())? {
            resolved += absorb(&line, seq0, &mut recs, errors)?;
        }
        if next < n {
            let due = start + offsets[next];
            let now = Instant::now();
            if now >= due {
                let at = conn.send(&lines[next]).map_err(|e| format!("send: {e}"))?;
                recs.push(Sent {
                    due,
                    sent: at,
                    first: None,
                    end: None,
                    applied: false,
                });
                next += 1;
            } else {
                std::thread::sleep((due - now).min(POLL));
            }
        } else if resolved < n {
            let line = conn
                .next_line()
                .map_err(|e| format!("waiting for acks: {e}"))?;
            resolved += absorb(&line, seq0, &mut recs, errors)?;
        }
    }
    Ok(recs)
}

/// The reader's side of a phase.
#[derive(Default)]
struct ReaderOut {
    replies: Vec<(usize, QueryReply)>,
    /// How late each query left against when it was due.
    late_ms: Vec<f64>,
    threads_peak: u64,
}

fn reader(
    conn: &mut Conn,
    w: &Workload,
    queries: &[Query],
    done: &AtomicBool,
    pid: Option<u32>,
) -> Result<ReaderOut, String> {
    let mut out = ReaderOut::default();
    let start = Instant::now();
    let (mut prev_due, mut prev_end) = (start, start);
    // Without a fixed count the reader stops once the writer is done.
    let stop = || w.queries.is_none() && done.load(Ordering::SeqCst);
    for i in 0..w.queries.unwrap_or(usize::MAX) {
        let due = if i == 0 {
            start
        } else {
            (prev_due + w.period).max(prev_end + w.think)
        };
        prev_due = due;
        // Sleep out the think time in short steps, so a finished writer
        // ends the loop promptly.
        while !stop() {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        if stop() {
            break;
        }
        let q = w.query_set[i % w.query_set.len()];
        let reply = conn
            .query(&queries[q].text)
            .map_err(|e| format!("{}: {e}", queries[q].name))?;
        out.late_ms
            .push(ms(reply.sent.saturating_duration_since(due)));
        prev_end = reply.end;
        if let Some(pid) = pid {
            out.threads_peak = out
                .threads_peak
                .max(server::status_field(pid, "Threads").unwrap_or(0));
        }
        out.replies.push((q, reply));
    }
    Ok(out)
}

/// Asks Q1–Q8 and compares each answer with `Q(d)` on the generator's
/// state, as relations. Returns the number of matching answers.
fn verify(
    conn: &mut Conn,
    queries: &[Query],
    when: &str,
    failures: &mut Vec<String>,
) -> Result<u64, String> {
    let mut ok = 0;
    for q in queries {
        let reply = conn
            .query(&q.text)
            .map_err(|e| format!("{when} {}: {e}", q.name))?;
        let got: Option<BTreeSet<String>> = reply.rows.map(|r| r.into_iter().collect());
        if got.as_ref() == Some(&q.expected) {
            ok += 1;
        } else {
            let got = got.map_or("an error".to_owned(), |g| format!("{} row(s)", g.len()));
            failures.push(format!(
                "{when}: {} answered {got}, expected {} row(s)",
                q.name,
                q.expected.len()
            ));
        }
    }
    Ok(ok)
}

/// Everything one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    load_reports: usize,
    phase_s: f64,
    phase_reports: usize,
    ack_ms: Vec<f64>,
    ack_first_ms: Vec<f64>,
    ack_tail_ms: Vec<f64>,
    query_ms: Vec<f64>,
    query_first_ms: Vec<f64>,
    query_tail_ms: Vec<f64>,
    reply_bytes: Vec<f64>,
    late_ms: Vec<f64>,
    recovery_s: f64,
    records_replayed: Option<f64>,
    rss_mb: f64,
    disk_bytes: u64,
    input_bytes: u64,
    phase_input_bytes: u64,
    attempted: u64,
    ok: u64,
    failures: Vec<String>,
    stats: Option<(BTreeMap<String, f64>, BTreeMap<String, f64>)>,
    procs: Option<(ProcSample, ProcSample)>,
    threads_peak: u64,
    phase_queries: usize,
    /// Share of the machine's CPU time the hypervisor took during the
    /// round (`steal` in `/proc/stat`).
    steal_share: Option<f64>,
    /// A copy of the store as the SIGKILL left it (traced rounds).
    killed_copy: Option<PathBuf>,
}

/// `stats` fields as numbers; `planner=plans:1,incr:2,…` splits into
/// `planner.plans`, `planner.incr`, ….
fn stats_numbers(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in conn.stats().map_err(|e| format!("stats: {e}"))? {
        if let Ok(x) = v.parse::<f64>() {
            out.insert(k, x);
        } else {
            for part in v.split(',') {
                if let Some((sub, x)) = part.split_once(':') {
                    if let Ok(x) = x.parse::<f64>() {
                        out.insert(format!("{k}.{sub}"), x);
                    }
                }
            }
        }
    }
    Ok(out)
}

struct Ctx<'a> {
    args: &'a Args,
    w: &'a Workload,
    queries: &'a [Query],
    load_lines: &'a [String],
    phase_lines: &'a [String],
    /// Open-loop send offsets (empty for a window writer).
    offsets: &'a [Duration],
    work: &'a Path,
}

fn run_round(cx: &Ctx, index: usize, traced: bool, trace: &mut Trace) -> Result<Round, String> {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let cpu0 = server::host_cpu();
    let dir = cx.work.join(format!("store-{index}"));
    let log = cx.work.join(format!("serve-{index}.log"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();

    // Set-up: spawn on an empty dir → last ack of the initial state.
    let t0 = Instant::now();
    let srv = Server::spawn(&cx.args.dwc, SPEC, &dir, &log).map_err(io)?;
    let mut wconn = Conn::connect(&srv.addr).map_err(io)?;
    let (epoch, seq) = wconn.hello(SOURCE).map_err(io)?;
    if (epoch, seq) != (0, 0) {
        return Err(format!(
            "fresh server granted epoch {epoch} seq {seq}, expected 0 0"
        ));
    }
    let load = drain(&mut wconn, cx.load_lines, 0, LOAD_WINDOW, &mut r.failures)?;
    r.setup_s = t0.elapsed().as_secs_f64();
    r.load_reports = load.len();
    r.attempted += load.len() as u64;
    r.ok += load.iter().filter(|s| s.applied).count() as u64;
    r.input_bytes += cx
        .load_lines
        .iter()
        .map(|l| l.len() as u64 + 1)
        .sum::<u64>();

    // Phase: one writer (this thread) and one reader (a second thread).
    let mut rconn = Conn::connect(&srv.addr).map_err(io)?;
    let before = if traced {
        Some((
            stats_numbers(&mut rconn)?,
            server::sample(srv.pid).map_err(io)?,
        ))
    } else {
        None
    };
    let done = AtomicBool::new(false);
    let seq0 = cx.load_lines.len() as u64;
    let pid = traced.then_some(srv.pid);
    let (phase, reads) = std::thread::scope(|s| {
        let rconn = &mut rconn;
        let done = &done;
        let reader = s.spawn(move || reader(rconn, cx.w, cx.queries, done, pid));
        let mut errors = Vec::new();
        let phase = match cx.w.writer {
            Writer::Window(window) => drain(&mut wconn, cx.phase_lines, seq0, window, &mut errors),
            Writer::OpenLoop { .. } => {
                open_loop(&mut wconn, cx.phase_lines, seq0, cx.offsets, &mut errors)
            }
        };
        done.store(true, Ordering::SeqCst);
        let reads = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".to_owned()));
        (phase.map(|p| (p, errors)), reads)
    });
    let (phase, errors) = phase?;
    let reads = reads?;
    r.failures.extend(errors);
    if let Some((stats0, proc0)) = before {
        let proc1 = server::sample(srv.pid).map_err(io)?;
        let stats1 = stats_numbers(&mut rconn)?;
        r.stats = Some((stats0, stats1));
        r.procs = Some((proc0, proc1));
    }
    r.rss_mb = server::status_field(srv.pid, "VmHWM").unwrap_or(0) as f64 / 1024.0;

    let first_due = phase.first().map(|s| s.due);
    let last_end = phase.iter().filter_map(|s| s.end).max();
    if let (Some(a), Some(b)) = (first_due, last_end) {
        r.phase_s = b.saturating_duration_since(a).as_secs_f64();
    }
    r.phase_reports = phase.len();
    r.attempted += phase.len() as u64;
    r.phase_input_bytes = cx.phase_lines.iter().map(|l| l.len() as u64 + 1).sum();
    r.input_bytes += r.phase_input_bytes;
    for (i, s) in phase.iter().enumerate() {
        if let (Some(first), Some(end)) = (s.first, s.end) {
            r.ok += u64::from(s.applied);
            r.ack_ms.push(ms(end - s.due));
            r.ack_first_ms
                .push(ms(first.saturating_duration_since(s.sent)));
            r.ack_tail_ms.push(ms(end - first));
            if let Writer::OpenLoop { .. } = cx.w.writer {
                r.late_ms.push(ms(s.sent.saturating_duration_since(s.due)));
            }
            if traced {
                // Request ids: round in the high bits, then the report's seq
                // (or, with bit 31 set, the query's index in the round).
                let req = ((index as u64) << 32) | (seq0 + i as u64);
                let root = trace.record("socket.report", None, req, s.due, end, false, !s.applied);
                if s.sent > s.due {
                    trace.record("loadgen.late", Some(root), req, s.due, s.sent, true, false);
                }
                trace.record(
                    "serve.first_byte",
                    Some(root),
                    req,
                    s.sent,
                    first,
                    true,
                    false,
                );
                trace.record("serve.reply_tail", Some(root), req, first, end, true, false);
            }
        }
    }
    r.phase_queries = reads.replies.len();
    r.attempted += reads.replies.len() as u64;
    r.late_ms.extend(&reads.late_ms);
    r.threads_peak = reads.threads_peak;
    for (n, (q, reply)) in reads.replies.iter().enumerate() {
        let ok = reply.rows.is_some();
        r.ok += u64::from(ok);
        if !ok {
            r.failures
                .push(format!("phase query {} failed", cx.queries[*q].name));
        }
        r.query_ms.push(ms(reply.end - reply.sent));
        r.query_first_ms.push(ms(reply.first - reply.sent));
        r.query_tail_ms.push(ms(reply.end - reply.first));
        r.reply_bytes.push(reply.bytes as f64);
        if traced {
            let req = ((index as u64) << 32) | (1 << 31) | n as u64;
            let root = trace.record("socket.query", None, req, reply.sent, reply.end, false, !ok);
            trace.record(
                "serve.first_byte",
                Some(root),
                req,
                reply.sent,
                reply.first,
                true,
                false,
            );
            trace.record(
                "serve.reply_tail",
                Some(root),
                req,
                reply.first,
                reply.end,
                true,
                false,
            );
        }
    }

    // Theorem 3.1 check after the phase, then SIGKILL and restart.
    r.attempted += cx.queries.len() as u64;
    r.ok += verify(&mut rconn, cx.queries, "after the phase", &mut r.failures)?;
    drop((wconn, rconn));
    srv.kill().map_err(io)?;
    r.disk_bytes = server::dir_bytes(&dir).map_err(io)?;
    if traced {
        let copy = cx.work.join(format!("killed-{index}"));
        let _ = std::fs::remove_dir_all(&copy);
        server::copy_dir(&dir, &copy).map_err(io)?;
        r.killed_copy = Some(copy);
    }

    let t1 = Instant::now();
    let srv = Server::spawn(&cx.args.dwc, SPEC, &dir, &log).map_err(io)?;
    let mut c = Conn::connect(&srv.addr).map_err(io)?;
    c.send("epoch").map_err(io)?;
    let reply = c.next_line().map_err(io)?;
    r.recovery_s = t1.elapsed().as_secs_f64();
    if !reply.text.starts_with("epoch ") {
        r.failures
            .push(format!("restart: `epoch` answered `{}`", reply.text));
    }
    let banner = std::fs::read_to_string(&log).unwrap_or_default();
    r.records_replayed = banner.lines().find_map(|l| {
        let rest = l.strip_prefix("recovered from ")?;
        let (_, n) = rest.split_once('(')?;
        n.split_whitespace().next()?.parse().ok()
    });
    // Every acked report must be durable: the grant resumes after all of
    // them, and the eight answers are unchanged.
    let total = (cx.load_lines.len() + cx.phase_lines.len()) as u64;
    let (_, resume) = c.hello(SOURCE).map_err(io)?;
    r.attempted += 1;
    if resume == total {
        r.ok += 1;
    } else {
        r.failures.push(format!(
            "restart resumes at seq {resume}, but {total} reports were acked"
        ));
    }
    r.attempted += cx.queries.len() as u64;
    r.ok += verify(&mut c, cx.queries, "after restart", &mut r.failures)?;
    drop(c);
    srv.kill().map_err(io)?;
    let _ = std::fs::remove_dir_all(&dir);
    r.steal_share = server::steal_share(cpu0, server::host_cpu());
    Ok(r)
}

/// Metrics in output order, with each one's sample count.
#[derive(Default)]
struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
    samples: BTreeMap<String, Json>,
}

impl Metrics {
    /// Adds a metric and its sample count. A metric without samples (a
    /// ratio over zero events) is printed as 0 with a sample count of 0,
    /// so every metric is always present.
    fn push(&mut self, name: &str, v: Option<f64>, unit: &'static str, n: usize) {
        self.rows.push((name.to_owned(), v.unwrap_or(0.0), unit));
        let n = if v.is_some() { n } else { 0 };
        self.samples.insert(name.to_owned(), Json::from(n));
    }
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> Option<f64>) -> Vec<f64> {
    rounds.iter().filter_map(|r| f(r)).collect()
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then_some(a / b)
}

/// The least over rounds of each round's `q`-quantile of `f`, plus the
/// smallest per-round sample count and count beyond the quantile.
fn round_quantile(
    rounds: &[&Round],
    f: impl Fn(&Round) -> &Vec<f64>,
    q: f64,
) -> (Option<f64>, usize, usize) {
    let per: Vec<f64> = rounds.iter().filter_map(|r| quantile(f(r), q)).collect();
    let fewest = rounds.iter().map(|r| f(r).len()).min().unwrap_or(0);
    let beyond_least = rounds.iter().map(|r| beyond(f(r), q)).min().unwrap_or(0);
    (least(&per), fewest, beyond_least)
}

/// Every round does the same work on the same inputs, so a round's times
/// differ from another's only by what the machine took from it: a
/// neighbour's load or the hypervisor's steal only ever adds time. A
/// time or rate is therefore the best round's (least time, greatest
/// rate), which needs one calm round of three where a median needs two.
/// `setup_s` stays the median of the run's set-ups; sizes are medians.
fn end_to_end(rounds: &[&Round], m: &mut Metrics) {
    let setup = per_round(rounds, |r| Some(r.setup_s));
    m.push("setup_s", median(&setup), "s", setup.len());
    let rate = per_round(rounds, |r| ratio(r.phase_reports as f64, r.phase_s));
    m.push("acks_per_s", greatest(&rate), "1/s", rate.len());
    for (name, f, q) in [
        (
            "ack_p50_ms",
            (|r: &Round| &r.ack_ms) as fn(&Round) -> &Vec<f64>,
            0.5,
        ),
        ("ack_p99_ms", |r: &Round| &r.ack_ms, 0.99),
        ("query_p50_ms", |r: &Round| &r.query_ms, 0.5),
        ("query_p95_ms", |r: &Round| &r.query_ms, 0.95),
    ] {
        let (v, fewest, beyond_least) = round_quantile(rounds, f, q);
        m.push(name, v, "ms", fewest);
        m.samples
            .insert(format!("{name}.beyond"), Json::from(beyond_least));
    }
    let rec = per_round(rounds, |r| Some(r.recovery_s));
    m.push("recovery_s", least(&rec), "s", rec.len());
    let (ok, att) = rounds
        .iter()
        .fold((0, 0), |(o, a), r| (o + r.ok, a + r.attempted));
    m.push(
        "ok_share",
        ratio(ok as f64, att as f64),
        "share",
        att as usize,
    );
    let rss = per_round(rounds, |r| Some(r.rss_mb));
    m.push("server_rss_mb", median(&rss), "MiB", rss.len());
    let disk = per_round(rounds, |r| ratio(r.disk_bytes as f64, r.input_bytes as f64));
    m.push(
        "disk_bytes_per_input_byte",
        median(&disk),
        "B/B",
        disk.len(),
    );
    m.samples.insert("rounds".into(), Json::from(rounds.len()));
}

fn stat_delta(r: &Round, key: &str) -> Option<f64> {
    let (a, b) = r.stats.as_ref()?;
    Some(b.get(key)? - a.get(key)?)
}

fn per_layer_socket(traced: &[&Round], untraced: &[&Round], m: &mut Metrics) {
    let tail = pooled(traced, |r| &r.query_tail_ms);
    m.push(
        "serve.reply_tail_ms_p50",
        quantile(&tail, 0.5),
        "ms",
        tail.len(),
    );
    m.push(
        "serve.reply_tail_ms_p95",
        quantile(&tail, 0.95),
        "ms",
        tail.len(),
    );
    let first = pooled(traced, |r| &r.query_first_ms);
    m.push(
        "serve.first_byte_ms_p50",
        quantile(&first, 0.5),
        "ms",
        first.len(),
    );
    let at = pooled(traced, |r| &r.ack_tail_ms);
    m.push(
        "serve.ack_reply_tail_ms_p50",
        quantile(&at, 0.5),
        "ms",
        at.len(),
    );
    let af = pooled(traced, |r| &r.ack_first_ms);
    m.push(
        "serve.ack_first_byte_ms_p50",
        quantile(&af, 0.5),
        "ms",
        af.len(),
    );
    let bytes = pooled(traced, |r| &r.reply_bytes);
    m.push(
        "serve.reply_bytes_p50",
        quantile(&bytes, 0.5),
        "B",
        bytes.len(),
    );

    let stat = |f: &dyn Fn(&Round) -> Option<f64>| per_round(traced, f);
    let apb = stat(&|r| ratio(stat_delta(r, "acks")?, stat_delta(r, "batches")?));
    m.push("server.acks_per_batch", median(&apb), "count", apb.len());
    let plans = stat(&|r| stat_delta(r, "planner.plans"));
    m.push("planner.plans", median(&plans), "count", plans.len());
    let incr = stat(&|r| {
        ratio(
            stat_delta(r, "planner.incr")?,
            stat_delta(r, "planner.plans")?,
        )
    });
    m.push(
        "planner.incremental_share",
        median(&incr),
        "share",
        incr.len(),
    );
    let mis = stat(&|r| stat_delta(r, "planner.mispredict"));
    m.push("planner.mispredictions", median(&mis), "count", mis.len());
    let syncs = stat(&|r| ratio(stat_delta(r, "wal_syncs")?, stat_delta(r, "acks")?));
    m.push(
        "storage.wal_syncs_per_ack",
        median(&syncs),
        "count",
        syncs.len(),
    );

    let procs = |f: &dyn Fn(&Round, &ProcSample, &ProcSample) -> Option<f64>| {
        per_round(traced, |r| r.procs.as_ref().and_then(|(a, b)| f(r, a, b)))
    };
    let transient = procs(&|_, a, b| server::transient_share(a, b));
    m.push(
        "exec.transient_thread_cpu_share",
        median(&transient),
        "share",
        transient.len(),
    );
    let cpu = procs(&|r, a, b| {
        ratio(
            b.cpu_ms - a.cpu_ms,
            (r.phase_reports + r.phase_queries) as f64,
        )
    });
    m.push("server.cpu_ms_per_op", median(&cpu), "ms", cpu.len());
    let peak = per_round(traced, |r| Some(r.threads_peak as f64));
    m.push(
        "server.threads_peak",
        peak.iter().copied().reduce(f64::max),
        "count",
        peak.len(),
    );
    // Replies leave through send(2), which wchar and syscw do not count:
    // these are the store's file writes.
    let wchar = procs(&|r, a, b| ratio((b.wchar - a.wchar) as f64, r.phase_input_bytes as f64));
    m.push(
        "storage.wchar_per_input_byte",
        median(&wchar),
        "B/B",
        wchar.len(),
    );
    let syscw = procs(&|r, a, b| ratio((b.syscw - a.syscw) as f64, stat_delta(r, "batches")?));
    m.push(
        "storage.syscw_per_batch",
        median(&syscw),
        "count",
        syscw.len(),
    );

    let replayed = per_round(traced, |r| r.records_replayed);
    m.push(
        "recovery.records_replayed",
        median(&replayed),
        "count",
        replayed.len(),
    );
    let per_rec = per_round(traced, |r| ratio(r.recovery_s * 1e3, r.records_replayed?));
    m.push(
        "recovery.ms_per_record",
        median(&per_rec),
        "ms",
        per_rec.len(),
    );
    let load_rate = per_round(traced, |r| ratio(r.load_reports as f64, r.setup_s));
    m.push(
        "setup.load_acks_per_s",
        median(&load_rate),
        "1/s",
        load_rate.len(),
    );
    let late = pooled(traced, |r| &r.late_ms);
    m.push(
        "loadgen.late_ms_p99",
        quantile(&late, 0.99),
        "ms",
        late.len(),
    );
    let tr = median(&per_round(traced, |r| Some(r.phase_s)));
    let un = median(&per_round(untraced, |r| Some(r.phase_s)));
    let overhead = tr.zip(un).and_then(|(t, u)| ratio(t - u, u));
    m.push(
        "trace.overhead_share",
        overhead,
        "share",
        traced.len().min(untraced.len()),
    );
}

/// FNV-1a over the sources the two binaries are built from, so a result
/// names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            if let Ok(rd) = std::fs::read_dir(p) {
                for e in rd.flatten() {
                    walk(&e.path(), out);
                }
            }
        } else {
            out.push(p.to_owned());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "examples/specs",
        "starbench/src",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("starbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    let mut mj = Json::obj();
    for (name, v, unit) in &metrics.rows {
        mj.set(name, Json::obj().with("value", *v).with("unit", *unit));
    }
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", mj)
}

/// Runs the workload; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let all = workloads();
    let w = all
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload `{}` (star-ingest, star-query)",
                args.workload
            )
        })?;
    if !Path::new(SPEC).is_file() {
        return Err(format!("{SPEC} not found: run from the repository root"));
    }
    if !args.dwc.is_file() {
        return Err(format!("{}: no such binary", args.dwc.display()));
    }

    let t_gen = Instant::now();
    let inputs: Inputs = gen::inputs(w.scale, w.reports, args.seed);
    let queries: Vec<Query> = dwcomplements::starschema::queries::workload()
        .into_iter()
        .map(|q| {
            let expected = q
                .expr
                .eval(&inputs.last)
                .map(|rel| rel.iter().map(|t| t.to_string()).collect());
            expected.map(|expected| Query {
                name: q.name,
                text: q.expr.to_string(),
                expr: q.expr,
                expected,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("evaluating the workload queries: {e}"))?;
    let load_lines: Vec<String> = inputs
        .load
        .iter()
        .enumerate()
        .map(|(i, op)| op.line(0, i as u64))
        .collect();
    let seq0 = load_lines.len() as u64;
    let phase_lines: Vec<String> = inputs
        .phase
        .iter()
        .enumerate()
        .map(|(i, op)| op.line(0, seq0 + i as u64))
        .collect();
    let offsets = match w.writer {
        Writer::Window(_) => Vec::new(),
        Writer::OpenLoop { per_s } => gen::poisson_offsets(phase_lines.len(), per_s, args.seed),
    };
    let gen_s = t_gen.elapsed().as_secs_f64();

    let work = Path::new(WORK).join(format!(
        "{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cx = Ctx {
        args,
        w,
        queries: &queries,
        load_lines: &load_lines,
        phase_lines: &phase_lines,
        offsets: &offsets,
        work: &work,
    };

    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut rounds: Vec<Round> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let mut longest = Duration::ZERO;
    while (rounds.len() < MIN_ROUNDS || origin.elapsed() < budget)
        && origin.elapsed() + longest < LAST_ROUND_END
    {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured in the same run.
        let traced = args.trace && rounds.len() % 2 == 1;
        let t = Instant::now();
        let round = run_round(&cx, rounds.len(), traced, &mut trace);
        longest = longest.max(t.elapsed());
        match round {
            Ok(r) => {
                let p = |xs: &[f64], q| quantile(xs, q).unwrap_or(0.0);
                eprintln!(
                    "round {}{}: setup {:.3}s, phase {:.3}s, recovery {:.3}s, ack p50/p99 {:.2}/{:.2} ms, \
                     query p50/p95 {:.2}/{:.2} ms, steal {:.1}%, {:.1}s in all",
                    rounds.len(),
                    if traced { " (traced)" } else { "" },
                    r.setup_s,
                    r.phase_s,
                    r.recovery_s,
                    p(&r.ack_ms, 0.5),
                    p(&r.ack_ms, 0.99),
                    p(&r.query_ms, 0.5),
                    p(&r.query_ms, 0.95),
                    100.0 * r.steal_share.unwrap_or(0.0),
                    t.elapsed().as_secs_f64()
                );
                rounds.push(r);
            }
            Err(e) => {
                let failed = Round {
                    attempted: 1,
                    failures: vec![e],
                    ..Round::default()
                };
                rounds.push(failed);
                break;
            }
        }
        if rounds.last().is_some_and(|r| !r.failures.is_empty()) {
            break;
        }
    }
    let measured_s = origin.elapsed().as_secs_f64();

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut e2e = Metrics::default();
    end_to_end(&untraced, &mut e2e);
    let mut failures: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut ok: u64 = rounds.iter().map(|r| r.ok).sum();

    let mut layers = Metrics::default();
    if args.trace && failures.is_empty() {
        per_layer_socket(&traced, &untraced, &mut layers);
        let batch = layers
            .rows
            .iter()
            .find(|(n, _, _)| n == "server.acks_per_batch")
            .map_or(1.0, |(_, v, _)| *v);
        let killed = traced.iter().rev().find_map(|r| r.killed_copy.clone());
        let rp = replay::Plan {
            spec: SPEC,
            inputs: &inputs,
            queries: queries
                .iter()
                .map(|q| (q.name, &q.expr, &q.expected))
                .collect(),
            batch: batch.round().clamp(1.0, 64.0) as usize,
            arrivals: &offsets,
            killed_store: killed.as_deref(),
            work: &work,
        };
        let out = replay::run(&rp, &mut trace)?;
        attempted += out.attempted;
        ok += out.ok;
        failures.extend(out.failures);
        for (name, v, unit, n) in out.metrics {
            layers.push(name, v, unit, n);
        }
    }
    for r in &rounds {
        if let Some(copy) = &r.killed_copy {
            let _ = std::fs::remove_dir_all(copy);
        }
    }
    if attempted == 0 {
        attempted = 1;
    }
    let correct = failures.is_empty() && ok == attempted;

    let provenance = Json::obj()
        .with("workload", w.name)
        .with("why", w.why)
        .with("git_rev", git_rev())
        .with("source_digest", source_digest())
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("seed", args.seed)
        .with("scale", w.scale)
        .with("initial_rows", inputs.initial.total_tuples())
        .with("load_reports", load_lines.len())
        .with("phase_reports", phase_lines.len())
        .with("final_rows", inputs.last.total_tuples())
        .with(
            "writer",
            match w.writer {
                Writer::Window(n) => format!("window of {n} outstanding reports"),
                Writer::OpenLoop { per_s } => {
                    format!("open loop, Poisson arrivals at {per_s} reports/s")
                }
            },
        )
        .with("load_window", LOAD_WINDOW)
        .with("think_ms", ms(w.think))
        .with("query_period_ms", ms(w.period))
        .with(
            "queries_per_round",
            w.queries
                .map_or("until the writer is done".to_owned(), |n| n.to_string()),
        )
        .with(
            "query_set",
            w.query_set
                .iter()
                .map(|&i| Json::from(queries[i].name))
                .collect::<Vec<_>>(),
        )
        .with("server_cmd", {
            let dir = work.join("store-<round>");
            server::argv(&args.dwc, SPEC, &dir).join(" ")
        })
        .with("server_env", "DWC_THREADS removed")
        .with(
            "dwc_threads_in_loadgen_env",
            std::env::var("DWC_THREADS").ok(),
        )
        .with("rounds", rounds.len())
        .with(
            "steal_share_by_round",
            rounds
                .iter()
                .map(|r| Json::from(r.steal_share))
                .collect::<Vec<_>>(),
        )
        .with("traced_rounds", traced.len())
        .with("run_seconds", args.seconds)
        .with("measured_s", measured_s)
        .with("generate_s", gen_s)
        .with(
            "samples",
            Json::Obj(
                e2e.samples
                    .clone()
                    .into_iter()
                    .chain(layers.samples.clone())
                    .collect(),
            ),
        );

    let metrics = if args.trace { &layers } else { &e2e };
    println!("provenance {provenance}");
    if args.trace {
        let mut out = std::fs::File::create(work.join("trace.jsonl")).map_err(|e| e.to_string())?;
        trace.write_jsonl(&mut out).map_err(|e| e.to_string())?;
        println!(
            "trace: {} spans in {}",
            trace.spans().len(),
            work.join("trace.jsonl").display()
        );
        println!(
            "{:<28} {:>8} {:>12} {:>12} {:>12} {:>7}",
            "layer (span)", "count", "busy_ms", "self_ms", "wait_ms", "failed"
        );
        for (name, s) in trace.summary() {
            let busy = if s.wait_ns > 0 { 0 } else { s.total_ns };
            println!(
                "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>7}",
                name,
                s.count,
                busy as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.wait_ns as f64 / 1e6,
                s.failed
            );
        }
        for (name, v, unit) in &e2e.rows {
            println!("untraced {name} = {v} {unit}");
        }
    }
    for (name, v, unit) in &metrics.rows {
        println!("{name:<34} {v:>14.6} {unit}");
    }
    for f in failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let failed = attempted.saturating_sub(ok).max(u64::from(!correct));
    let result = result_line(correct, attempted, failed, metrics);
    let record = Json::obj()
        .with("provenance", provenance)
        .with("result", result.clone());
    std::fs::write(work.join("result.json"), format!("{record}\n")).map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(correct)
}
