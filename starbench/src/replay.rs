//! The in-process half of a traced run: the same generated inputs fed
//! through the library entry points the server is built from, with a
//! span around each call.
//!
//! Entry points used (keep this list short, so a refactor of the store
//! or the server touches only this file):
//! `dwc::shell::parse_update`, `WarehouseSpec::augment`,
//! `DurableWarehouse::{create, apply_batch, commit_applied}` (one
//! envelope per `apply_batch` is one `IngestingIntegrator::offer`),
//! `EpochCell::publish`, `ServerCore::{deliver, tick}`,
//! `AugmentedWarehouse::translate_query`, `RaExpr::eval` and
//! `Recovery::open`.

use dwcomplements::analyze::specfile;
use dwcomplements::relalg::{DbState, EpochCell, RaExpr};
use dwcomplements::shell::parse_update;
use dwcomplements::warehouse::integrator::{Integrator, IntegratorConfig};
use dwcomplements::warehouse::{
    AckOutcome, AdaptivePolicy, AugmentedWarehouse, BatchPolicy, DurabilityConfig,
    DurableWarehouse, Envelope, FsMedium, IngestConfig, IngestOutcome, IngestingIntegrator,
    Recovery, ServerCore, SourceId, WarehouseSpec,
};
use starbench::gen::Inputs;
use starbench::stats::{median, quantile};
use starbench::trace::Trace;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// What to replay.
pub struct Plan<'a> {
    /// Spec file path (the one the server loads).
    pub spec: &'a str,
    /// The run's generated inputs.
    pub inputs: &'a Inputs,
    /// Q1–Q8: name, source expression, expected rows.
    pub queries: Vec<(&'static str, &'a RaExpr, &'a BTreeSet<String>)>,
    /// Envelopes per group commit in the store replay (the server's
    /// observed acks per batch).
    pub batch: usize,
    /// When each phase report arrives, from the phase start, for the
    /// server-core replay; empty for a backlog that is all there at once.
    pub arrivals: &'a [Duration],
    /// The server's store as a SIGKILL left it, for the recovery replay.
    pub killed_store: Option<&'a Path>,
    /// Scratch directory inside the checkout.
    pub work: &'a Path,
}

/// Replay results: `(metric, value, unit, samples)` plus check counts;
/// `None` when a metric had nothing to measure.
#[derive(Default)]
pub struct Out {
    pub metrics: Vec<(&'static str, Option<f64>, &'static str, usize)>,
    pub attempted: u64,
    pub ok: u64,
    pub failures: Vec<String>,
}

const SOURCE: &str = "replay";
/// Request ids of the server-core replay (ticks share the first); the
/// other replayed calls count up from `1 << 48`, socket requests stay
/// below `1 << 40`.
const CORE_REQ: u64 = 1 << 47;
/// Repetitions of the cheap per-query and per-spec calls.
const REPS: usize = 5;

fn us(t: Instant, u: Instant) -> f64 {
    u.duration_since(t).as_secs_f64() * 1e6
}

fn load_spec(path: &str) -> Result<WarehouseSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (spec, report) = specfile::parse_spec(&text, path);
    if report.has_errors() {
        return Err(format!("{report}"));
    }
    WarehouseSpec::new(spec.catalog, spec.views).map_err(|e| e.to_string())
}

/// A fresh store holding `initial`, armed as `dwc serve` arms one.
fn fresh_store(
    aug: &AugmentedWarehouse,
    initial: &DbState,
    dir: &Path,
) -> Result<DurableWarehouse<FsMedium>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let e = |e: &dyn std::fmt::Display| format!("replay store: {e}");
    let w = aug.materialize(initial).map_err(|x| e(&x))?;
    let integ =
        Integrator::from_state(aug.clone(), w, IntegratorConfig::default()).map_err(|x| e(&x))?;
    let ingest = IngestingIntegrator::new(integ, IngestConfig::default()).map_err(|x| e(&x))?;
    let medium = FsMedium::new(dir).map_err(|x| e(&x))?;
    let mut dw =
        DurableWarehouse::create(medium, ingest, DurabilityConfig::default()).map_err(|x| e(&x))?;
    dw.set_maintenance_policy(AdaptivePolicy::adaptive())
        .map_err(|x| e(&x))?;
    Ok(dw)
}

pub fn run(p: &Plan, trace: &mut Trace) -> Result<Out, String> {
    let mut out = Out::default();
    let mut req = 1u64 << 48;
    let mut next_req = || {
        req += 1;
        req
    };

    // core: complement computation.
    let spec = load_spec(p.spec)?;
    let mut augment_ms = Vec::new();
    let mut aug = None;
    for _ in 0..REPS {
        let s = spec.clone();
        let t = Instant::now();
        let a = s.augment().map_err(|e| e.to_string())?;
        let u = Instant::now();
        trace.record("core.augment", None, next_req(), t, u, false, false);
        augment_ms.push(us(t, u) / 1e3);
        aug = Some(a);
    }
    let aug = aug.expect("REPS > 0");
    out.metrics.push((
        "core.augment_ms",
        median(&augment_ms),
        "ms",
        augment_ms.len(),
    ));

    // serve: the protocol's update parser on every generated line.
    let catalog = spec.catalog();
    let mut parse_us = Vec::new();
    let mut envelopes = Vec::with_capacity(p.inputs.phase.len());
    for (i, op) in p.inputs.load.iter().chain(&p.inputs.phase).enumerate() {
        let t = Instant::now();
        let parsed = parse_update(catalog, &op.body, op.insert);
        let u = Instant::now();
        let good = parsed.as_ref().is_ok_and(|up| *up == op.update(catalog));
        trace.record("serve.parse", None, next_req(), t, u, false, !good);
        parse_us.push(us(t, u));
        out.attempted += 1;
        out.ok += u64::from(good);
        if !good {
            out.failures
                .push(format!("parse_update disagrees on `{}`", op.body));
        }
        if let (Ok(report), true) = (parsed, i >= p.inputs.load.len()) {
            let seq = envelopes.len() as u64;
            envelopes.push(Envelope {
                source: SourceId::new(SOURCE),
                epoch: 0,
                seq,
                report,
            });
        }
    }
    out.metrics.push((
        "serve.parse_us_p50",
        median(&parse_us),
        "us",
        parse_us.len(),
    ));

    // ingest + storage + epoch: the commit path, one call at a time.
    let mut dw = fresh_store(&aug, &p.inputs.initial, &p.work.join("replay-store"))?;
    let cell = EpochCell::new(dw.state().clone());
    let (mut offer_us, mut commit_us, mut publish_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut applied, mut quarantined) = (0u64, 0u64);
    for chunk in envelopes.chunks(p.batch.max(1)) {
        for env in chunk {
            let id = next_req();
            let t = Instant::now();
            let outcome = dw.apply_batch(std::slice::from_ref(env));
            let u = Instant::now();
            let ok = matches!(outcome.as_slice(), [IngestOutcome::Applied(_)]);
            applied += u64::from(ok);
            quarantined += u64::from(matches!(
                outcome.as_slice(),
                [IngestOutcome::Quarantined(_)]
            ));
            trace.record("ingest.offer", None, id, t, u, false, !ok);
            offer_us.push(us(t, u));
        }
        let t = Instant::now();
        dw.commit_applied()
            .map_err(|e| format!("replay commit: {e}"))?;
        let u = Instant::now();
        trace.record("storage.commit", None, next_req(), t, u, false, false);
        commit_us.push(us(t, u));
        let t = Instant::now();
        cell.publish(dw.state().clone());
        let u = Instant::now();
        trace.record("epoch.publish", None, next_req(), t, u, false, false);
        publish_us.push(us(t, u));
    }
    out.attempted += envelopes.len() as u64;
    out.ok += applied;
    if applied != envelopes.len() as u64 {
        out.failures.push(format!(
            "replay applied {applied} of {} envelopes",
            envelopes.len()
        ));
    }
    out.metrics.push((
        "ingest.offer_us_p50",
        quantile(&offer_us, 0.5),
        "us",
        offer_us.len(),
    ));
    out.metrics.push((
        "ingest.offer_us_p99",
        quantile(&offer_us, 0.99),
        "us",
        offer_us.len(),
    ));
    let share = (!envelopes.is_empty()).then(|| applied as f64 / envelopes.len() as f64);
    out.metrics
        .push(("ingest.applied_share", share, "share", envelopes.len()));
    out.metrics.push((
        "ingest.quarantined",
        Some(quarantined as f64),
        "count",
        envelopes.len(),
    ));
    out.metrics.push((
        "storage.commit_us_p50",
        median(&commit_us),
        "us",
        commit_us.len(),
    ));
    out.metrics.push((
        "epoch.publish_us_p50",
        median(&publish_us),
        "us",
        publish_us.len(),
    ));
    drop(dw);

    // rewrite + relalg: the query path on the final published epoch.
    let snapshot = cell.load();
    let (mut translate_us, mut eval_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (name, expr, expected) in &p.queries {
            let id = next_req();
            let t = Instant::now();
            let translated = aug
                .translate_query(expr)
                .map_err(|e| format!("{name}: {e}"))?;
            let u = Instant::now();
            trace.record("rewrite.translate", None, id, t, u, false, false);
            translate_us.push(us(t, u));
            let t = Instant::now();
            let rel = translated
                .eval(&snapshot.state)
                .map_err(|e| format!("{name}: {e}"))?;
            let u = Instant::now();
            let rows: BTreeSet<String> = rel.iter().map(|t| t.to_string()).collect();
            let good = &rows == *expected;
            trace.record("relalg.eval", None, id, t, u, false, !good);
            eval_ms.push(us(t, u) / 1e3);
            out.attempted += 1;
            out.ok += u64::from(good);
            if !good {
                out.failures
                    .push(format!("replayed {name} differs from Q(d)"));
            }
        }
    }
    out.metrics.push((
        "rewrite.translate_us_p50",
        median(&translate_us),
        "us",
        translate_us.len(),
    ));
    out.metrics.push((
        "relalg.eval_ms_p50",
        quantile(&eval_ms, 0.5),
        "ms",
        eval_ms.len(),
    ));
    out.metrics.push((
        "relalg.eval_ms_p95",
        quantile(&eval_ms, 0.95),
        "ms",
        eval_ms.len(),
    ));

    // warehouse::server: batcher wait + commit, with arrivals spaced as
    // the workload's writer spaces them. Idle time between an ack and
    // the next arrival (or a batch deadline) is skipped, not slept.
    let dw = fresh_store(&aug, &p.inputs.initial, &p.work.join("replay-core"))?;
    let mut core = ServerCore::new(dw, BatchPolicy::default());
    let clock = Instant::now();
    let mut skipped = 0u64;
    let now = |skipped: u64| clock.elapsed().as_micros() as u64 + skipped;
    let grant = core.connect_at(SourceId::new(SOURCE), now(skipped));
    let start = now(skipped);
    let mut delivered = vec![0u64; envelopes.len()];
    let mut acked: Vec<Option<u64>> = vec![None; envelopes.len()];
    let mark = |acks: Vec<dwcomplements::warehouse::Ack>, at: u64, acked: &mut Vec<Option<u64>>| {
        for a in acks {
            if let (Some(slot), AckOutcome::Applied(_)) =
                (acked.get_mut(a.seq as usize), &a.outcome)
            {
                *slot = Some(at);
            }
        }
    };
    let tick = |core: &mut ServerCore<FsMedium>,
                skipped: &mut u64,
                trace: &mut Trace,
                acked: &mut Vec<Option<u64>>|
     -> Result<(), String> {
        let deadline = core.next_deadline().expect("called with a batch pending");
        *skipped += deadline.saturating_sub(now(*skipped));
        let t = Instant::now();
        let acks = core
            .tick(now(*skipped))
            .map_err(|e| format!("replay tick: {e}"))?;
        trace.record(
            "server.tick",
            None,
            CORE_REQ,
            t,
            Instant::now(),
            false,
            false,
        );
        mark(acks, now(*skipped), acked);
        Ok(())
    };
    for (i, env) in envelopes.iter().enumerate() {
        let arrival = start + p.arrivals.get(i).map_or(0, |d| d.as_micros() as u64);
        while core.next_deadline().is_some_and(|d| d <= arrival) {
            tick(&mut core, &mut skipped, trace, &mut acked)?;
        }
        skipped += arrival.saturating_sub(now(skipped));
        delivered[i] = now(skipped);
        let t = Instant::now();
        let acks = core
            .deliver(grant.session, env.clone(), delivered[i])
            .map_err(|e| format!("replay deliver: {e}"))?;
        trace.record(
            "server.deliver",
            None,
            CORE_REQ + 1 + env.seq,
            t,
            Instant::now(),
            false,
            false,
        );
        mark(acks, now(skipped), &mut acked);
    }
    while core.next_deadline().is_some() {
        tick(&mut core, &mut skipped, trace, &mut acked)?;
    }
    let d2a: Vec<f64> = delivered
        .iter()
        .zip(&acked)
        .filter_map(|(d, a)| a.map(|a| (a - d) as f64 / 1e3))
        .collect();
    out.attempted += envelopes.len() as u64;
    out.ok += d2a.len() as u64;
    if d2a.len() != envelopes.len() {
        out.failures.push(format!(
            "server replay acked {} of {} envelopes",
            d2a.len(),
            envelopes.len()
        ));
    }
    out.metrics.push((
        "server.deliver_to_ack_ms_p50",
        quantile(&d2a, 0.5),
        "ms",
        d2a.len(),
    ));
    drop(core);

    // recovery: the server's own killed store, opened with and without
    // the W(W⁻¹(w)) = w cross-check.
    let mut verify_share = None;
    if let Some(killed) = p.killed_store {
        let mut secs = [0.0f64; 2];
        for (k, verify) in [true, false].into_iter().enumerate() {
            let dir = p.work.join(format!("replay-recover-{k}"));
            let _ = std::fs::remove_dir_all(&dir);
            starbench::server::copy_dir(killed, &dir)
                .map_err(|e| format!("copying the killed store: {e}"))?;
            let medium = FsMedium::new(&dir).map_err(|e| e.to_string())?;
            let config = DurabilityConfig {
                verify_on_open: verify,
                ..DurabilityConfig::default()
            };
            let t = Instant::now();
            let opened = Recovery::open(medium, aug.clone(), config);
            let u = Instant::now();
            let name = if verify {
                "recovery.open_verify"
            } else {
                "recovery.open_noverify"
            };
            trace.record(name, None, next_req(), t, u, false, opened.is_err());
            out.attempted += 1;
            match opened {
                Ok(_) => out.ok += 1,
                Err(e) => out.failures.push(format!("replayed recovery failed: {e}")),
            }
            secs[k] = u.duration_since(t).as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
        }
        verify_share = (secs[0] > 0.0).then(|| (secs[0] - secs[1]) / secs[0]);
    }
    out.metrics.push((
        "recovery.verify_share",
        verify_share,
        "share",
        usize::from(verify_share.is_some()),
    ));
    for d in ["replay-store", "replay-core"] {
        let _ = std::fs::remove_dir_all(p.work.join(d));
    }
    Ok(out)
}
