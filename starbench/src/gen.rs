//! Deterministic star-schema inputs for one benchmark run.
//!
//! Everything the server sees is derived here from the workload seed:
//! the initial star state (`dwc_starschema::generate`), loaded as
//! single-tuple insert reports, and the operational stream
//! (`dwc_starschema::UpdateStream`: new orders, cancels, churn, price
//! changes), split into single-tuple reports in an order that keeps
//! every key and foreign key valid after each one:
//!
//! * inserts go parents first (dimensions, then `Orders`, then
//!   `Lineitem`),
//! * deletes go children first (`Lineitem`, then `Orders`, then the
//!   dimensions),
//! * within one update every delete precedes every insert, so a price
//!   change (same `Lineitem` key, new price) is a delete then an insert.
//!
//! The stream's update kinds follow a fixed cycle with `UpdateStream::next`'s
//! weights (five new orders, two price changes, two cancels and one churn
//! in every ten updates), so every seed walks the same mix and a run's
//! work does not depend on how the seed happened to draw kinds; the seed
//! picks every row.
//!
//! The generator also tracks the source state those reports produce, so
//! the run can check the server's answers against `Q(d)` evaluated
//! locally (Theorem 3.1's commuting diagram).

use dwcomplements::relalg::{Catalog, DbState, Delta, RelName, Relation, Tuple, Update};
use dwcomplements::starschema::updates::UpdateKind;
use dwcomplements::starschema::{generate, star_catalog, ScaleConfig, UpdateStream};
use std::time::Duration;

/// Star relations with every foreign-key target before its referrers.
pub const PARENTS_FIRST: [&str; 6] = [
    "Customer", "Supplier", "Part", "Location", "Orders", "Lineitem",
];

/// One single-tuple report, before a sequence number is attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// `true` for `insert`, `false` for `delete`.
    pub insert: bool,
    /// The relation the tuple belongs to.
    pub rel: RelName,
    /// The tuple, in the relation's (sorted) attribute order.
    pub tuple: Tuple,
    /// The shell dialect body: `Name (attr=value, ...)`.
    pub body: String,
}

impl Op {
    fn new(catalog: &Catalog, insert: bool, rel: RelName, tuple: Tuple) -> Op {
        let attrs = catalog.schema(rel).expect("star relation").attrs();
        let pairs: Vec<String> = attrs
            .iter()
            .zip(tuple.values())
            .map(|(a, v)| format!("{a}={v}"))
            .collect();
        let body = format!("{rel} ({})", pairs.join(", "));
        Op {
            insert,
            rel,
            tuple,
            body,
        }
    }

    /// The wire line (without the trailing newline) for this op sent as
    /// `seq` of source epoch `epoch`.
    pub fn line(&self, epoch: u64, seq: u64) -> String {
        let verb = if self.insert { "insert" } else { "delete" };
        format!("report {epoch} {seq} {verb} {}", self.body)
    }

    /// This op as a one-tuple [`Update`].
    pub fn update(&self, catalog: &Catalog) -> Update {
        let attrs = catalog
            .schema(self.rel)
            .expect("star relation")
            .attrs()
            .clone();
        let mut rows = Relation::empty(attrs);
        rows.insert(self.tuple.clone())
            .expect("arity matches the schema");
        let delta = if self.insert {
            Delta::insert_only(rows)
        } else {
            Delta::delete_only(rows)
        };
        Update::new().with(self.rel, delta)
    }
}

/// The generated inputs of one run: the initial load, the phase stream,
/// and the source states before and after the phase.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Inserts that build the initial state, FK-safe.
    pub load: Vec<Op>,
    /// Exactly the requested number of phase reports.
    pub phase: Vec<Op>,
    /// The source state after the load.
    pub initial: DbState,
    /// The source state after the load and the whole phase.
    pub last: DbState,
}

/// Splits one update into FK-safe single-tuple ops: deletes child-first,
/// then inserts parent-first.
pub fn split_update(catalog: &Catalog, update: &Update) -> Vec<Op> {
    let mut ops = Vec::new();
    for name in PARENTS_FIRST.iter().rev() {
        if let Some(delta) = update.delta(RelName::new(name)) {
            for t in delta.deleted().iter() {
                ops.push(Op::new(catalog, false, RelName::new(name), t));
            }
        }
    }
    for name in PARENTS_FIRST {
        if let Some(delta) = update.delta(RelName::new(name)) {
            for t in delta.inserted().iter() {
                ops.push(Op::new(catalog, true, RelName::new(name), t));
            }
        }
    }
    ops
}

/// Inserts that load `state` from empty, parents first.
pub fn load_ops(catalog: &Catalog, state: &DbState) -> Vec<Op> {
    let mut ops = Vec::new();
    for name in PARENTS_FIRST {
        let rel = state
            .relation(RelName::new(name))
            .expect("star state covers the catalog");
        for t in rel.iter() {
            ops.push(Op::new(catalog, true, RelName::new(name), t));
        }
    }
    ops
}

/// One cycle of update kinds, in `UpdateStream::next`'s proportions.
const KINDS: [UpdateKind; 10] = [
    UpdateKind::NewOrder,
    UpdateKind::PriceChange,
    UpdateKind::NewOrder,
    UpdateKind::CancelOrder,
    UpdateKind::NewOrder,
    UpdateKind::CustomerChurn,
    UpdateKind::NewOrder,
    UpdateKind::PriceChange,
    UpdateKind::NewOrder,
    UpdateKind::CancelOrder,
];

/// The stream seed derived from the workload seed (the initial state
/// uses the workload seed itself).
fn stream_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x57A2_BE9C
}

/// Generates a run's inputs: the initial state at `scale` and exactly
/// `reports` phase reports from the operational update mix.
pub fn inputs(scale: f64, reports: usize, seed: u64) -> Inputs {
    let catalog = star_catalog();
    let initial = generate(&ScaleConfig::scaled(scale), seed);
    let load = load_ops(&catalog, &initial);
    let mut stream = UpdateStream::new(&initial, stream_seed(seed));
    let mut phase = Vec::with_capacity(reports + 16);
    for kind in KINDS.iter().cycle() {
        if phase.len() >= reports {
            break;
        }
        phase.extend(split_update(&catalog, &stream.next_of(*kind)));
    }
    // The last update may be cut short; every prefix of the split is
    // still FK-safe, and `last` is rebuilt from exactly the ops kept.
    phase.truncate(reports);
    let mut last = initial.clone();
    for op in &phase {
        op.update(&catalog)
            .apply_mut(&mut last)
            .expect("generated ops apply in order");
    }
    Inputs {
        load,
        phase,
        initial,
        last,
    }
}

/// Send times, as offsets from the phase start, of `n` reports arriving
/// as a Poisson process of `per_s` a second (exponential gaps drawn from
/// `seed`), scaled so the last one is due at exactly `(n - 1) / per_s`
/// and every seed offers the same rate. A fixed-interval schedule would
/// quantize every ack latency to whole intervals: an ack that the
/// server's Nagle holds back rides on the client's next report.
pub fn poisson_offsets(n: usize, per_s: u32, seed: u64) -> Vec<Duration> {
    // SplitMix64: a tiny, well-mixed generator, enough for gap draws.
    let mut state = seed ^ 0xA11C_E5ED;
    let mut next_unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut at = 0.0f64;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            let offset = at;
            at += -(1.0 - next_unit()).ln();
            offset
        })
        .collect();
    let last = raw.last().copied().unwrap_or(0.0);
    let scale = if last > 0.0 {
        (n - 1) as f64 / f64::from(per_s) / last
    } else {
        0.0
    };
    raw.into_iter()
        .map(|x| Duration::from_secs_f64(x * scale))
        .collect()
}
