//! The generated report stream: deterministic in the seed, parseable by
//! the server's own parser, and FK-safe after every single report.

use dwcomplements::relalg::{DbState, Delta, RelName, Relation, Tuple, Update, Value};
use dwcomplements::shell::parse_update;
use dwcomplements::starschema::star_catalog;
use starbench::gen::{inputs, split_update, Inputs};

const SCALE: f64 = 0.01;
const REPORTS: usize = 400;

fn wire(i: &Inputs) -> String {
    let mut out = String::new();
    for (seq, op) in i.load.iter().chain(&i.phase).enumerate() {
        out.push_str(&op.line(0, seq as u64));
        out.push('\n');
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    let a = wire(&inputs(SCALE, REPORTS, 7));
    assert_eq!(a, wire(&inputs(SCALE, REPORTS, 7)));
    assert_ne!(a, wire(&inputs(SCALE, REPORTS, 8)));
}

#[test]
fn phase_has_exactly_the_requested_reports() {
    for n in [1, 2, 3, 57, REPORTS] {
        assert_eq!(inputs(SCALE, n, 3).phase.len(), n);
    }
}

#[test]
fn every_line_parses_with_the_servers_parser() {
    let catalog = star_catalog();
    let i = inputs(SCALE, REPORTS, 11);
    for line in wire(&i).lines() {
        let mut parts = line.splitn(5, ' ');
        assert_eq!(parts.next(), Some("report"));
        let _epoch: u64 = parts.next().unwrap().parse().unwrap();
        let _seq: u64 = parts.next().unwrap().parse().unwrap();
        let insert = match parts.next() {
            Some("insert") => true,
            Some("delete") => false,
            other => panic!("bad verb {other:?} in `{line}`"),
        };
        let body = parts.next().unwrap();
        let update =
            parse_update(&catalog, body, insert).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert_eq!(update.len(), 1, "`{line}` is not a single-tuple report");
    }
    for op in i.load.iter().chain(&i.phase) {
        assert_eq!(
            parse_update(&catalog, &op.body, op.insert).unwrap(),
            op.update(&catalog)
        );
    }
}

#[test]
fn every_prefix_keeps_keys_and_foreign_keys() {
    let catalog = star_catalog();
    for seed in [1, 2, 3] {
        let i = inputs(SCALE, REPORTS, seed);
        let mut state = DbState::empty_for(&catalog);
        for (n, op) in i.load.iter().chain(&i.phase).enumerate() {
            op.update(&catalog).apply_mut(&mut state).unwrap();
            state
                .check_constraints(&catalog)
                .unwrap_or_else(|e| panic!("seed {seed}, after report {n} (`{}`): {e}", op.body));
            if n + 1 == i.load.len() {
                assert_eq!(state, i.initial, "the load rebuilds the initial state");
            }
        }
        assert_eq!(state, i.last, "the phase ends in the tracked final state");
        let kinds: Vec<bool> = i.phase.iter().map(|op| op.insert).collect();
        assert!(
            kinds.contains(&true) && kinds.contains(&false),
            "the mix both inserts and deletes"
        );
    }
}

fn rel(name: &str, rows: Vec<Vec<Value>>) -> Relation {
    let attrs = star_catalog()
        .schema(RelName::new(name))
        .unwrap()
        .attrs()
        .clone();
    Relation::from_tuples(attrs, rows.into_iter().map(Tuple::new)).unwrap()
}

#[test]
fn splits_order_parents_children_and_price_changes() {
    let catalog = star_catalog();
    // {custkey, lockey, odate, orderkey} and {orderkey, partkey, price, qty, suppkey}
    let order = || {
        rel(
            "Orders",
            vec![vec![
                Value::int(1),
                Value::int(0),
                Value::int(19990101),
                Value::int(9),
            ]],
        )
    };
    let item = |price| {
        rel(
            "Lineitem",
            vec![vec![
                Value::int(9),
                Value::int(2),
                Value::int(price),
                Value::int(1),
                Value::int(3),
            ]],
        )
    };

    let new_order = Update::new()
        .with("Lineitem", Delta::insert_only(item(5)))
        .with("Orders", Delta::insert_only(order()));
    let rels: Vec<&str> = split_update(&catalog, &new_order)
        .iter()
        .map(|o| o.rel.as_str())
        .collect();
    assert_eq!(rels, ["Orders", "Lineitem"]);

    let cancel = Update::new()
        .with("Orders", Delta::delete_only(order()))
        .with("Lineitem", Delta::delete_only(item(5)));
    let rels: Vec<&str> = split_update(&catalog, &cancel)
        .iter()
        .map(|o| o.rel.as_str())
        .collect();
    assert_eq!(rels, ["Lineitem", "Orders"]);

    let reprice = Update::new().with("Lineitem", Delta::new(item(7), item(5)).unwrap());
    let ops = split_update(&catalog, &reprice);
    assert_eq!(
        ops.iter().map(|o| o.insert).collect::<Vec<_>>(),
        [false, true]
    );
    assert!(ops[0].body.contains("price=5") && ops[1].body.contains("price=7"));
}

#[test]
fn poisson_schedule_is_seeded_increasing_and_at_rate() {
    use starbench::gen::poisson_offsets;
    let a = poisson_offsets(600, 100, 5);
    assert_eq!(a, poisson_offsets(600, 100, 5));
    assert_ne!(a, poisson_offsets(600, 100, 6));
    assert_eq!(a[0].as_secs_f64(), 0.0);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(
        (a[599].as_secs_f64() - 5.99).abs() < 1e-9,
        "offered rate is exact"
    );
    let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
    let short = gaps.iter().filter(|&&g| g < 0.005).count();
    // Exponential gaps: about 1 - e^-0.5 ≈ 39 % are under half the mean.
    assert!(
        (150..320).contains(&short),
        "{short} of 599 gaps under 5 ms"
    );
}
