//! Unit tests of the benchmark's own machinery: statistics, the JSON
//! reader, the oracle, the verdict rule, and that `BENCHMARK.json` says
//! what the metric tables say.

use std::time::{Duration, Instant};

use hac_e2e_bench::json::Json;
use hac_e2e_bench::oracle::{Digest, Expr, Model, Scope, SemDef};
use hac_e2e_bench::report::{
    validate_line, verdict, Outcome, Verdict, END_TO_END, PER_LAYER, WORKLOADS,
};
use hac_e2e_bench::stats::{
    chunked, interleave, mad, median, open_loop, percentile, quartiles, quiet_high, quiet_low,
    sorted, supported_tail, supports, Repeats, Rng, Schedule,
};

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    let s = sorted((1..=100).map(f64::from).collect());
    assert_eq!(percentile(&s, 50.0), 50.0);
    assert_eq!(percentile(&s, 99.0), 99.0);
    assert_eq!(percentile(&s, 100.0), 100.0);
    assert_eq!(percentile(&[], 99.0), 0.0);
    assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(39), None);
    assert_eq!(supported_tail(40), Some(75.0));
    assert_eq!(supported_tail(120), Some(90.0));
    assert_eq!(supported_tail(999), Some(95.0));
    assert_eq!(supported_tail(1000), Some(99.0));
    assert_eq!(supported_tail(10_000), Some(99.9));
    assert!(supports(1000, 99.0) && !supports(999, 99.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[7.0]), None);
    let r = Repeats::of(&v);
    assert_eq!((r.n, r.median, r.q1, r.q3), (10, 5.5, 2.75, 8.25));
    assert_eq!(r.spread(), 1.0);
    assert_eq!(Repeats::of(&[4.0]).spread(), 0.0);
}

#[test]
fn quiet_windows_ignore_a_stall() {
    // Eight windows of 100 samples at 10 µs; a stall makes two of them 50.
    let mut samples = vec![10.0; 800];
    for s in &mut samples[300..500] {
        *s = 50.0;
    }
    let windows = chunked(&samples, 8, 50, median);
    assert_eq!(windows.len(), 8);
    assert_eq!(quiet_low(&windows), 10.0);
    let rates: Vec<f64> = windows.iter().map(|m| 1e6 / m).collect();
    assert_eq!(quiet_high(&rates), 1e5);
    // Too few samples for eight windows: fewer, never smaller, windows.
    assert_eq!(chunked(&samples[..120], 8, 50, median).len(), 2);
    assert_eq!(chunked(&samples[..10], 8, 50, median).len(), 1);
}

#[test]
fn interleaved_lanes_run_round_by_round() {
    let mut order = Vec::new();
    let out = {
        let order = std::cell::RefCell::new(&mut order);
        interleave(
            &mut [
                &mut |r| {
                    order.borrow_mut().push(("a", r));
                    1.0
                },
                &mut |r| {
                    order.borrow_mut().push(("b", r));
                    2.0
                },
            ],
            3,
            Instant::now(),
        )
    };
    assert_eq!(out, vec![vec![1.0; 3], vec![2.0; 3]]);
    assert_eq!(
        order,
        [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    );
}

#[test]
fn open_loop_times_from_the_due_time_and_counts_backlog() {
    // 1 000 rps for 50 ms with an op that takes 2 ms: the generator falls
    // behind, latency from the due time grows, and most of the 50
    // scheduled requests are still unsent at the end.
    let schedule = Schedule::new(Instant::now(), 1000.0);
    let out = open_loop(schedule, Duration::from_millis(50), |_| {
        std::thread::sleep(Duration::from_millis(2));
        true
    });
    assert_eq!(out.sent + out.backlog, 50);
    assert!(out.backlog >= 20, "backlog {}", out.backlog);
    assert_eq!(out.failed, 0);
    let last = *out.latency_us.last().unwrap();
    assert!(last > 10_000.0, "last latency {last} µs hides the queueing");

    // An op that keeps up leaves no backlog and reports failures.
    let schedule = Schedule::new(Instant::now(), 1000.0);
    let out = open_loop(schedule, Duration::from_millis(20), |i| i % 2 == 0);
    assert_eq!((out.sent, out.backlog, out.failed), (20, 0, 10));
    assert_eq!(schedule.due_by(schedule.due(7)), 8);
}

#[test]
fn rng_is_a_function_of_seed_and_stream() {
    let draw = |seed, stream| {
        let mut r = Rng::new(seed, stream);
        (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7, 1), draw(7, 1));
    assert_ne!(draw(7, 1), draw(7, 2));
    assert_ne!(draw(7, 1), draw(8, 1));
    let mut r = Rng::new(1, 1);
    let mut picks = [0usize; 3];
    for _ in 0..3000 {
        picks[r.weighted(&[70, 20, 10])] += 1;
    }
    assert!(picks[0] > picks[1] && picks[1] > picks[2] && picks[2] > 150);
}

#[test]
fn json_round_trips() {
    let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": null}, "e": true}"#;
    let v = Json::parse(text).unwrap();
    assert_eq!(
        v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
        Some(-300.0)
    );
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"y\n")
    );
    assert_eq!(Json::parse(&v.render()).unwrap(), v);
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1 2]").is_err());
    assert!(Json::parse("{} x").is_err());
    assert_eq!(Json::Num(f64::NAN).render(), "null");
}

#[test]
fn oracle_answers_by_brute_force() {
    let mut m = Model::new();
    m.upsert("/db/d0/a.txt", b"alpha beta gamma");
    m.upsert("/db/d0/b.txt", b"alpha delta");
    m.upsert("/db/d1/c.txt", b"Beta, delta; THE end");
    let t = Expr::term;
    assert_eq!(
        m.search(&Scope::Root, &t("alpha")),
        ["/db/d0/a.txt", "/db/d0/b.txt"]
    );
    assert_eq!(
        m.search(&Scope::Root, &Expr::and_not(t("alpha"), t("beta"))),
        ["/db/d0/b.txt"]
    );
    assert_eq!(
        m.search(
            &Scope::Subtree("/db/d1".into()),
            &Expr::or(t("beta"), t("alpha"))
        ),
        ["/db/d1/c.txt"]
    );
    // Stop words are not words on either side.
    assert!(m.search(&Scope::Root, &t("the")).is_empty());

    // A nested directory is evaluated inside its semantic ancestor; a
    // `path(...)` reference is the referenced directory's link set.
    m.set_semdirs(&[
        SemDef {
            path: "/sem/alpha".into(),
            query: t("alpha"),
        },
        SemDef {
            path: "/sem/alpha/delta".into(),
            query: t("delta"),
        },
        SemDef {
            path: "/sem/ref".into(),
            query: Expr::and(t("delta"), Expr::Dir("/db/d1".into())),
        },
    ]);
    assert_eq!(m.links_of("/sem/alpha/delta"), ["/db/d0/b.txt"]);
    assert_eq!(m.links_of("/sem/ref"), ["/db/d1/c.txt"]);
    assert_eq!(
        m.search(&Scope::Sem("/sem/alpha".into()), &t("gamma")),
        ["/db/d0/a.txt"]
    );

    // Edits: append adds words, rename moves a subtree, remove forgets.
    m.append("/db/d0/b.txt", b" gamma");
    m.rename("/db/d0", "/db/e0");
    m.remove("/db/d1/c.txt");
    assert_eq!(
        m.search(&Scope::Root, &t("gamma")),
        ["/db/e0/a.txt", "/db/e0/b.txt"]
    );
    assert_eq!(m.len(), 2);

    // The digest ignores order and notices a swapped member.
    assert_eq!(Digest::of(["x", "y"]), Digest::of(["y", "x"]));
    assert_ne!(Digest::of(["x", "y"]), Digest::of(["x", "z"]));
    assert_eq!(t("a b").text(), "a b");
    assert_eq!(
        Expr::and_not(t("a"), Expr::Dir("/d".into())).text(),
        "(a AND NOT path(/d))"
    );
}

#[test]
fn verdict_follows_bound_and_spread() {
    let lower = &END_TO_END[0]; // setup_s, lower is better, bound 0.25
    let higher = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap();
    let tight = |m: f64| Repeats::of(&[m * 0.99, m, m * 1.01]);
    assert_eq!(verdict(lower, &tight(1.0), &tight(1.1)), Verdict::Same);
    assert_eq!(verdict(lower, &tight(1.0), &tight(1.4)), Verdict::Worse);
    assert_eq!(verdict(lower, &tight(1.0), &tight(0.6)), Verdict::Better);
    assert_eq!(verdict(higher, &tight(100.0), &tight(60.0)), Verdict::Worse);
    assert_eq!(
        verdict(higher, &tight(100.0), &tight(140.0)),
        Verdict::Better
    );
    // A side whose own spread exceeds the bound resolves nothing.
    let wide = Repeats::of(&[0.5, 1.0, 1.5, 2.0]);
    assert_eq!(verdict(lower, &tight(1.0), &wide), Verdict::Unresolved);
}

#[test]
fn result_line_is_validated() {
    let mut o = Outcome {
        attempted: 10,
        ..Outcome::default()
    };
    for m in END_TO_END {
        o.set(m.name, 1.5);
    }
    let line = o.result_line(END_TO_END);
    assert!(validate_line(&line, END_TO_END, true).is_ok());
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    // A zero end-to-end metric, a wrong table and no attempts are refused.
    o.set("ops_per_s", 0.0);
    assert!(validate_line(&o.result_line(END_TO_END), END_TO_END, true).is_err());
    assert!(validate_line(&line, PER_LAYER, false).is_err());
    o.attempted = 0;
    assert!(validate_line(&o.result_line(PER_LAYER), PER_LAYER, false).is_err());
    // Per-layer metrics a workload never set read 0.
    o.attempted = 1;
    assert!(validate_line(&o.result_line(PER_LAYER), PER_LAYER, false).is_ok());
}

#[test]
fn benchmark_json_agrees_with_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = b
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads"),
        WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (entry, m) in b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    for (entry, m) in b
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert!(entry.get("bound").is_none());
    }
    // The contract's limits.
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    all.extend(WORKLOADS.iter().map(|(n, _)| *n));
    let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for n in all {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
    }
}
