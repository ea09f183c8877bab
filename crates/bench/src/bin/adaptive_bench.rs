//! Adaptivity ablation — the Section 3.3 `Overlaps` misestimate, pinned
//! vs rescued by mid-query re-optimization.
//!
//! The fixture is the misestimate-rescue shape of
//! `tests/adaptive_replan.rs` at bench scale: a versioned `POSITION`
//! table joined against the wide per-position `POSINFO` dossiers over a
//! temporal overlap window. With the naive estimator
//! (`OptOptions::naive_overlaps`) a *narrow* window is over-estimated by
//! more than an order of magnitude, so the optimizer ships both join
//! inputs to a middleware merge join. Three variants run per window:
//!
//! * **pinned** — naive estimates, `replan_ratio = None`: the bad plan
//!   runs to completion.
//! * **adaptive** — naive estimates, the default `replan_ratio`: the
//!   misestimate monitor fires at the first pipeline breaker and flips
//!   the join into the DBMS mid-query.
//! * **oracle** — the joint `Overlaps` estimator: the plan the optimizer
//!   picks when it knows the truth up front (lower bound).
//!
//! A **warm-cache row** prices the monitoring itself: the `warm-serving`
//! TAGGR (`PosID < 32`) over a resident cached fragment of the UIS
//! POSITION table, where the estimates are good and re-planning never
//! fires, timed end to end (`Tango::query`) with the default
//! `replan_ratio` and with re-planning off.
//!
//! Usage: `cargo run --release -p tango-bench --bin adaptive_bench \
//!         [--small] [--check]`
//!
//! Writes `BENCH_adaptive.json`; `--check` exits non-zero unless, on the
//! narrow (misestimated) window, the adaptive run re-plans exactly once,
//! returns the same rows as the pinned run, and beats it on wall+wire
//! time — on the wide (well-estimated) window, never re-plans — and the
//! warm row never re-plans and costs at most [`WARM_OVERHEAD_MAX`] times
//! its run with re-planning off.

use std::time::{Duration, Instant};
use tango_algebra::{tup, Attr, Schema, Type, Value};
use tango_bench::{load_uis, time_query_report, uis_link_profile, Table};
use tango_core::cost::CostFactors;
use tango_core::opt::OptOptions;
use tango_core::phys::Algo;
use tango_core::Tango;
use tango_minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango_trace::json::Object;
use tango_uis::UisConfig;

/// Valid-time domain of the fixture (days).
const DOMAIN: i64 = 5_000;

struct Scale {
    positions: usize,
    versions: usize,
}

struct Window {
    label: &'static str,
    lo: i64,
    hi: i64,
    /// Whether the naive estimate is bad enough that the adaptive run
    /// must rescue (and the pinned run must lose).
    expect_rescue: bool,
}

struct Sample {
    label: &'static str,
    rows: usize,
    pinned: Duration,
    adaptive: Duration,
    oracle: Duration,
    replans: u64,
    pinned_plan: String,
    adaptive_plan: String,
}

impl Sample {
    fn speedup(&self) -> f64 {
        self.pinned.as_secs_f64() / self.adaptive.as_secs_f64().max(1e-9)
    }
}

/// The warm row's query: the `warm-serving` TAGGR shape.
const WARM_SQL: &str = "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                        WHERE PosID < 32 GROUP BY PosID ORDER BY PosID";

/// Timed runs per variant of the warm row; the row reports medians.
const WARM_RUNS: usize = 201;

/// `--check` bound on the warm row's adaptive/plain latency ratio. On a
/// 2-CPU host, staging that moves each breaker's output into its
/// `MATSCAN^M` and summarizes it in one typed pass measures 1.25x at
/// paper scale and 1.14x at `--small`; deep-copying the staged tuples
/// and building statistics per `Value` measured 2.72x and 1.73x.
const WARM_OVERHEAD_MAX: f64 = 1.5;

/// The warm-cache row: medians over [`WARM_RUNS`] alternating runs.
struct Warm {
    adaptive_us: f64,
    plain_us: f64,
    replans: u64,
}

impl Warm {
    fn overhead(&self) -> f64 {
        self.adaptive_us / self.plain_us.max(1e-9)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time [`WARM_SQL`] end to end over a warm shared cache, re-planning on
/// and off, alternating which runs first.
fn warm_row(small: bool) -> Warm {
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    eprintln!("loading UIS ({} POSITION rows) for the warm row ...", cfg.position_rows);
    let setup = load_uis(&cfg, uis_link_profile(), false);
    let mut adaptive = Tango::connect(setup.db.clone());
    let mut plain = Tango::connect(setup.db.clone());
    plain.options_mut().opt.replan_ratio = None;
    // the first run populates the shared cache; the rest must be hits
    let (want, _) = plain.query(WARM_SQL).expect("warm query");
    let (mut adaptive_us, mut plain_us) = (Vec::new(), Vec::new());
    let mut replans = 0;
    for i in 0..=WARM_RUNS {
        for adaptive_turn in [i % 2 == 0, i % 2 == 1] {
            let tango = if adaptive_turn { &mut adaptive } else { &mut plain };
            let wire0 = tango.conn().wire_time();
            let t = Instant::now();
            let (rel, report) = tango.query(WARM_SQL).expect("warm query");
            let us = (t.elapsed() + (tango.conn().wire_time() - wire0)).as_secs_f64() * 1e6;
            assert_eq!(
                format!("{:?}", rel.tuples()),
                format!("{:?}", want.tuples()),
                "warm row: result differs (re-planning {})",
                if adaptive_turn { "on" } else { "off" }
            );
            for step in &report.exec.steps {
                if step.algo == Algo::TransferM {
                    assert_eq!(step.annotation("cache"), Some("hit"), "warm row ran cold");
                }
                replans += step.events.iter().filter(|e| e.kind == "cardinality-replan").count();
            }
            // run 0 warms the adaptive session's own state
            if i > 0 {
                if adaptive_turn { &mut adaptive_us } else { &mut plain_us }.push(us);
            }
        }
    }
    Warm { adaptive_us: median(adaptive_us), plain_us: median(plain_us), replans: replans as u64 }
}

/// A wire slow enough that shipping the un-filtered `POSINFO` dossiers
/// is the dominant cost of the pinned bad plan. Virtual mode: the wire
/// bill is simulated deterministically, so the comparison is stable on
/// noisy CI runners.
fn slow_wire() -> LinkProfile {
    LinkProfile {
        roundtrip_latency_us: 200.0,
        bytes_per_sec: 256.0 * 1024.0,
        row_prefetch: 16,
        mode: WireMode::Virtual,
    }
}

/// Same deterministic fixture generator as `tests/adaptive_replan.rs`:
/// `versions` strided short-lived versions per position, one wide
/// dossier row per position.
fn rescue_db(scale: &Scale) -> Database {
    let db = Database::new(Link::new(slow_wire()));
    let position = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("PayRate", Type::Double),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("POSITION", position).unwrap();
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    db.create_table("POSINFO", posinfo).unwrap();

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let stride = DOMAIN / scale.versions as i64;
    let mut rows = Vec::with_capacity(scale.positions * scale.versions);
    for p in 0..scale.positions as i64 {
        for v in 0..scale.versions as i64 {
            let t1 = v * stride + (step() % (stride as u64 - 40).max(1)) as i64;
            let t2 = t1 + 1 + (step() % 39) as i64;
            let emp = (step() % (scale.positions as u64 * 2)) as i64;
            rows.push(tup![p, emp, Value::Double((step() % 100) as f64 / 2.0), t1, t2]);
        }
    }
    db.insert_rows("POSITION", rows).unwrap();
    let dossier: Vec<_> = (0..scale.positions as i64)
        .map(|p| tup![p, Value::Str(format!("dossier-{p:06}-{}", "x".repeat(140)))])
        .collect();
    db.insert_rows("POSINFO", dossier).unwrap();
    let conn = Connection::new(db.clone());
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    conn.execute("ANALYZE TABLE POSINFO COMPUTE STATISTICS").unwrap();
    db
}

fn rescue_sql(w: &Window) -> String {
    format!(
        "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
         WHERE P.PosID = I.PosID AND P.T1 <= {} AND P.T2 >= {} \
         ORDER BY P.PosID, P.T1",
        w.hi, w.lo
    )
}

/// A fresh session per run: cache disabled so every variant pays the
/// true wire bill, pinned wire-fitted cost factors so placement
/// decisions track the link without depending on how loaded the bench
/// machine is.
fn session(db: &Database, factors: &CostFactors, naive: bool, ratio: Option<f64>) -> Tango {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().cache_budget = None;
    tango.options_mut().opt.naive_overlaps = naive;
    tango.options_mut().opt.replan_ratio = ratio;
    tango.set_factors(*factors);
    tango
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let scale = if small {
        Scale { positions: 100, versions: 12 }
    } else {
        Scale { positions: 800, versions: 25 }
    };
    let windows = [
        Window { label: "narrow (misestimated)", lo: 2_500, hi: 2_520, expect_rescue: true },
        Window { label: "wide (well-estimated)", lo: 1_500, hi: 3_500, expect_rescue: false },
    ];

    eprintln!("loading rescue fixture ({} POSITION rows) ...", scale.positions * scale.versions);
    let db = rescue_db(&scale);
    // fitted to slow_wire() (see tests/adaptive_replan.rs) rather than
    // measured by calibrate(), so the chosen plans are deterministic
    let factors = CostFactors {
        p_tm: 5.0,
        p_td: 4.5,
        p_td_fixed: 200.0,
        p_jd: 0.06,
        p_mjm: 0.02,
        ..Default::default()
    };

    let default_ratio = OptOptions::default().replan_ratio;
    let mut table = Table::new(
        "Adaptivity ablation — Overlaps misestimate, pinned vs rescued",
        "window",
        &["pinned", "adaptive", "oracle"],
    );

    let mut failed = false;
    let mut samples = Vec::new();
    for w in &windows {
        let sql = rescue_sql(w);

        let mut pinned_t = session(&db, &factors, true, None);
        let (pinned, pinned_rows, _, _) = time_query_report(&mut pinned_t, &sql);
        let pinned_plan =
            tango_bench::plans::placement_summary(&pinned_t.optimize(&sql).unwrap().plan);

        let mut adaptive_t = session(&db, &factors, true, default_ratio);
        let (adaptive, adaptive_rows, adaptive_explain, adaptive_exec) =
            time_query_report(&mut adaptive_t, &sql);
        let replans: u64 = adaptive_exec
            .steps
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.kind == "cardinality-replan")
            .count() as u64;

        let mut oracle_t = session(&db, &factors, false, None);
        let (oracle, oracle_rows, _, _) = time_query_report(&mut oracle_t, &sql);

        assert_eq!(pinned_rows, adaptive_rows, "adaptive result differs at {}", w.label);
        assert_eq!(pinned_rows, oracle_rows, "oracle result differs at {}", w.label);

        let s = Sample {
            label: w.label,
            rows: pinned_rows,
            pinned,
            adaptive,
            oracle,
            replans,
            pinned_plan,
            adaptive_plan: if adaptive_explain.contains("JOIN^D") {
                "join=D (flipped mid-query)".into()
            } else {
                "join=M (kept)".into()
            },
        };
        eprintln!(
            "  {}: pinned {:>9.3}ms  adaptive {:>9.3}ms ({} re-plan{})  oracle {:>9.3}ms  {:.2}x",
            s.label,
            s.pinned.as_secs_f64() * 1e3,
            s.adaptive.as_secs_f64() * 1e3,
            s.replans,
            if s.replans == 1 { "" } else { "s" },
            s.oracle.as_secs_f64() * 1e3,
            s.speedup(),
        );
        if w.expect_rescue {
            if s.replans != 1 {
                eprintln!("    FAIL: expected exactly 1 re-plan, saw {}", s.replans);
                failed = true;
            }
            if s.adaptive >= s.pinned {
                eprintln!(
                    "    FAIL: adaptive {:.3}ms did not beat pinned {:.3}ms",
                    s.adaptive.as_secs_f64() * 1e3,
                    s.pinned.as_secs_f64() * 1e3
                );
                failed = true;
            }
        } else if s.replans != 0 {
            eprintln!("    FAIL: well-estimated window re-planned {} time(s)", s.replans);
            failed = true;
        }
        table.row(s.label, vec![Some(s.pinned), Some(s.adaptive), Some(s.oracle)]);
        samples.push(s);
    }

    let warm = warm_row(small);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "  warm cache: adaptive {:.0}us  plain {:.0}us  ({:.2}x, {} re-plans, median of {WARM_RUNS}, \
         host_cpus={host_cpus})",
        warm.adaptive_us,
        warm.plain_us,
        warm.overhead(),
        warm.replans,
    );
    if warm.replans != 0 {
        eprintln!("    FAIL: warm row re-planned {} time(s)", warm.replans);
        failed = true;
    }
    if warm.overhead() > WARM_OVERHEAD_MAX {
        eprintln!(
            "    FAIL: warm row staging overhead {:.2}x exceeds {WARM_OVERHEAD_MAX}x",
            warm.overhead()
        );
        failed = true;
    }

    table.note(format!(
        "naive Overlaps estimator seeded; replan_ratio = {default_ratio:?}; \
         {} POSITION rows, {} POSINFO dossiers",
        scale.positions * scale.versions,
        scale.positions
    ));
    table.emit("adaptive_bench");

    let window_objs: Vec<String> = samples
        .iter()
        .map(|s| {
            Object::new()
                .string("window", s.label)
                .number("rows", s.rows as f64)
                .number("pinned_us", s.pinned.as_secs_f64() * 1e6)
                .number("adaptive_us", s.adaptive.as_secs_f64() * 1e6)
                .number("oracle_us", s.oracle.as_secs_f64() * 1e6)
                .number("speedup", s.speedup())
                .number("replans", s.replans as f64)
                .string("pinned_plan", &s.pinned_plan)
                .string("adaptive_plan", &s.adaptive_plan)
                .build()
        })
        .collect();
    let json = Object::new()
        .string("bench", "adaptive_bench")
        .number("position_rows", (scale.positions * scale.versions) as f64)
        .number("posinfo_rows", scale.positions as f64)
        .number("replan_ratio", default_ratio.unwrap_or(f64::NAN))
        .raw("windows", &format!("[{}]", window_objs.join(",")))
        .number("warm_adaptive_us", warm.adaptive_us)
        .number("warm_plain_us", warm.plain_us)
        .number("warm_overhead", warm.overhead())
        .number("host_cpus", host_cpus as f64)
        .build();
    std::fs::write("BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    eprintln!("wrote BENCH_adaptive.json");

    if check && failed {
        std::process::exit(1);
    }
}
