//! Plan stability of the Volcano search: on UIS small with fixed cost
//! factors (the uncalibrated defaults, and a UIS-like fitted set), the
//! paper's Queries 1–4, Query 2/3
//! window variants and the `warm-serving` read pool must keep their
//! chosen plan and estimated cost byte for byte under every
//! `approx_rules` × `pushdown_rules` setting, cold and with the pool's
//! fragments resident in the middleware cache. The search must also
//! stay linear in the memo: at most `MAX_SEARCHES_PER_CLASS`
//! `(group, requirement)` searches per equivalence class.
//!
//! The golden file `tests/golden/plan_stability.txt` is regenerated with
//! `TANGO_BLESS_PLANS=1 cargo test --release --test plan_stability` —
//! only ever on purpose, after checking the plan changes are intended.

use std::fmt::Write as _;
use tango::algebra::date::{day, format_date};
use tango::core::cost::CostFactors;
use tango::core::opt::MAX_SEARCHES_PER_CLASS;
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::uis::{generate_employee, generate_position, UisConfig};
use tango::Tango;

const GOLDEN: &str = "tests/golden/plan_stability.txt";

fn load_uis_small() -> Database {
    let cfg = UisConfig::small(0xEC1);
    let db = Database::new(Link::new(LinkProfile::instant()));
    for (name, rel) in
        [("POSITION", generate_position(&cfg)), ("EMPLOYEE", generate_employee(&cfg))]
    {
        db.create_table(name, rel.schema().as_ref().clone()).unwrap();
        db.insert_rows(name, rel.into_tuples()).unwrap();
        db.analyze(name).unwrap();
    }
    Connection::new(db.clone()).execute("CREATE INDEX EMP_PK ON EMPLOYEE (EmpID)").unwrap();
    db
}

/// Factors of the shape a calibration on the UIS link fits: transfers
/// dear, middleware CPU cheap, a large `T^D` fixed cost.
fn uis_like_factors() -> CostFactors {
    CostFactors {
        p_tm: 0.525,
        p_td: 0.302,
        p_td_fixed: 1042.0,
        p_sem: 0.0106,
        p_pm: 0.0106,
        p_sm: 0.0024,
        p_sd: 0.00027,
        p_taggm1: 0.035,
        p_taggm2: 0.0175,
        p_taggd1: 0.826,
        p_taggd2: 0.826,
        p_mjm: 0.0119,
        p_mjout: 0.006,
        p_jd: 0.038,
        ..CostFactors::default()
    }
}

fn q2(start: (i32, u32, u32), end: (i32, u32, u32)) -> String {
    format!(
        "VALIDTIME SELECT P.PosID, Cnt, P.EmpID FROM \
           (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
           POSITION P \
         WHERE A.PosID = P.PosID AND P.PayRate > 10 \
           AND T1 < DATE '{}' AND T2 > DATE '{}' \
         ORDER BY P.PosID",
        format_date(day(end.0, end.1, end.2)),
        format_date(day(start.0, start.1, start.2)),
    )
}

fn q3(bound: (i32, u32, u32)) -> String {
    format!(
        "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
         WHERE A.PosID = B.PosID AND A.T1 < DATE '{0}' AND B.T1 < DATE '{0}' \
         ORDER BY A.PosID",
        format_date(day(bound.0, bound.1, bound.2)),
    )
}

/// The paper's four queries, with Query 2 and 3 at a narrow and a wide
/// window.
fn paper_queries() -> Vec<(String, String)> {
    vec![
        (
            "q1".into(),
            "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
             GROUP BY PosID ORDER BY PosID"
                .into(),
        ),
        ("q2 1983..1996".into(), q2((1983, 1, 1), (1996, 1, 1))),
        ("q2 1995..1996".into(), q2((1995, 1, 1), (1996, 1, 1))),
        ("q2 1983..2000".into(), q2((1983, 1, 1), (2000, 6, 1))),
        ("q3 1996".into(), q3((1996, 1, 1))),
        ("q3 1985".into(), q3((1985, 1, 1))),
        ("q3 2000".into(), q3((2000, 1, 1))),
        (
            "q4".into(),
            "SELECT P.PosID, E.EmpName, E.Address FROM POSITION P, EMPLOYEE E \
             WHERE P.EmpID = E.EmpID ORDER BY P.PosID"
                .into(),
        ),
    ]
}

/// The `warm-serving` read pool: narrow temporal aggregations over
/// POSITION and EMPLOYEE range lookups.
fn serving_pool() -> Vec<(String, String)> {
    let taggr = [8, 16, 24, 32].map(|k| {
        (
            format!("pool taggr {k}"),
            format!(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                 WHERE PosID < {k} GROUP BY PosID ORDER BY PosID"
            ),
        )
    });
    let lookups = [400, 800].map(|k| {
        (
            format!("pool employee {k}"),
            format!("SELECT EmpID, Dept, Salary FROM EMPLOYEE WHERE EmpID < {k} ORDER BY EmpID"),
        )
    });
    taggr.into_iter().chain(lookups).collect()
}

/// Optimize `queries` on `tango`, appending each plan and its estimated
/// cost to `out` and every query over the search-effort bound to
/// `over`.
fn record(
    tango: &mut Tango,
    label: &str,
    queries: &[(String, String)],
    out: &mut String,
    over: &mut Vec<String>,
) {
    for (name, sql) in queries {
        let q = tango.optimize(sql).unwrap_or_else(|e| panic!("{label} {name}: {e}"));
        if q.search.optimize_calls > MAX_SEARCHES_PER_CLASS * q.classes {
            over.push(format!(
                "{label} {name}: {} optimize calls for {} classes",
                q.search.optimize_calls, q.classes
            ));
        }
        writeln!(out, "== {label} | {name}").unwrap();
        writeln!(out, "est_cost_us {:?}", q.est_cost_us).unwrap();
        out.push_str(&q.explain_plan());
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
}

#[test]
fn plans_and_costs_match_the_golden_file() {
    let db = load_uis_small();
    let mut out = String::new();
    let mut over = Vec::new();
    for (factors_name, factors) in
        [("default", CostFactors::default()), ("uis-like", uis_like_factors())]
    {
        for (approx, pushdown) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut tango = Tango::connect_private(db.clone());
            tango.set_factors(factors);
            tango.options_mut().opt.approx_rules = approx;
            tango.options_mut().opt.pushdown_rules = pushdown;
            let label = format!("{factors_name} approx={approx} pushdown={pushdown}");
            record(&mut tango, &format!("{label} cold"), &paper_queries(), &mut out, &mut over);
            record(&mut tango, &format!("{label} cold"), &serving_pool(), &mut out, &mut over);
            // run the pool once: its fragments become resident, which
            // reprices TRANSFER^M as a cache scan
            for (name, sql) in serving_pool() {
                tango.query(&sql).unwrap_or_else(|e| panic!("{label} {name}: {e}"));
            }
            record(&mut tango, &format!("{label} warm"), &serving_pool(), &mut out, &mut over);
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("TANGO_BLESS_PLANS").is_some() {
        std::fs::write(&path, &out).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    if out != golden {
        let (line, (got, want)) = out
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((out.lines().count().min(golden.lines().count()), ("<end>", "<end>")));
        panic!("plan drift at {GOLDEN}:{}:\n  got:  {got}\n  want: {want}", line + 1);
    }
    assert!(over.is_empty(), "search effort over the bound:\n{}", over.join("\n"));
}

/// EXPLAIN's per-node costs, the re-plan monitor's breaker estimates and
/// `replan_gain_est` come from the model that chose the plan: for every
/// cold plan the optimizer returns, the per-node `est_cost_us` sum to
/// the plan's `est_cost_us`, under every `approx_rules` ×
/// `pushdown_rules` setting (Query 2 with both on excepted, see below).
#[test]
fn node_estimates_sum_to_the_optimizer_cost() {
    let db = load_uis_small();
    let extra = [
        (
            "product",
            "SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E \
             WHERE P.PosID < 3 AND E.EmpID < 5",
        ),
        ("coalesce", "VALIDTIME COALESCE SELECT PosID FROM POSITION ORDER BY PosID"),
        ("distinct", "VALIDTIME SELECT DISTINCT PosID FROM POSITION ORDER BY PosID"),
        (
            "renaming projection",
            "SELECT EmpID AS X, Dept FROM EMPLOYEE WHERE EmpID < 400 ORDER BY X",
        ),
    ]
    .map(|(name, sql)| (name.to_string(), sql.to_string()));
    let mut off = Vec::new();
    for (approx, pushdown) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut tango = Tango::connect_private(db.clone());
        tango.options_mut().opt.approx_rules = approx;
        tango.options_mut().opt.pushdown_rules = pushdown;
        for (name, sql) in paper_queries().into_iter().chain(serving_pool()).chain(extra.clone()) {
            // Exempt: the memo keeps one statistics record per class,
            // derived from the first expression that entered it. With
            // both rule groups on, the window-pushdown rule adds a
            // differently-estimated expression (the window selection
            // below the aggregation) to Query 2's TAggr class, and the
            // chosen plan's bottom-up re-derivation follows that member.
            if approx && pushdown && name.starts_with("q2") {
                continue;
            }
            let q = tango.optimize(&sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            let sum: f64 = q.node_estimates.iter().map(|e| e.est_cost_us).sum();
            let ratio = sum / q.est_cost_us;
            if (ratio - 1.0).abs() > 1e-9 {
                off.push(format!("approx={approx} pushdown={pushdown} {name}: {ratio:.4}"));
            }
        }
    }
    assert!(off.is_empty(), "per-node cost sum / optimizer cost:\n{}", off.join("\n"));
}
