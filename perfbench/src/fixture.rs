//! Data, sessions and warm-up: everything `setup_s` measures.

use crate::stream::{representatives, serving_pool, write_pool, Workload};
use std::time::Instant;
use tango_algebra::date::day;
use tango_algebra::{tup, Attr, Schema, Type, Value};
use tango_bench::plans;
use tango_core::cost::CostFactors;
use tango_core::opt::OptOptions;
use tango_core::{Tango, TangoOptions};
use tango_minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango_uis::{generate_employee, generate_position, UisConfig};

/// Data sizes and repetition counts of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `warm-serving` and `write-mix` data.
    pub uis: UisConfig,
    /// `paper-mix` data.
    pub paper: UisConfig,
    pub rescue_positions: usize,
    pub rescue_versions: usize,
    /// Setups per run; `setup_s` is their median and the last one is
    /// measured.
    pub setups: usize,
    /// Setups per `replan-rescue` run, whose setup takes a second.
    pub rescue_setups: usize,
    /// `write-mix` quiescent checkpoints per run.
    pub checkpoints: usize,
}

impl Scale {
    /// The paper's UIS sizes, a third of them for `paper-mix` (whose
    /// queries take ~0.5 s each at full size: ~30 per run, too few for
    /// steady medians), and the `adaptive_bench` rescue fixture.
    pub fn full() -> Scale {
        Scale {
            uis: UisConfig::default(),
            // POSITION at the 27,000-row variant of the paper's Section 5.1
            paper: UisConfig { position_rows: 27_000, employee_rows: 16_000, seed: 0xEC1 },
            rescue_positions: 800,
            rescue_versions: 25,
            setups: 3,
            rescue_setups: 5,
            checkpoints: 4,
        }
    }

    /// A few thousand rows: for the benchmark's own smoke test.
    pub fn tiny() -> Scale {
        Scale {
            uis: UisConfig::small(0xEC1),
            paper: UisConfig::small(0xEC1),
            rescue_positions: 100,
            rescue_versions: 12,
            setups: 2,
            rescue_setups: 2,
            checkpoints: 2,
        }
    }
}

/// Wall time of each setup phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generate the data, create tables and indexes, insert.
    pub load: f64,
    pub analyze: f64,
    /// `Tango::calibrate`.
    pub calibrate: f64,
    /// `Tango::refresh_statistics` of every client session.
    pub collect: f64,
    /// The workload's warm-up statements.
    pub warmup: f64,
    /// The whole setup, start to end.
    pub total: f64,
}

impl SetupTimes {
    /// Setup time no phase accounts for (session construction, drops).
    pub fn remainder(&self) -> f64 {
        self.total - (self.load + self.analyze + self.calibrate + self.collect + self.warmup)
    }
}

/// Cost factors for the UIS workloads: the medians of 39 calibrations
/// on the UIS link (2-CPU x86-64 host). Calibration itself still runs
/// in every setup and is recorded, but its fits vary from run to run
/// (`p_td_fixed` 280–1830 µs) and flipped Query 4's join from the
/// middleware to the DBMS in 3 of 27 setups, so the sessions use these.
pub fn uis_factors() -> CostFactors {
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

/// A set-up workload: the database and one warm session per client.
pub struct Env {
    pub db: Database,
    /// The factors every session of the run uses.
    pub factors: CostFactors,
    /// The factors this setup's calibration fitted.
    pub fitted: CostFactors,
    pub clients: Vec<Tango>,
    pub times: SetupTimes,
}

impl Env {
    /// A session with the client options and the run's factors. Its
    /// statistics are collected by the caller, or lazily on its first
    /// statement.
    pub fn session(&self, workload: Workload) -> Tango {
        let mut t = Tango::connect(self.db.clone());
        if workload == Workload::ReplanRescue {
            t.options_mut().cache_budget = None;
        }
        t.set_factors(self.factors);
        t
    }

    /// The correctness reference: caching and mid-query re-planning off,
    /// statistics collected now. Like the clients' catalogs, they must
    /// be collected before any DML: a session that first collects them
    /// after `write-mix` changed POSITION (without a new ANALYZE) fails
    /// its temporal aggregations with "no feasible plan".
    pub fn reference(&self) -> Result<Tango> {
        self.reference_with(self.factors)
    }

    /// [`Env::reference`] with other cost factors.
    pub fn reference_with(&self, factors: CostFactors) -> Result<Tango> {
        let options = TangoOptions {
            cache_budget: None,
            opt: OptOptions { replan_ratio: None, ..OptOptions::default() },
            ..TangoOptions::default()
        };
        let mut t = Tango::connect_with(self.db.clone(), options);
        t.set_factors(factors);
        t.refresh_statistics().map_err(|e| fail("collect statistics", e))?;
        Ok(t)
    }
}

type Result<T> = std::result::Result<T, String>;

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Build and warm one workload's environment, timing each phase.
pub fn setup(workload: Workload, scale: &Scale) -> Result<Env> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let db = match workload {
        Workload::ReplanRescue => load_rescue(scale, &mut times)?,
        Workload::PaperMix => load_uis(&scale.paper, &mut times)?,
        Workload::WarmServing | Workload::WriteMix => load_uis(&scale.uis, &mut times)?,
    };

    let t = Instant::now();
    let fitted = Tango::connect(db.clone()).calibrate().map_err(|e| fail("calibrate", e))?.factors;
    times.calibrate = t.elapsed().as_secs_f64();
    let factors = match workload {
        Workload::ReplanRescue => fitted,
        Workload::WarmServing | Workload::PaperMix | Workload::WriteMix => uis_factors(),
    };

    let mut env = Env { db, factors, fitted, clients: Vec::new(), times };
    for _ in 0..workload.clients() {
        let mut session = env.session(workload);
        let t = Instant::now();
        session.refresh_statistics().map_err(|e| fail("collect statistics", e))?;
        env.times.collect += t.elapsed().as_secs_f64();
        env.clients.push(session);
    }

    let t = Instant::now();
    let warmup = warmup_statements(workload);
    for client in &mut env.clients {
        for sql in &warmup {
            client.query(sql).map_err(|e| format!("warm-up {sql}: {e}"))?;
        }
    }
    env.times.warmup = t.elapsed().as_secs_f64();
    env.times.total = started.elapsed().as_secs_f64();
    Ok(env)
}

/// The statements a setup warms each client session with.
pub fn warmup_statements(workload: Workload) -> Vec<String> {
    match workload {
        // every pool statement on every session: the shared cache holds
        // the whole pool, and each session's lazy state is built
        Workload::WarmServing => serving_pool().into_iter().map(|(_, sql)| sql).collect(),
        Workload::WriteMix => write_pool().into_iter().map(|(_, sql)| sql).collect(),
        // Queries 1 and 4, whose fragments repeat, and Queries 2 and 3
        // at their widest window, whose results are the largest
        Workload::PaperMix => vec![
            plans::q1_sql("POSITION"),
            plans::q2_sql(day(1983, 1, 1), day(2000, 6, 1)),
            plans::q3_sql(day(2000, 1, 1)),
            plans::q4_sql("POSITION"),
        ],
        Workload::ReplanRescue => representatives(workload),
    }
}

/// The UIS data of the paper's performance study, loaded server-side
/// (the base relations do not cross the middleware wire), with the
/// EMPLOYEE primary-key index, on the experiments' LAN-like link.
fn load_uis(cfg: &UisConfig, times: &mut SetupTimes) -> Result<Database> {
    let t = Instant::now();
    let db = Database::new(Link::new(tango_bench::uis_link_profile()));
    let position = generate_position(cfg);
    let employee = generate_employee(cfg);
    for (name, rel) in [("POSITION", position), ("EMPLOYEE", employee)] {
        db.create_table(name, rel.schema().as_ref().clone()).map_err(|e| fail(name, e))?;
        db.insert_rows(name, rel.into_tuples()).map_err(|e| fail(name, e))?;
    }
    Connection::new(db.clone())
        .execute("CREATE INDEX EMP_PK ON EMPLOYEE (EmpID)")
        .map_err(|e| fail("index", e))?;
    times.load = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for name in ["POSITION", "EMPLOYEE"] {
        db.analyze(name).map_err(|e| fail("analyze", e))?;
    }
    times.analyze = t.elapsed().as_secs_f64();
    Ok(db)
}

/// The `adaptive_bench` / `rewrite_bench` rescue fixture: `versions`
/// strided short-lived versions per position and one wide dossier row
/// per position, on a slow link, so shipping un-filtered dossiers to a
/// middleware join dominates a misestimated plan.
fn load_rescue(scale: &Scale, times: &mut SetupTimes) -> Result<Database> {
    const DOMAIN: i64 = 5_000;
    let t = Instant::now();
    let db = Database::new(Link::new(LinkProfile {
        roundtrip_latency_us: 200.0,
        bytes_per_sec: 256.0 * 1024.0,
        row_prefetch: 16,
        mode: WireMode::Virtual,
    }));
    let position = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("PayRate", Type::Double),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    let (positions, versions) = (scale.rescue_positions, scale.rescue_versions);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let stride = DOMAIN / versions as i64;
    let mut rows = Vec::with_capacity(positions * versions);
    for p in 0..positions as i64 {
        for v in 0..versions as i64 {
            let t1 = v * stride + (step() % (stride as u64 - 40).max(1)) as i64;
            let t2 = t1 + 1 + (step() % 39) as i64;
            let emp = (step() % (positions as u64 * 2)) as i64;
            rows.push(tup![p, emp, Value::Double((step() % 100) as f64 / 2.0), t1, t2]);
        }
    }
    let dossiers = (0..positions as i64)
        .map(|p| tup![p, Value::Str(format!("dossier-{p:06}-{}", "x".repeat(140)))])
        .collect();
    for (name, schema, rows) in [("POSITION", position, rows), ("POSINFO", posinfo, dossiers)] {
        db.create_table(name, schema).map_err(|e| fail(name, e))?;
        db.insert_rows(name, rows).map_err(|e| fail(name, e))?;
    }
    times.load = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for name in ["POSITION", "POSINFO"] {
        db.analyze(name).map_err(|e| fail("analyze", e))?;
    }
    times.analyze = t.elapsed().as_secs_f64();
    Ok(db)
}
