//! The measured region: closed-loop clients, the correctness gate, and
//! the metrics of one run.

use crate::check::{ordered, Equivalence, Fingerprint};
use crate::fixture::{setup, Env, Scale, SetupTimes};
use crate::stats::{beyond, median, percentile, sorted};
use crate::stream::{representatives, serving_pool, write_pool, Op, Stream, Workload};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use tango_core::cache::{CacheStats, MidCache};
use tango_core::phys::{Algo, Site};
use tango_core::session::QueryReport;
use tango_core::Tango;
use tango_minidb::{Connection, Database};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer run: time each layer's public entry points beside the
    /// measured `Tango::query` call and report per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Vec<Metric>,
    /// Figures shown to a reader but not compared across commits.
    pub report: Vec<Metric>,
    /// Fitted cost factors and per-template placement of every setup.
    pub plans: Vec<PlanRecord>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.report).find(|m| m.name == name).map(|m| m.value)
    }
}

/// The placement the optimizer chose for each template after one setup.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    pub factors: String,
    /// (template, `plans::placement_summary`) pairs.
    pub placements: Vec<(String, String)>,
}

/// The `write-mix` DML percentile reported as `write_tail_ms`: the rule
/// of [`crate::stats::tail_percentile`] at 200 writes, fewer than a
/// full-scale run collects.
pub const WRITE_TAIL_PERCENTILE: u32 = 95;

/// Run one workload end to end: set up several times (`setup_s` is the
/// median), then drive the last environment for `seconds`.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut plans = Vec::new();
    let mut env = None;
    let n = match cfg.workload {
        Workload::ReplanRescue => cfg.scale.rescue_setups,
        _ => cfg.scale.setups,
    };
    for _ in 0..n.max(1) {
        drop(env.take());
        let e = setup(cfg.workload, &cfg.scale)?;
        setups.push(e.times);
        plans.push(plan_record(&e, cfg.workload)?);
        env = Some(e);
    }
    let mut env = env.expect("at least one setup");
    // peak memory of loading, calibrating and warming the workload: the
    // measured region's own peak (`serving.peak_rss_mb`) depends on how
    // a client thread's allocator arena happens to fill, and on
    // `paper-mix` read 126 or 169 MB from run to run
    let setup_rss_mb = peak_rss_mb();
    let measured = drive(cfg, &mut env)?;
    Ok(measured.into_result(cfg, &setups, setup_rss_mb, plans))
}

/// Placements under the factors this setup's calibration fitted: what
/// the plans would be if the sessions used them.
fn plan_record(env: &Env, workload: Workload) -> Result<PlanRecord, String> {
    let mut probe = env.reference_with(env.fitted)?;
    let placements = workload
        .templates()
        .iter()
        .zip(representatives(workload))
        .map(|(t, sql)| {
            let plan = probe.optimize(&sql).map_err(|e| format!("optimize {sql}: {e}"))?.plan;
            Ok((t.name.to_string(), tango_bench::plans::placement_summary(&plan)))
        })
        .collect::<Result<_, String>>()?;
    Ok(PlanRecord { factors: format!("{:?}", env.fitted), placements })
}

/// Modeled latency of one call: wall time plus the virtual wire charged
/// to the caller's connection during it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_us: f64,
    wire_us: f64,
}

impl Sample {
    fn modeled_ms(&self) -> f64 {
        (self.wall_us + self.wire_us) / 1e3
    }
}

/// Per-layer observations of one client.
#[derive(Debug, Default)]
struct Layers {
    parse_us: Vec<f64>,
    optimize_us: Vec<f64>,
    plain_exec_us: Vec<f64>,
    residual_us: Vec<f64>,
    query_traced_us: Vec<f64>,
    query_untraced_us: Vec<f64>,
    volcano_us: Vec<f64>,
    exec_us: Vec<f64>,
    optimize_calls: u64,
    enforcers: u64,
    elements: u64,
    staged: u64,
    replans: u64,
    /// Middleware step exclusive time: sort, taggr, join, other.
    xxl_us: [f64; 4],
}

impl Layers {
    fn absorb(&mut self, o: Layers) {
        for (a, b) in [
            (&mut self.parse_us, o.parse_us),
            (&mut self.optimize_us, o.optimize_us),
            (&mut self.plain_exec_us, o.plain_exec_us),
            (&mut self.residual_us, o.residual_us),
            (&mut self.query_traced_us, o.query_traced_us),
            (&mut self.query_untraced_us, o.query_untraced_us),
            (&mut self.volcano_us, o.volcano_us),
            (&mut self.exec_us, o.exec_us),
        ] {
            a.extend(b);
        }
        self.optimize_calls += o.optimize_calls;
        self.enforcers += o.enforcers;
        self.elements += o.elements;
        self.staged += o.staged;
        self.replans += o.replans;
        for (a, b) in self.xxl_us.iter_mut().zip(o.xxl_us) {
            *a += b;
        }
    }

    /// Counters every query report carries, traced run or not.
    fn record(&mut self, report: &QueryReport) {
        let search = &report.optimized.search;
        self.volcano_us.push(report.optimized.optimize_time.as_secs_f64() * 1e6);
        self.exec_us.push(report.exec.wall.as_secs_f64() * 1e6);
        self.optimize_calls += search.optimize_calls as u64;
        self.enforcers += search.enforcers_considered as u64;
        self.elements += report.optimized.elements as u64;
        for step in &report.exec.steps {
            self.replans +=
                step.events.iter().filter(|e| e.kind == "cardinality-replan").count() as u64;
            let slot = match &step.algo {
                Algo::MatScanM(_) => {
                    self.staged += 1;
                    continue;
                }
                Algo::TransferM => continue,
                a if a.site() != Site::Middleware => continue,
                Algo::SortM(_) | Algo::SortXM(..) => 0,
                Algo::TAggrM { .. } => 1,
                Algo::MergeJoinM(_) | Algo::TMergeJoinM(_) => 2,
                _ => 3,
            };
            self.xxl_us[slot] += step.exclusive_us;
        }
    }
}

/// What one client observed.
#[derive(Debug, Default)]
struct ClientOut {
    reads: Vec<Sample>,
    /// Template of each read, in `reads` order.
    templates: Vec<usize>,
    writes: Vec<Sample>,
    layers: Layers,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Reads checked against the reference after the measured region.
    deferred: Vec<(String, Equivalence, Fingerprint)>,
}

impl ClientOut {
    fn absorb(&mut self, o: ClientOut) {
        self.reads.extend(o.reads);
        self.templates.extend(o.templates);
        self.writes.extend(o.writes);
        self.layers.absorb(o.layers);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.deferred.extend(o.deferred);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// One closed-loop client: its operation stream, its DML connection and
/// what it observed.
struct Client {
    stream: Stream,
    conn: Connection,
    out: ClientOut,
}

impl Client {
    fn new(cfg: &RunConfig, db: &Database, client: usize) -> Client {
        Client {
            stream: Stream::new(cfg.workload, cfg.seed, client),
            conn: Connection::new(db.clone()),
            out: ClientOut::default(),
        }
    }

    /// Send the next operation whenever the previous one returned, until
    /// `until`.
    fn run_until(&mut self, cfg: &RunConfig, tango: &mut Tango, expect: &Expect, until: Instant) {
        while Instant::now() < until {
            match self.stream.next().expect("streams are infinite") {
                Op::Read { template, sql, eq } => {
                    read(cfg, tango, template, &sql, eq, expect, &mut self.out)
                }
                Op::Write { sql, .. } => write(&self.conn, &sql, &mut self.out),
            }
        }
    }
}

/// How a read's rows are checked while the clients run.
enum Expect<'a> {
    /// Against reference answers computed before the measured region.
    Known(&'a HashMap<String, Fingerprint>),
    /// Recorded, then checked against the reference afterwards.
    Deferred,
    /// ORDER BY only; contents are checked at quiescent checkpoints.
    Checkpoint,
}

/// Database-wide counters, sampled around each measured segment.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    roundtrips: u64,
    server: Duration,
}

impl Counters {
    fn sample(db: &Database, cache: &MidCache) -> Counters {
        Counters {
            cache: cache.stats(),
            roundtrips: db.link().roundtrips(),
            server: db.server_time(),
        }
    }

    /// Accumulate `after - before`.
    fn add_delta(&mut self, after: &Counters, before: &Counters) {
        let (c, a, b) = (&mut self.cache, &after.cache, &before.cache);
        c.hits += a.hits - b.hits;
        c.misses += a.misses - b.misses;
        c.evictions += a.evictions - b.evictions;
        c.admission_rejects += a.admission_rejects - b.admission_rejects;
        c.invalidations += a.invalidations - b.invalidations;
        c.refreshes += a.refreshes - b.refreshes;
        c.refresh_bails += a.refresh_bails - b.refresh_bails;
        c.duplicate_populates += a.duplicate_populates - b.duplicate_populates;
        self.roundtrips += after.roundtrips - before.roundtrips;
        self.server += after.server - before.server;
    }
}

/// Everything the measured region produced.
struct Measured {
    out: ClientOut,
    wall: Duration,
    /// Peak resident memory at the end of the measured region.
    serving_rss_mb: f64,
    counters: Counters,
    cache_bytes: u64,
    delta_log_bytes: u64,
}

fn drive(cfg: &RunConfig, env: &mut Env) -> Result<Measured, String> {
    let workload = cfg.workload;
    let mut reference = env.reference()?;
    let mut checker = env.session(workload);
    checker.refresh_statistics().map_err(|e| format!("collect statistics: {e}"))?;
    let known: HashMap<String, Fingerprint> = if workload == Workload::WarmServing {
        serving_pool()
            .into_iter()
            .map(|(_, sql)| {
                let (rel, _) =
                    reference.query(&sql).map_err(|e| format!("reference {sql}: {e}"))?;
                Ok((sql, Fingerprint::of(&rel, Equivalence::Multiset)?))
            })
            .collect::<Result<_, String>>()?
    } else {
        HashMap::new()
    };
    let expect = match workload {
        Workload::WarmServing => Expect::Known(&known),
        Workload::WriteMix => Expect::Checkpoint,
        Workload::PaperMix | Workload::ReplanRescue => Expect::Deferred,
    };
    let segments = if workload == Workload::WriteMix { cfg.scale.checkpoints.max(1) } else { 1 };
    let segment = Duration::from_secs_f64(cfg.seconds / segments as f64);

    let db = env.db.clone();
    let cache = env.clients[0].cache().clone();
    let start = Barrier::new(env.clients.len() + 1);
    let end = Barrier::new(env.clients.len() + 1);
    let deadline = Mutex::new(Instant::now());
    let mut wall = Duration::ZERO;
    let mut counters = Counters::default();
    let mut out = ClientOut::default();

    std::thread::scope(|s| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, tango)| {
                let (start, end, deadline, expect, db) = (&start, &end, &deadline, &expect, &db);
                s.spawn(move || {
                    let mut client = Client::new(cfg, db, c);
                    for _ in 0..segments {
                        start.wait();
                        let until = *deadline.lock().expect("deadline lock");
                        client.run_until(cfg, tango, expect, until);
                        end.wait();
                    }
                    client.out
                })
            })
            .collect();

        for _ in 0..segments {
            *deadline.lock().expect("deadline lock") = Instant::now() + segment;
            let before = Counters::sample(&db, &cache);
            start.wait();
            let t0 = Instant::now();
            end.wait();
            wall += t0.elapsed();
            counters.add_delta(&Counters::sample(&db, &cache), &before);
            if workload == Workload::WriteMix {
                checkpoint(&mut checker, &mut reference, &mut out);
            }
        }
        for h in handles {
            out.absorb(h.join().expect("client thread panicked"));
        }
    });

    // before the reference answers below, which are the benchmark's
    // own work
    let serving_rss_mb = peak_rss_mb();

    // reads recorded while the clients ran, against the reference
    let mut answers: HashMap<String, Result<Fingerprint, String>> = HashMap::new();
    for (sql, eq, got) in std::mem::take(&mut out.deferred) {
        let want = answers
            .entry(sql.clone())
            .or_insert_with(|| {
                let (rel, _) = reference.query(&sql).map_err(|e| e.to_string())?;
                Fingerprint::of(&rel, eq)
            })
            .clone();
        match want {
            Ok(want) if want == got => {}
            Ok(want) => out.fail(format!(
                "wrong answer ({} items digested, reference {}): {sql}",
                got.items(),
                want.items()
            )),
            Err(e) => out.fail(format!("reference failed: {e}: {sql}")),
        }
    }
    Ok(Measured {
        out,
        wall,
        serving_rss_mb,
        counters,
        cache_bytes: cache.bytes(),
        delta_log_bytes: db.delta_log_bytes(),
    })
}

/// Run and check one read. In a traced run every other read first times
/// parse, optimize and (on `warm-serving`) plain execution of the same
/// statement through their public entry points; the reads in between
/// time `Tango::query` alone, so the two halves give the tracing
/// overhead.
fn read(
    cfg: &RunConfig,
    tango: &mut Tango,
    template: usize,
    sql: &str,
    eq: Equivalence,
    expect: &Expect,
    out: &mut ClientOut,
) {
    out.attempted += 1;
    // on write-mix the extra calls would move cache maintenance (their
    // residency snapshots drop stale entries), so only counters are read
    let layered = cfg.trace && cfg.workload != Workload::WriteMix;
    let traced = layered && out.reads.len().is_multiple_of(2);
    let mut layered_us = 0.0;
    if traced {
        let t = Instant::now();
        let parsed = tango.parse(sql);
        let parse_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let optimized = parsed.and_then(|logical| tango.optimize_logical(logical));
        let optimize_us = t.elapsed().as_secs_f64() * 1e6;
        let optimized = match optimized {
            Ok(o) => o,
            Err(e) => return out.fail(format!("optimize: {e}: {sql}")),
        };
        out.layers.parse_us.push(parse_us);
        out.layers.optimize_us.push(optimize_us);
        layered_us = parse_us + optimize_us;
        if cfg.workload == Workload::WarmServing {
            let t = Instant::now();
            if let Err(e) = tango.execute_physical(&optimized.plan) {
                return out.fail(format!("execute_physical: {e}: {sql}"));
            }
            out.layers.plain_exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let wire0 = tango.conn().wire_time();
    let t = Instant::now();
    let result = tango.query(sql);
    let wall = t.elapsed();
    let wire = tango.conn().wire_time() - wire0;
    let (rel, report) = match result {
        Ok(r) => r,
        Err(e) => return out.fail(format!("query: {e}: {sql}")),
    };
    let sample = Sample { wall_us: wall.as_secs_f64() * 1e6, wire_us: wire.as_secs_f64() * 1e6 };
    out.reads.push(sample);
    out.templates.push(template);
    out.layers.record(&report);
    if traced {
        out.layers.query_traced_us.push(sample.wall_us);
        out.layers
            .residual_us
            .push(sample.wall_us - layered_us - report.exec.wall.as_secs_f64() * 1e6);
    } else if layered {
        out.layers.query_untraced_us.push(sample.wall_us);
    }

    let order_by = cfg.workload.templates()[template].order_by;
    match ordered(&rel, order_by) {
        Ok(true) => {}
        Ok(false) => return out.fail(format!("rows not in ORDER BY {order_by:?} order: {sql}")),
        Err(e) => return out.fail(format!("{e}: {sql}")),
    }
    if let Expect::Checkpoint = expect {
        return;
    }
    let got = match Fingerprint::of(&rel, eq) {
        Ok(got) => got,
        Err(e) => return out.fail(format!("{e}: {sql}")),
    };
    match expect {
        Expect::Known(answers) if answers.get(sql) != Some(&got) => {
            out.fail(format!("wrong answer ({} rows): {sql}", rel.len()))
        }
        Expect::Known(_) | Expect::Checkpoint => {}
        Expect::Deferred => out.deferred.push((sql.to_string(), eq, got)),
    }
}

fn write(conn: &Connection, sql: &str, out: &mut ClientOut) {
    out.attempted += 1;
    let wire0 = conn.wire_time();
    let t = Instant::now();
    let result = conn.execute(sql);
    let wall = t.elapsed();
    let wire = conn.wire_time() - wire0;
    match result {
        Ok(_) => out
            .writes
            .push(Sample { wall_us: wall.as_secs_f64() * 1e6, wire_us: wire.as_secs_f64() * 1e6 }),
        Err(e) => out.fail(format!("execute: {e}: {sql}")),
    }
}

/// A quiescent `write-mix` checkpoint: with every client paused, each
/// pool statement served through the shared cache must match the
/// reference at the same data version.
fn checkpoint(checker: &mut Tango, reference: &mut Tango, out: &mut ClientOut) {
    for (template, sql) in write_pool() {
        out.attempted += 1;
        let (served, want) = match (checker.query(&sql), reference.query(&sql)) {
            (Ok((served, _)), Ok((want, _))) => (served, want),
            (Err(e), _) | (_, Err(e)) => {
                out.fail(format!("checkpoint: {e}: {sql}"));
                continue;
            }
        };
        let order_by = Workload::WriteMix.templates()[template].order_by;
        if ordered(&served, order_by) != Ok(true) {
            out.fail(format!("checkpoint: rows not in ORDER BY order: {sql}"));
        } else if Fingerprint::of(&served, Equivalence::Multiset)
            != Fingerprint::of(&want, Equivalence::Multiset)
        {
            out.fail(format!(
                "checkpoint: wrong answer ({} rows, reference {}): {sql}",
                served.len(),
                want.len()
            ));
        }
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

impl Measured {
    fn into_result(
        self,
        cfg: &RunConfig,
        setups: &[SetupTimes],
        setup_rss_mb: f64,
        plans: Vec<PlanRecord>,
    ) -> RunResult {
        let Measured { out, wall, serving_rss_mb, counters, cache_bytes, delta_log_bytes } = self;
        let ops = (out.reads.len() + out.writes.len()) as f64;
        let per_op = |x: f64| if ops > 0.0 { x / ops } else { 0.0 };
        let reads_n = out.reads.len().max(1) as f64;
        let modeled = sorted(&out.reads.iter().map(Sample::modeled_ms).collect::<Vec<_>>());
        let compute = sorted(&out.reads.iter().map(|s| s.wall_us / 1e3).collect::<Vec<_>>());
        let writes = sorted(&out.writes.iter().map(Sample::modeled_ms).collect::<Vec<_>>());
        let wire_ms: f64 =
            out.reads.iter().chain(&out.writes).map(|s| s.wire_us).sum::<f64>() / 1e3;
        let write_us = sorted(&out.writes.iter().map(|s| s.wall_us).collect::<Vec<_>>());

        // the setup whose total is the median, so its phases add up to
        // the reported setup_s
        let mut by_total = setups.to_vec();
        by_total.sort_by(|a, b| a.total.total_cmp(&b.total));
        let setup = by_total[(by_total.len() - 1) / 2];

        let tail = cfg.workload.tail_percentile();
        let end_to_end = vec![
            metric("setup_s", setup.total, "s"),
            metric("read_p50_ms", median(&modeled), "ms"),
            metric("read_tail_ms", percentile(&modeled, tail as f64), "ms"),
            metric("read_compute_p50_ms", median(&compute), "ms"),
            metric("ops_per_s", ops / wall.as_secs_f64().max(1e-9), "1/s"),
            metric("peak_rss_mb", setup_rss_mb, "MB"),
        ];
        // zero on some workloads, so not bounded end-to-end metrics (see
        // the README); shown with them and reported by the traced run
        let unbounded = [
            metric("write_p50_ms", median(&writes), "ms"),
            metric("write_tail_ms", percentile(&writes, WRITE_TAIL_PERCENTILE as f64), "ms"),
            metric("wire_ms_per_op", per_op(wire_ms), "ms"),
        ];
        let mut report = vec![
            metric("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
            metric("reads", out.reads.len() as f64, "count"),
            metric("writes", out.writes.len() as f64, "count"),
            metric("read_tail_percentile", tail as f64, "pct"),
            metric("read_tail_beyond", beyond(modeled.len(), tail) as f64, "count"),
            metric("read_p90_ms", percentile(&modeled, 90.0), "ms"),
            metric("read_p95_ms", percentile(&modeled, 95.0), "ms"),
            metric("read_p99_ms", percentile(&modeled, 99.0), "ms"),
            metric("write_tail_percentile", WRITE_TAIL_PERCENTILE as f64, "pct"),
            metric(
                "write_tail_beyond",
                beyond(writes.len(), WRITE_TAIL_PERCENTILE) as f64,
                "count",
            ),
        ];

        let l = &out.layers;
        let med = |v: &[f64]| median(&sorted(v));
        let c = &counters.cache;
        let lookups = c.hits + c.misses;
        let mut per_layer = vec![
            metric("tsql.parse_us", med(&l.parse_us), "us"),
            metric("opt.optimize_us", med(&l.optimize_us), "us"),
            metric("opt.volcano_us", med(&l.volcano_us), "us"),
            metric("opt.optimize_calls", l.optimize_calls as f64 / reads_n, "count/op"),
            metric("opt.enforcers_considered", l.enforcers as f64 / reads_n, "count/op"),
            metric("opt.memo_elements", l.elements as f64 / reads_n, "count/op"),
            metric("session.query_us", med(&l.query_traced_us), "us"),
            metric("session.residual_us", med(&l.residual_us), "us"),
            metric("engine.exec_us", med(&l.exec_us), "us"),
            metric("engine.plain_exec_us", med(&l.plain_exec_us), "us"),
            metric("engine.staged_breakers", l.staged as f64 / reads_n, "count/op"),
            metric("engine.replans", l.replans as f64, "count"),
            metric("xxl.sort_us", l.xxl_us[0] / reads_n, "us/op"),
            metric("xxl.taggr_us", l.xxl_us[1] / reads_n, "us/op"),
            metric("xxl.join_us", l.xxl_us[2] / reads_n, "us/op"),
            metric("xxl.other_us", l.xxl_us[3] / reads_n, "us/op"),
            metric("minidb.server_ms_per_op", per_op(counters.server.as_secs_f64() * 1e3), "ms"),
            metric("minidb.write_us", median(&write_us), "us"),
            metric("minidb.delta_log_bytes", delta_log_bytes as f64, "bytes"),
            metric("wire.round_trips_per_op", per_op(counters.roundtrips as f64), "count/op"),
            metric(
                "cache.hit_ratio",
                if lookups > 0 { c.hits as f64 / lookups as f64 } else { 0.0 },
                "ratio",
            ),
            metric("cache.evictions", c.evictions as f64, "count"),
            metric("cache.admission_rejects", c.admission_rejects as f64, "count"),
            metric("cache.invalidations", c.invalidations as f64, "count"),
            metric("cache.refreshes", c.refreshes as f64, "count"),
            metric("cache.refresh_bails", c.refresh_bails as f64, "count"),
            metric("cache.duplicate_populates", c.duplicate_populates as f64, "count"),
            metric("cache.bytes", cache_bytes as f64, "bytes"),
            metric("serving.peak_rss_mb", serving_rss_mb, "MB"),
            metric("setup.load_s", setup.load, "s"),
            metric("setup.analyze_s", setup.analyze, "s"),
            metric("calibrate.calibrate_s", setup.calibrate, "s"),
            metric("collector.collect_ms", setup.collect * 1e3, "ms"),
            metric("setup.warmup_s", setup.warmup, "s"),
            metric("setup.remainder_s", setup.remainder(), "s"),
            metric(
                "trace.overhead_us",
                if cfg.trace { med(&l.query_traced_us) - med(&l.query_untraced_us) } else { 0.0 },
                "us",
            ),
        ];
        for (i, t) in cfg.workload.templates().iter().enumerate() {
            let of_t: Vec<f64> = out
                .reads
                .iter()
                .zip(&out.templates)
                .filter(|(_, &k)| k == i)
                .map(|(s, _)| s.modeled_ms())
                .collect();
            report.push(metric(format!("reads.{}", t.name), of_t.len() as f64, "count"));
            report.push(metric(format!("read_p50_ms.{}", t.name), median(&sorted(&of_t)), "ms"));
        }
        let (metrics, mut report) = if cfg.trace {
            per_layer.extend(unbounded);
            (per_layer, [end_to_end, report].concat())
        } else {
            (end_to_end, [unbounded.to_vec(), report].concat())
        };
        report.push(metric("measured_s", wall.as_secs_f64(), "s"));
        RunResult {
            attempted: out.attempted,
            failed: out.failed,
            metrics,
            report,
            plans,
            errors: out.errors,
        }
    }
}
