//! Seeded operation streams: what each client of each workload sends.
//!
//! A stream depends only on the workload, the seed and the client
//! number, so the same seed replays the same operations. Literals are
//! spread over their ranges by a seeded golden-ratio sequence rather
//! than drawn independently, so every seed covers each range evenly and
//! the per-run medians do not drift with the seed.

use crate::check::Equivalence;
use std::collections::VecDeque;
use tango_algebra::date::{day, format_date};
use tango_bench::plans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmServing,
    PaperMix,
    WriteMix,
    ReplanRescue,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::WarmServing, Workload::PaperMix, Workload::WriteMix, Workload::ReplanRescue];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmServing => "warm-serving",
            Workload::PaperMix => "paper-mix",
            Workload::WriteMix => "write-mix",
            Workload::ReplanRescue => "replan-rescue",
        }
    }

    /// Closed-loop clients, each one `Tango` session in its own thread.
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmServing | Workload::WriteMix => 2,
            Workload::PaperMix | Workload::ReplanRescue => 1,
        }
    }

    /// The read templates this workload draws from.
    pub fn templates(self) -> &'static [Template] {
        match self {
            Workload::WarmServing => &SERVING_TEMPLATES,
            Workload::WriteMix => &WRITE_TEMPLATES,
            Workload::PaperMix => &PAPER_TEMPLATES,
            Workload::ReplanRescue => &RESCUE_TEMPLATES,
        }
    }

    /// The read percentile reported as `read_tail_ms`: the tail rule of
    /// [`crate::stats::tail_percentile`] at the smallest read count a
    /// full-scale run is expected to collect. Fixed per workload so a
    /// faster commit is not judged at a higher percentile.
    pub fn tail_percentile(self) -> u32 {
        match self {
            Workload::WarmServing | Workload::WriteMix | Workload::ReplanRescue => 95,
            Workload::PaperMix => 80,
        }
    }
}

/// A read shape: its name in the plan record, and the result columns of
/// its ORDER BY, which the correctness gate checks rows arrive sorted on.
#[derive(Debug)]
pub struct Template {
    pub name: &'static str,
    pub order_by: &'static [&'static str],
}

static SERVING_TEMPLATES: [Template; 2] = [
    Template { name: "taggr-position", order_by: &["PosID"] },
    Template { name: "employee-range", order_by: &["EmpID"] },
];
static WRITE_TEMPLATES: [Template; 3] = [
    Template { name: "taggr-position", order_by: &["PosID"] },
    Template { name: "employee-range", order_by: &["EmpID"] },
    Template { name: "position-history", order_by: &["PosID", "EmpID", "T1", "T2"] },
];
static PAPER_TEMPLATES: [Template; 4] = [
    Template { name: "q1", order_by: &["PosID"] },
    Template { name: "q2", order_by: &["PosID"] },
    Template { name: "q3", order_by: &["PosID"] },
    Template { name: "q4", order_by: &["PosID"] },
];
static RESCUE_TEMPLATES: [Template; 2] = [
    Template { name: "overlaps-narrow", order_by: &["PosID", "T1"] },
    Template { name: "overlaps-wide", order_by: &["PosID", "T1"] },
];

/// The `warm-serving` read pool, the same one `concurrency_bench`
/// serves: narrow temporal aggregations over POSITION and EMPLOYEE range
/// lookups. Six statements, so after warm-up every fragment is resident.
pub fn serving_pool() -> Vec<(usize, String)> {
    let mut pool: Vec<(usize, String)> = [8, 16, 24, 32]
        .iter()
        .map(|k| {
            (
                0,
                format!(
                    "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                     WHERE PosID < {k} GROUP BY PosID ORDER BY PosID"
                ),
            )
        })
        .collect();
    for k in [400, 800] {
        pool.push((
            1,
            format!("SELECT EmpID, Dept, Salary FROM EMPLOYEE WHERE EmpID < {k} ORDER BY EmpID"),
        ));
    }
    pool
}

/// The `write-mix` read pool: the `warm-serving` pool plus POSITION
/// history lookups ordered on every column they return. The TAGGR
/// fragments are ordered on (PosID, T1) only, so replaying a delta into
/// them is ambiguous and refresh-by-delta always bails to a refetch;
/// the history fragments are the ones a delta can refresh in place.
pub fn write_pool() -> Vec<(usize, String)> {
    let mut pool = serving_pool();
    for k in [16, 24] {
        pool.push((
            2,
            format!(
                "SELECT PosID, EmpID, T1, T2 FROM POSITION WHERE PosID < {k} \
                 ORDER BY PosID, EmpID, T1, T2"
            ),
        ));
    }
    pool
}

/// One statement a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Temporal SQL through `Tango::query`, whose answer must match the
    /// reference under `eq`.
    Read { template: usize, sql: String, eq: Equivalence },
    /// DML through `Connection::execute`.
    Write { kind: WriteKind, sql: String },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A new open-ended version of a served position (delta-logged, so
    /// cached fragments refresh by delta replay).
    Insert,
    /// Closes the period of a version this client inserted (poisons the
    /// delta log, so cached fragments are refetched).
    Update,
    /// Removes a version this client inserted.
    Delete,
}

/// splitmix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `i`-th point of the golden-ratio sequence started at `offset`:
/// evenly spread over [0, 1) for any prefix length.
fn spread(offset: f64, i: u64) -> f64 {
    (offset + i as f64 * 0.618_033_988_749_895).fract()
}

/// POSITION rows inserted by `write-mix` carry EmpIDs from here up, one
/// million per client, so each client updates and deletes only its own.
const MARKER_BASE: i64 = 900_000_000;
/// At most this many of a client's inserted versions are live at once.
const MAX_OUTSTANDING: usize = 8;
/// Share of `write-mix` operations that are DML, in percent.
const WRITE_PCT: u64 = 20;

/// A version `write-mix` inserted and may still update or delete.
struct Inserted {
    emp: i64,
    t1: i32,
    open: bool,
}

/// The infinite operation stream of one client.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    client: usize,
    i: u64,
    /// Per-template offsets of the literal spreads.
    offsets: [f64; 4],
    pool: Vec<(usize, String)>,
    inserted: VecDeque<Inserted>,
    next_marker: i64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Stream {
        let mut rng = Rng::new(seed ^ ((client as u64 + 1) << 56) ^ workload as u64);
        let offsets = [rng.unit(), rng.unit(), rng.unit(), rng.unit()];
        Stream {
            workload,
            rng,
            client,
            i: 0,
            offsets,
            pool: if workload == Workload::WriteMix { write_pool() } else { serving_pool() },
            inserted: VecDeque::new(),
            next_marker: 0,
        }
    }

    fn serving_read(&mut self) -> Op {
        let (template, sql) = &self.pool[self.rng.below(self.pool.len() as u64) as usize];
        Op::Read { template: *template, sql: sql.clone(), eq: Equivalence::Multiset }
    }

    /// Queries 1–4 of the paper once per round of four, in a seeded
    /// rotation. Query 2's window end and Query 3's start bound are
    /// spread over the whole data range, so their fragments rarely
    /// repeat; Queries 1 and 4 repeat every round.
    fn paper_read(&mut self) -> Op {
        let round = self.i / 4;
        let shift = (self.offsets[3] * 4.0) as u64;
        let template = ((self.i + round * 3 + shift) % 4) as usize;
        let mut eq = Equivalence::Multiset;
        let sql = match template {
            0 => plans::q1_sql("POSITION"),
            1 => {
                let (lo, hi) = (day(1984, 1, 1), day(2000, 6, 1));
                let (start, end) = (
                    day(1983, 1, 1),
                    lo + (spread(self.offsets[1], round) * (hi - lo) as f64) as i32,
                );
                eq = Equivalence::SnapshotsWithin(start.into(), end.into());
                plans::q2_sql(start, end)
            }
            2 => {
                let (lo, hi) = (day(1984, 1, 1), day(2000, 1, 1));
                plans::q3_sql(lo + (spread(self.offsets[2], round) * (hi - lo) as f64) as i32)
            }
            _ => plans::q4_sql("POSITION"),
        };
        Op::Read { template, sql, eq }
    }

    /// The `adaptive_bench` window spelled through `NOT`, so the joint
    /// Overlaps estimator cannot see it: four narrow windows (badly
    /// over-estimated, re-planned mid-query) to every wide one. Windows
    /// sit on a grid of 500 narrow and 25 wide ones; with the cache off
    /// a repeat is no cheaper, and the reference answers stay fewer than
    /// the reads.
    fn rescue_read(&mut self) -> Op {
        let wide = self.i % 5 == 4;
        let slots = if wide { 25 } else { 500 };
        let k = (spread(self.offsets[usize::from(wide)], self.i) * slots as f64) as i64;
        let (lo, width) =
            if wide { (500 + k * 80, 1_000 + k * 60) } else { (100 + k * 47 / 5, 5 + k * 7 % 36) };
        Op::Read {
            template: usize::from(wide),
            sql: rescue_sql(lo, lo + width),
            eq: Equivalence::Multiset,
        }
    }

    fn write(&mut self) -> Op {
        let pick = self.rng.below(3);
        let kind =
            if self.inserted.is_empty() || (pick == 0 && self.inserted.len() < MAX_OUTSTANDING) {
                WriteKind::Insert
            } else if pick == 1 && self.inserted.iter().any(|r| r.open) {
                WriteKind::Update
            } else {
                WriteKind::Delete
            };
        let sql = match kind {
            WriteKind::Insert => {
                let emp = MARKER_BASE + self.client as i64 * 1_000_000 + self.next_marker;
                self.next_marker += 1;
                let pos = 1 + self.rng.below(31) as i64;
                let t1 = day(1995, 1, 1) + self.rng.below(1_800) as i32;
                self.inserted.push_back(Inserted { emp, t1, open: true });
                format!(
                    "INSERT INTO POSITION VALUES ({pos}, {emp}, {}, 'BENCH', {:.2}, 40, \
                     DATE '{}', DATE '{}')",
                    1 + pos % 40,
                    10.0 + self.rng.below(4_000) as f64 / 100.0,
                    format_date(t1),
                    format_date(tango_uis::dataset_now()),
                )
            }
            WriteKind::Update => {
                let row = self.inserted.iter_mut().find(|r| r.open).expect("an open version");
                row.open = false;
                format!(
                    "UPDATE POSITION SET T2 = DATE '{}' WHERE EmpID = {}",
                    format_date(row.t1 + 30),
                    row.emp
                )
            }
            WriteKind::Delete => {
                let row = self.inserted.pop_front().expect("an inserted version");
                format!("DELETE FROM POSITION WHERE EmpID = {}", row.emp)
            }
        };
        Op::Write { kind, sql }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = match self.workload {
            Workload::WarmServing => self.serving_read(),
            Workload::PaperMix => self.paper_read(),
            Workload::ReplanRescue => self.rescue_read(),
            Workload::WriteMix => {
                if self.rng.below(100) < WRITE_PCT {
                    self.write()
                } else {
                    self.serving_read()
                }
            }
        };
        self.i += 1;
        Some(op)
    }
}

/// The `replan-rescue` read: the rescue join over an Overlaps window
/// spelled through `NOT`.
pub fn rescue_sql(lo: i64, hi: i64) -> String {
    format!(
        "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
         WHERE P.PosID = I.PosID AND NOT (P.T1 > {hi}) AND NOT (P.T2 < {lo}) \
         ORDER BY P.PosID, P.T1"
    )
}

/// One representative statement per template, for the plan record.
pub fn representatives(workload: Workload) -> Vec<String> {
    match workload {
        Workload::WarmServing => {
            let pool = serving_pool();
            vec![pool[1].1.clone(), pool[4].1.clone()]
        }
        Workload::WriteMix => {
            let pool = write_pool();
            vec![pool[1].1.clone(), pool[4].1.clone(), pool[6].1.clone()]
        }
        Workload::PaperMix => vec![
            plans::q1_sql("POSITION"),
            plans::q2_sql(day(1983, 1, 1), day(1995, 1, 1)),
            plans::q3_sql(day(1990, 1, 1)),
            plans::q4_sql("POSITION"),
        ],
        Workload::ReplanRescue => vec![rescue_sql(2_500, 2_520), rescue_sql(1_500, 3_500)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        for w in Workload::ALL {
            for client in 0..w.clients() {
                let a: Vec<Op> = Stream::new(w, 42, client).take(300).collect();
                let b: Vec<Op> = Stream::new(w, 42, client).take(300).collect();
                assert_eq!(a, b, "{} client {client}", w.name());
                let c: Vec<Op> = Stream::new(w, 43, client).take(300).collect();
                assert_ne!(a, c, "{}: another seed must give another stream", w.name());
            }
        }
    }

    #[test]
    fn clients_get_distinct_streams() {
        let a: Vec<Op> = Stream::new(Workload::WriteMix, 7, 0).take(100).collect();
        let b: Vec<Op> = Stream::new(Workload::WriteMix, 7, 1).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn paper_mix_rounds_hold_queries_one_to_four() {
        let ops: Vec<Op> = Stream::new(Workload::PaperMix, 9, 0).take(40).collect();
        for round in ops.chunks(4) {
            let mut seen: Vec<usize> = round
                .iter()
                .map(|op| match op {
                    Op::Read { template, .. } => *template,
                    Op::Write { .. } => panic!("paper-mix writes"),
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn write_mix_only_touches_its_own_rows() {
        let mut live: Vec<String> = Vec::new();
        let (mut writes, mut updates, mut deletes) = (0, 0, 0);
        for op in Stream::new(Workload::WriteMix, 5, 1).take(5_000) {
            let Op::Write { kind, sql } = op else { continue };
            writes += 1;
            let marker = sql.rsplit(|c: char| !c.is_ascii_digit()).find(|s| !s.is_empty());
            match kind {
                WriteKind::Insert => {
                    let emp = sql.split(", ").nth(1).expect("EmpID column").to_string();
                    assert!(emp.parse::<i64>().unwrap() >= MARKER_BASE + 1_000_000);
                    live.push(emp);
                }
                WriteKind::Update | WriteKind::Delete => {
                    let emp = marker.expect("EmpID literal").to_string();
                    assert!(live.contains(&emp), "{sql} targets a row this client did not insert");
                    if kind == WriteKind::Delete {
                        live.retain(|e| *e != emp);
                        deletes += 1;
                    } else {
                        updates += 1;
                    }
                }
            }
            assert!(live.len() <= MAX_OUTSTANDING);
        }
        assert!((800..1_200).contains(&writes), "about 20% of 5000 ops are DML, got {writes}");
        assert!(updates > 0 && deletes > 0);
    }
}
