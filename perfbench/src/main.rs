//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. A
//! readable report goes to standard error. Exits 1 after printing when
//! any answer was wrong, 2 without printing when the run could not be
//! made.

use perfbench::fixture::Scale;
use perfbench::run::{run, Metric, PlanRecord, RunConfig, RunResult};
use perfbench::stream::Workload;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <warm-serving|paper-mix|write-mix|replan-rescue> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => flags.insert(k[2..].to_string(), v.clone()),
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        };
    }
    let mut take = |k: &str| flags.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = take("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(RunConfig { workload, seed, seconds, trace, scale: Scale::full() })
}

/// Where plan records of earlier runs in this build directory live.
fn record_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("perfbench-plans.tsv"))
}

/// Append this run's placements to the record and name every template
/// whose placement differs between this run's setups or from a recorded
/// earlier run of the same workload.
fn plan_flips(workload: Workload, plans: &[PlanRecord]) -> Vec<String> {
    let path = record_path();
    let earlier = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()).unwrap_or_default();
    let mut seen: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in earlier.lines() {
        if let [w, template, placement, _] = line.split('\t').collect::<Vec<_>>()[..] {
            if w == workload.name() {
                seen.entry(template.to_string()).or_default().push(placement.to_string());
            }
        }
    }
    let mut lines = String::new();
    for p in plans {
        for (template, placement) in &p.placements {
            seen.entry(template.clone()).or_default().push(placement.clone());
            lines.push_str(&format!(
                "{}\t{template}\t{placement}\t{}\n",
                workload.name(),
                p.factors
            ));
        }
    }
    if let Some(path) = path {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        if let Err(e) = appended {
            eprintln!("plan record {} not written: {e}", path.display());
        }
    }
    seen.into_iter()
        .filter_map(|(template, mut placements)| {
            placements.sort();
            placements.dedup();
            (placements.len() > 1).then(|| format!("{template}: {}", placements.join(" | ")))
        })
        .collect()
}

fn print_report(cfg: &RunConfig, r: &RunResult, flips: &[String]) {
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}): {} attempted, {} failed",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        r.attempted,
        r.failed
    );
    for m in r.metrics.iter().chain(&r.report) {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (i, p) in r.plans.iter().enumerate() {
        eprintln!("  setup {i}: factors {}", p.factors);
        for (template, placement) in &p.placements {
            eprintln!("    {template:<16} {placement}");
        }
    }
    if flips.is_empty() {
        eprintln!("  plans: every template kept its placement across setups and recorded runs");
    }
    for f in flips {
        eprintln!("  PLAN FLIP {f}");
    }
    for e in &r.errors {
        eprintln!("  FAILED {e}");
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: run failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let flips = plan_flips(cfg.workload, &result.plans);
    if cfg.trace {
        result.metrics.push(Metric {
            name: "calibrate.plan_flips".into(),
            value: flips.len() as f64,
            unit: "count",
        });
    }
    print_report(&cfg, &result, &flips);
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench {}: metric {} is {}", cfg.workload.name(), m.name, m.value);
        return ExitCode::from(2);
    }
    let metrics = result
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.correct(),
        result.attempted,
        result.failed
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
