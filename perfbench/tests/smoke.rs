//! A tiny-scale run of every workload, traced and untraced, with the
//! correctness gate on: every answer matches the reference and every
//! metric the benchmark declares is reported.

use perfbench::fixture::Scale;
use perfbench::run::{run, RunConfig};
use perfbench::stream::Workload;

#[test]
fn every_workload_runs_correctly_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig { workload, seed: 7, seconds: 0.5, trace, scale: Scale::tiny() };
            let r = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(r.correct(), "{} trace={trace}: {:?}", workload.name(), r.errors);
            assert!(r.attempted > 0);
            let want: &[&str] = if trace {
                &["tsql.parse_us", "engine.exec_us", "cache.hit_ratio", "setup.remainder_s"]
            } else {
                &["setup_s", "read_p50_ms", "read_tail_ms", "ops_per_s", "peak_rss_mb"]
            };
            for name in want {
                let v = r.metrics.iter().find(|m| m.name == *name);
                assert!(v.is_some_and(|m| m.value.is_finite()), "{} lacks {name}", workload.name());
            }
            assert!(r.get("read_p50_ms").unwrap() > 0.0, "{}", workload.name());
        }
    }
}

#[test]
fn write_mix_refreshes_and_checks_at_checkpoints() {
    let cfg = RunConfig {
        workload: Workload::WriteMix,
        seed: 3,
        seconds: 1.0,
        trace: true,
        scale: Scale::tiny(),
    };
    let r = run(&cfg).unwrap();
    assert!(r.correct(), "{:?}", r.errors);
    assert!(r.get("writes").unwrap() > 0.0);
    assert!(r.get("minidb.write_us").unwrap() > 0.0);
}
