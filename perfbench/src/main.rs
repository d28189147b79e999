//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! Prints the digest of the first ops and, as the last line of stdout,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced).

use std::path::PathBuf;
use wmsn_perfbench::forensic::ForensicQueries;
use wmsn_perfbench::mlr::MlrFailoverCapture;
use wmsn_perfbench::spr::{SprFloodReference, SprFloodSharded};
use wmsn_perfbench::{run, Config, Outcome, DIGEST_OPS};

const USAGE: &str = "usage: perfbench --workload <spr_flood|spr_flood_sharded|mlr_failover_capture|forensic_queries> \
--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]";

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let scratch = PathBuf::from(get("--scratch").unwrap_or(".bench_build/perfbench-scratch"));
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            scratch,
        },
    ))
}

fn main() {
    let (workload, cfg) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let result: Result<Outcome, String> = match workload.as_str() {
        "spr_flood" => run::<SprFloodReference>(&cfg),
        "spr_flood_sharded" => run::<SprFloodSharded>(&cfg),
        "mlr_failover_capture" => run::<MlrFailoverCapture>(&cfg),
        "forensic_queries" => run::<ForensicQueries>(&cfg),
        w => Err(format!("unknown workload {w}\n{USAGE}")),
    };
    let out = result.unwrap_or_else(|e| {
        eprintln!("{workload}: {e}");
        std::process::exit(1);
    });
    println!(
        "digest workload={workload} seed={} ops={DIGEST_OPS} fnv={:016x}",
        cfg.seed, out.digest
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
