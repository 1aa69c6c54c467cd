//! `b2b-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints, last, one
//! JSON line: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones untraced, the per-layer ones with `--trace 1`, which
//! also writes the recorded spans under `perfbench/out/`. Exits nonzero on
//! bad arguments, a `B2B_*` variable in the environment, or an output
//! check that failed.

use b2b_perfbench::report::Report;
use b2b_perfbench::{host, run, RunConfig, Scale, Workload};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: b2b-perfbench --workload <rfq-trickle|rfq-burst|po-roundtrip> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::RfqTrickle,
        seed: 1,
        seconds: 10.0,
        trace: false,
        shards: host::cores(),
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                cfg.seconds =
                    value.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    cfg.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(cfg)
}

/// Writes the first traced episode's spans as tab-separated rows;
/// `initiate` spans carry their session's correlation number as tag.
fn write_trace(report: &Report, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let workload = report.config.workload;
    let path = dir.join(format!("trace-{}-seed{}.tsv", workload.name(), report.config.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns\ttag\td0\td1\td2")?;
    for (id, s) in report.spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX { String::from("-") } else { s.parent.to_string() };
        let tag = if s.name.starts_with("initiate") {
            workload.session_number(s.tag)
        } else {
            s.tag.to_string()
        };
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{tag}\t{}\t{}\t{}",
            s.name, s.start_ns, s.dur_ns, s.deltas[0], s.deltas[1], s.deltas[2]
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("b2b-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let root = Path::new(".");
    println!(
        "# workload {} seed {} seconds {} trace {} | host cores {} shards {} | build {} | commit {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host::cores(),
        cfg.shards,
        host::build_profile(),
        host::commit(root).unwrap_or_else(|| "unknown".into()),
    );
    let inputs: Vec<String> = report.inputs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# inputs {}", inputs.join(" "));
    for note in &report.notes {
        println!("# {note}");
    }
    let metrics = if cfg.trace { &report.per_layer } else { &report.end_to_end };
    for m in metrics {
        println!("# {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        match write_trace(&report, &root.join("perfbench").join("out")) {
            Ok(path) => println!("# {} spans written to {}", report.spans.len(), path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    for problem in &report.problems {
        println!("# CHECK FAILED: {problem}");
    }
    println!("{}", report.json(metrics));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
