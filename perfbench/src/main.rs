//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its report, then one JSON result line.
//! Exits 0 when every check passed, 2 when a check failed, 1 on error.

use perfbench::gen::Scale;
use perfbench::{Args, Workload};
use std::path::Path;

const USAGE: &str = "usage: perfbench --workload <join_fd|diff_denial|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let work_root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
        work_dir: work_root.join(format!("run-{}", std::process::id())),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(1);
        }
    };
    let result = perfbench::run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            for e in &out.errors {
                println!("CHECK FAILED: {e}");
            }
            println!("{}", out.json());
            std::process::exit(if out.correct { 0 } else { 2 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
