//! Command line of the benchmark:
//!
//! ```text
//! sdds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, model outputs and metric lines, then one JSON object as
//! the last line of standard output; its `correct` field says whether
//! every operation cleared the correctness gate. Exits 2, printing no
//! result, on bad arguments or a failed measurement.

use std::process::ExitCode;

use sdds_perfbench::{run, Opts, Size};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sdds-perfbench: {e}");
            eprintln!(
                "usage: sdds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&workload, &opts) {
        Ok(rep) => {
            print!("{}", rep.render(&workload));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sdds-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
