//! `ucudnn-e2ebench --workload <train|plan_wd|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run log and, as the last line, one JSON result object. Exits 1
//! when a correctness check fails and 2 on a usage or environment error
//! (without printing a result).

use std::process::ExitCode;
use ucudnn_e2ebench::report::{end_to_end_names, per_layer_names, Report};
use ucudnn_e2ebench::{plan_wd, serve, settings, train, ucudnn_vars, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let vars = ucudnn_vars(std::env::vars());
    for (k, v) in &vars {
        eprintln!("environment: {k}={v}");
    }
    if !vars.is_empty() {
        eprintln!("refusing to run: the program reads UCUDNN_* variables; unset them");
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!("environment: no UCUDNN_* variables set");
    for line in settings::describe() {
        println!("setting {line}");
    }
    let mut report = Report::new();
    let outcome = match args.workload.as_str() {
        "train" => train::run(&args, &mut report).map_err(|e| e.to_string()),
        "plan_wd" => plan_wd::run(&args, &mut report).map_err(|e| e.to_string()),
        "serve" => serve::run(&args, &mut report),
        _ => unreachable!("workload validated by Args::parse"),
    };
    if let Err(e) = outcome {
        report.check("workload completed", false, e);
    }
    println!(
        "peak RSS of the process (VmHWM, includes checks): {:.2} MiB",
        ucudnn_e2ebench::report::peak_hwm_mib()
    );
    let names = if args.trace {
        report.print_layer_table();
        per_layer_names()
    } else {
        end_to_end_names()
    };
    let line = report.result_line(&names);
    println!("{line}");
    if report.all_checks_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
