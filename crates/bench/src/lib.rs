//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every binary prints the paper-equivalent rows/series to stdout and also
//! writes a CSV under `results/` (override with `UCUDNN_RESULTS_DIR`) so
//! EXPERIMENTS.md can reference machine-readable outputs.

pub mod report;

use std::io::Write;
use std::path::PathBuf;
use ucudnn::KernelKey;
use ucudnn_cudnn_sim::ConvOp;
use ucudnn_framework::NetworkDef;

/// One mebibyte.
pub const MIB: usize = 1024 * 1024;

/// The value that follows `flag` in `args`, or `None` when the flag is
/// absent. A flag given without a value prints `usage` and exits with
/// status 2.
pub fn flag_value(args: &[String], flag: &str, usage: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{flag} needs a value\nusage: {usage}");
            std::process::exit(2)
        }
    }
}

/// Where CSV outputs go.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("UCUDNN_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("cannot create results directory");
    p
}

/// Write a CSV file into the results directory.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("cannot create CSV");
    writeln!(f, "{}", header.join(",")).unwrap();
    for r in rows {
        writeln!(f, "{}", r.join(",")).unwrap();
    }
    println!("[csv] wrote {}", path.display());
}

/// Print an aligned table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Human label for a kernel: the conv layer's name plus the op shorthand
/// the paper uses in Fig. 14 (F / BD / BF).
pub fn kernel_label(net: &NetworkDef, key: &KernelKey) -> String {
    let op = match key.op {
        ConvOp::Forward => "F",
        ConvOp::BackwardData => "BD",
        ConvOp::BackwardFilter => "BF",
    };
    for id in net.conv_layers() {
        let g = net.conv_geometry(id);
        if g == key.geometry() {
            return format!("{} {}", net.nodes()[id].name, op);
        }
    }
    format!("{key}")
}

/// Format microseconds as milliseconds with 3 decimals.
pub fn ms(us: f64) -> String {
    format!("{:.3}", us / 1000.0)
}

/// Format bytes as MiB with 1 decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / MIB as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1500.0), "1.500");
        assert_eq!(mib(64 * MIB), "64.0");
    }

    #[test]
    fn kernel_labels_resolve_layer_names() {
        let net = ucudnn_framework::alexnet(32);
        let id = net.conv_layers()[1];
        let g = net.conv_geometry(id);
        let key = KernelKey::new(ucudnn_cudnn_sim::ConvOp::Forward, &g);
        assert_eq!(kernel_label(&net, &key), "conv2 F");
    }
}
