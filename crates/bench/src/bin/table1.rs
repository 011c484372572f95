//! Regenerate Table 1: FTP file-transfer performance.
//!
//!   cargo run -p bench --release --bin table1 [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs the three network platforms'
//! File 1 transfer with tracing enabled and writes a Chrome trace-event
//! (Perfetto) JSON file.

use bench::{cli, table1};
use dsim::TraceConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("table1");
    let sizes = table1::FILE_SIZES;
    let rows = table1::run_table1_with(&sizes, args.threads());
    print!("{}", table1::render(&rows, &sizes));
    if let Some(path) = &args.trace {
        let parts: Vec<_> = table1::table1_rows()
            .iter()
            .filter_map(|(label, p)| {
                let out = table1::ftp_transfer_traced(
                    p.as_ref()?,
                    sizes[0],
                    Some(TraceConfig::default()),
                );
                Some((
                    format!("{label} file1 FTP"),
                    out.trace.expect("tracing was enabled"),
                ))
            })
            .collect();
        cli::write_trace(path, &parts);
    }
}
