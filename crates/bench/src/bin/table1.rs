//! Regenerates the paper's **Table I** on synthetic twins of the 21
//! ISCAS89/ITC99 circuits.
//!
//! ```text
//! cargo run -p minobswin-bench --release --bin table1 -- [--scale N]
//!     [--giant-extra N] [--filter SUBSTR] [--vectors K] [--frames N] [--full]
//! ```
//!
//! `--full` runs unscaled twins (hours of runtime on the b18/b19
//! twins); the default `--scale 16` reproduces the qualitative shape in
//! minutes.

use std::process::ExitCode;

use bench_harness::cli::{self, Parsed};
use bench_harness::{format_table, run_table1};

fn main() -> ExitCode {
    let options = match cli::table1(std::env::args().skip(1).collect()) {
        Ok(Parsed::Run(options)) => options,
        Ok(Parsed::Help(usage)) => {
            eprintln!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::TABLE1_USAGE);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "running Table I twins at scale 1/{} (giants 1/{}), K={}, n={} ...",
        options.scale,
        options.scale * options.giant_extra_scale,
        options.num_vectors,
        options.frames
    );
    let rows = run_table1(&options);
    println!("{}", format_table(&rows));
    ExitCode::SUCCESS
}
