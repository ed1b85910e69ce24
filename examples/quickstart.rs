//! Quickstart: parse (or generate) a sequential circuit, analyze its
//! soft error rate, retime it with MinObsWin, and compare.
//!
//! ```text
//! cargo run -p minobswin-bench --example quickstart [path/to/circuit.bench]
//! ```

use minobswin::experiment::{self, RunConfig};
use netlist::generator::GeneratorConfig;
use netlist::{bench_format, Circuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Load a user-supplied ISCAS89 .bench file, or fall back to a
    // generated 1200-gate sequential circuit.
    let circuit: Circuit = match std::env::args().nth(1) {
        Some(path) => bench_format::read_file(&path)?,
        None => GeneratorConfig::new("quickstart_demo", 2013)
            .gates(1200)
            .registers(220)
            .inputs(24)
            .outputs(24)
            .target_edges(2700)
            .build(),
    };
    println!("circuit: {circuit}");

    let run = experiment::run(&circuit, &RunConfig::default())?;
    println!(
        "\nperiod constraint Phi = {} ({}), R_min = {}",
        run.phi,
        if run.used_setup_hold {
            "from setup+hold retiming, +10% slack"
        } else {
            "fallback: min-period retiming, +10% slack"
        },
        run.r_min
    );
    println!("\n                 original      MinObs [17]     MinObsWin (this paper)");
    println!(
        "registers     {:>10}    {:>10}       {:>10}",
        run.ff, run.minobs.registers, run.minobswin.registers
    );
    println!(
        "SER (eq. 4)   {:>10.3e}    {:>10.3e}       {:>10.3e}",
        run.ser_original, run.minobs.ser, run.minobswin.ser
    );
    println!(
        "delta SER              --      {:>+8.2}%       {:>+8.2}%",
        run.minobs.delta_ser * 100.0,
        run.minobswin.delta_ser * 100.0
    );
    println!(
        "\nSER_ref / SER_new = {:.0}%  (> 100% means the ELW-aware retiming wins)",
        run.ser_ratio() * 100.0
    );
    println!(
        "solver time: MinObs {:.3}s, MinObsWin {:.3}s, #J = {}",
        run.minobs.solve_seconds, run.minobswin.solve_seconds, run.minobswin.stats.commits
    );
    Ok(())
}
