//! Output checks: each workload's result is parsed and checked before
//! its timing counts, and reduced to the deterministic part that two
//! commits can compare for bit-identity.

/// Rows the paper's Table I has.
pub const TABLE1_ROWS: usize = 21;

/// A parsed Table I: the table without its time columns, and the
/// average MinObsWin ΔSER in %.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows and the AVG line with `t_ref` and `t_new` removed.
    pub deterministic: String,
    /// Circuit rows.
    pub rows: usize,
    /// The AVG row's `dSER_new`, in %.
    pub avg_dser_new: f64,
}

/// Parses the `table1` output: `name … | dFF_ref t_ref dSER_ref |
/// dFF_new t_new #J dSER_new ref/new`. Fails unless all 21 rows and the
/// AVG row are present.
pub fn table1(stdout: &str) -> Result<Table1, String> {
    let mut deterministic = String::new();
    let mut rows = 0;
    let mut avg = None;
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 3 || line.starts_with("Circuit") {
            continue;
        }
        let drop_second = |s: &str| {
            let mut t: Vec<&str> = s.split_whitespace().collect();
            if t.len() > 1 {
                t.remove(1);
            }
            t.join(" ")
        };
        let (reference, new) = (drop_second(parts[1]), drop_second(parts[2]));
        deterministic.push_str(&format!("{} | {reference} | {new}\n", parts[0].trim_end()));
        if line.starts_with("AVG.") {
            avg = new
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.trim_end_matches('%').parse().ok());
        } else {
            rows += 1;
        }
    }
    let avg_dser_new = avg.ok_or("no AVG row with a dSER_new column")?;
    if rows != TABLE1_ROWS {
        return Err(format!("table has {rows} rows, expected {TABLE1_ROWS}"));
    }
    Ok(Table1 {
        deterministic,
        rows,
        avg_dser_new,
    })
}

/// Checks the `fault-sim` report has both blocks and the summary;
/// returns the analytic SER change in %.
pub fn fault_sim(stdout: &str, method: &str) -> Result<f64, String> {
    for block in [
        "== original ==".to_string(),
        format!("== retimed ({method}) =="),
    ] {
        if stdout.lines().filter(|l| *l == block).count() != 1 {
            return Err(format!("report lacks exactly one `{block}` block"));
        }
    }
    if stdout.matches("empirical SER ").count() < 3 {
        return Err("report lacks a campaign summary".into());
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("empirical SER change: "))
        .and_then(|rest| rest.split("(analytic ").nth(1))
        .and_then(|rest| rest.split('%').next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| "report lacks the `empirical SER change` footer".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: usize) -> String {
        let mut t = String::from("Circuit |V| |E| #FF Phi SER | dFF_ref t_ref dSER_ref | x\n");
        for i in 0..rows {
            t.push_str(&format!(
                "c{i} 10 20 3 5s 1.0e-3 | -1.00% 0.{i:03} -2.00% | -1.50% 0.{i:03} 3 -2.50% 120%\n"
            ));
        }
        t.push_str("AVG. | -1.00% 0.010 -2.00% | -1.50% 0.020 3 -32.70% 115%\n");
        t
    }

    #[test]
    fn table_drops_time_columns_and_needs_every_row() {
        let t = table1(&table(TABLE1_ROWS)).unwrap();
        assert_eq!(t.rows, TABLE1_ROWS);
        assert_eq!(t.avg_dser_new, -32.70);
        assert!(t
            .deterministic
            .contains("c3 10 20 3 5s 1.0e-3 | -1.00% -2.00% | -1.50% 3 -2.50% 120%"));
        // Timing columns do not reach the deterministic text.
        assert!(!t.deterministic.contains("0.003"));
        assert!(table1(&table(TABLE1_ROWS - 1)).is_err());
    }

    #[test]
    fn fault_sim_report_needs_both_blocks() {
        let report = "== original ==\n  empirical SER 1e-4\n== retimed (minobswin) ==\n  \
                      empirical SER 9e-5\nempirical SER change: -10.00% (analytic -9.39%)\n";
        assert_eq!(fault_sim(report, "minobswin").unwrap(), -9.39);
        let missing = report.replace("== retimed (minobswin) ==\n", "");
        assert!(fault_sim(&missing, "minobswin").is_err());
        let no_footer = report.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(fault_sim(&no_footer, "minobswin").is_err());
    }
}
