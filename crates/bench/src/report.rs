//! Table rendering for the `repro_*` binaries.
//!
//! Plain aligned-pipe tables so the output drops straight into
//! EXPERIMENTS.md next to the paper's numbers.

use crate::policies::PolicyExperiment;
use convgpu_scheduler::policy::PolicyKind;

/// Render an aligned markdown-style table.
pub fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(headers, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Format seconds with one decimal, paper-table style.
pub fn secs1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format milliseconds with three decimals (Fig. 4 scale).
pub fn ms3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage with one decimal.
pub fn pct1(v: f64) -> String {
    format!("{v:+.1}%")
}

/// The whole stdout of `repro_utilization`: time-weighted mean GPU
/// memory utilization per policy and container count over the Fig. 7
/// sweep (6 reps, virtual time). Pinned by
/// `tests/golden/utilization.golden`.
pub fn utilization_report() -> String {
    let ns = [8u32, 16, 24, 32, 38];
    let mut headers = vec!["policy".to_string()];
    headers.extend(ns.iter().map(|n| n.to_string()));
    let rows: Vec<Vec<String>> = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut row = vec![policy.label().to_string()];
            for &n in &ns {
                let mut total = 0.0;
                let reps = 6;
                for rep in 0..reps {
                    let r = PolicyExperiment::paper(n, policy, 4000 + rep).run();
                    total += r.mean_utilization;
                }
                row.push(format!("{:.1}", 100.0 * total / reps as f64));
            }
            row
        })
        .collect();
    format!(
        "== ConVGPU extension: mean GPU memory utilization (%) by policy ==\n\
         (paper trace, 6 reps, virtual time, 5 GiB K20m)\n\n\
         {}\n\
         expectation (paper §IV-C): BF sustains the highest utilization under\n\
         load — the mechanism behind its Fig. 7 finished-time win.\n",
        format_table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["Policy".into(), "4".into(), "38".into()],
            &[
                vec!["FIFO".into(), "67.6".into(), "593.8".into()],
                vec!["BF".into(), "68.2".into(), "588.7".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len), "{t}");
        assert!(lines[0].contains("Policy"));
        assert!(lines[2].contains("FIFO"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        format_table(&["a".into()], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs1(67.64), "67.6");
        assert_eq!(ms3(0.0823), "0.082");
        assert_eq!(pct1(0.72), "+0.7%");
        assert_eq!(pct1(-1.25), "-1.2%");
    }
}
