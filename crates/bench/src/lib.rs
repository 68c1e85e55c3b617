//! The paper reproduction: a table of experiment specs ([`specs::SPECS`],
//! one per paper figure or table) and the claim predicates that check their
//! numbers ([`ledger`]). The `reproduce` binary runs it.
//!
//! Settings, read once by [`Settings::parse`]:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `HAMLET_SCALE` | target `n_S` for the Table-1 dataset emulators (≥ 64, their floor) | 8000 |
//! | `HAMLET_RUNS` | Monte-Carlo runs per simulation point (≥ 2) | 20 (paper: 100) |
//! | `HAMLET_FULL` | `1`/`true` → paper-fidelity grids & big ANN everywhere | off |

pub mod ledger;
pub mod specs;

use std::path::Path;

use hamlet_core::prelude::*;

/// The experiment settings, parsed once and passed down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Target emulator size (total labelled examples).
    pub scale: usize,
    /// Monte-Carlo runs per simulation point.
    pub runs: usize,
    /// Full paper fidelity: paper grids and the big ANN everywhere.
    pub full: bool,
}

impl Settings {
    /// Parses the three settings from `var(name)` (`None` = unset, which
    /// takes the default); `reproduce` passes the environment. A value that
    /// does not parse is an error naming its variable, never a silent
    /// default.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let count = |name: &str, default: usize, min: usize| match var(name) {
            None => Ok(default),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("{name} must be an integer ≥ {min}, got {s:?}")),
            },
        };
        let full = match var("HAMLET_FULL").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(s) if s.eq_ignore_ascii_case("true") => true,
            Some(s) if s.eq_ignore_ascii_case("false") => false,
            Some(s) => {
                return Err(format!(
                    "HAMLET_FULL must be 1, true, 0 or false, got {s:?}"
                ))
            }
        };
        Ok(Self {
            // The emulators raise a smaller n_S to this floor.
            scale: count("HAMLET_SCALE", 8000, hamlet_datagen::emulate::MIN_N_S)?,
            // A sweep's ε is a standard error over runs, which needs two.
            runs: count("HAMLET_RUNS", 20, 2)?,
            full,
        })
    }

    /// Budget for the real-data (emulator) experiments: paper grids, with
    /// kernel/ANN sample caps unless `full`.
    pub fn table_budget(&self) -> Budget {
        if self.full {
            Budget::paper()
        } else {
            Budget {
                full_grids: true,
                max_kernel_rows: 1500,
                max_knn_rows: 20_000,
                max_ann_rows: 4000,
                ann_epochs: 10,
                small_ann: true,
                logreg_nlambda: 20,
                tree_categorical: hamlet_ml::tree::CategoricalSplit::SubsetPartition,
                seed: 0xB4D6E7,
            }
        }
    }

    /// Budget for the Monte-Carlo simulations: reduced grids unless `full`
    /// (each point repeats tuning `runs` times).
    pub fn sim_budget(&self) -> Budget {
        if self.full {
            Budget::paper()
        } else {
            Budget::quick()
        }
    }
}

impl std::fmt::Display for Settings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (scale, runs, full) = (self.scale, self.runs, u8::from(self.full));
        write!(
            f,
            "HAMLET_SCALE={scale} HAMLET_RUNS={runs} HAMLET_FULL={full}"
        )
    }
}

/// How a cell's value varies between repetitions; it sets the ε of a
/// difference between two cells (see [`ledger`]).
#[derive(Debug, Clone, serde::Serialize)]
pub enum Spread {
    /// The per-run errors of a Monte-Carlo point.
    Runs(Vec<f64>),
    /// An accuracy measured on this many holdout rows.
    Holdout(usize),
    /// An exact statistic or a wall-clock time.
    Exact,
}

/// One table cell: its printed text and the value claims compare.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Cell {
    /// As printed.
    pub text: String,
    /// As compared (`NaN` for a text-only cell).
    pub value: f64,
    /// How `value` varies.
    pub spread: Spread,
}

impl Cell {
    /// A value printed to 4 decimal places.
    pub fn num(value: f64, spread: Spread) -> Self {
        let text = acc(value);
        Self {
            text,
            value,
            spread,
        }
    }

    /// A text-only cell.
    pub fn text(text: impl Into<String>) -> Self {
        let text = text.into();
        Self {
            text,
            value: f64::NAN,
            spread: Spread::Exact,
        }
    }
}

/// A printed table: labelled rows of cells under a header whose first
/// entry names the label column.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    /// Printed above the table; a panel's starts with its letter, e.g. `(B)`.
    pub title: String,
    /// Column names, the label column first.
    pub header: Vec<String>,
    /// `(label, cells)`, one cell per header column after the first.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        let header = header.iter().map(|h| h.to_string()).collect();
        Self {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// The cell in row `label` under `column`.
    pub fn get(&self, label: &str, column: &str) -> Option<&Cell> {
        let j = self.header.iter().skip(1).position(|h| h == column)?;
        self.rows.iter().find(|(l, _)| l == label)?.1.get(j)
    }

    /// The table as aligned text: the title, the header, a rule and the
    /// rows, each column padded to its widest entry.
    pub fn render(&self) -> String {
        let mut lines: Vec<Vec<&str>> = vec![self.header.iter().map(String::as_str).collect()];
        for (label, cells) in &self.rows {
            let texts = std::iter::once(label).chain(cells.iter().map(|c| &c.text));
            lines.push(texts.map(String::as_str).collect());
        }
        let mut widths = vec![0; self.header.len()];
        for line in &lines {
            for (w, t) in widths.iter_mut().zip(line) {
                *w = (*w).max(t.chars().count());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        lines.insert(1, rule.iter().map(String::as_str).collect());
        let mut out = format!("\n{}\n", self.title);
        for line in lines {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(t, w)| format!("{t:<w$}"))
                .collect();
            out += padded.join("  ").trim_end();
            out.push('\n');
        }
        out
    }
}

/// Formats an accuracy or error to the paper's 4 decimal places.
pub fn acc(v: f64) -> String {
    format!("{v:.4}")
}

/// Writes `contents` to `dir/file`, creating `dir`; any failure is an error
/// naming the path.
pub fn write_artifact(dir: &Path, file: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!("[artifact] {}", path.display());
    Ok(())
}

/// The three headline configs, in the tables' column order.
pub fn three_configs() -> Vec<FeatureConfig> {
    vec![
        FeatureConfig::JoinAll,
        FeatureConfig::NoJoin,
        FeatureConfig::NoFK,
    ]
}

/// The two headline configs (models where the paper omits NoFK).
pub fn two_configs() -> Vec<FeatureConfig> {
    vec![FeatureConfig::JoinAll, FeatureConfig::NoJoin]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::parse(|name| {
            let v = vars.iter().find(|(k, _)| *k == name);
            v.map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn knob_defaults() {
        let defaults = Settings {
            scale: 8000,
            runs: 20,
            full: false,
        };
        assert_eq!(parse(&[]), Ok(defaults));
        let s = parse(&[
            ("HAMLET_SCALE", "1000"),
            ("HAMLET_RUNS", "2"),
            ("HAMLET_FULL", "TRUE"),
        ]);
        assert_eq!(s.map(|s| (s.scale, s.runs, s.full)), Ok((1000, 2, true)));
        assert_eq!(parse(&[("HAMLET_SCALE", "64")]).map(|s| s.scale), Ok(64));
        assert_eq!(parse(&[("HAMLET_FULL", "0")]).map(|s| s.full), Ok(false));
        assert_eq!(
            defaults.to_string(),
            "HAMLET_SCALE=8000 HAMLET_RUNS=20 HAMLET_FULL=0"
        );
    }

    #[test]
    fn bad_settings_name_their_variable() {
        for (var, value) in [
            ("HAMLET_SCALE", "abc"),
            ("HAMLET_SCALE", "0"),
            ("HAMLET_SCALE", "63"),
            ("HAMLET_RUNS", "abc"),
            ("HAMLET_RUNS", "1"),
            ("HAMLET_RUNS", "-3"),
            ("HAMLET_FULL", "yes"),
            ("HAMLET_FULL", ""),
        ] {
            let e = parse(&[(var, value)]).unwrap_err();
            assert!(e.starts_with(var), "{e}");
        }
        let e = parse(&[("HAMLET_SCALE", "1")]).unwrap_err();
        assert_eq!(e, "HAMLET_SCALE must be an integer ≥ 64, got \"1\"");
    }

    #[test]
    fn budgets_differ_by_fidelity() {
        let quick = parse(&[]).unwrap();
        assert!(quick.table_budget().full_grids);
        assert!(!quick.sim_budget().full_grids);
        let full = Settings {
            full: true,
            ..quick
        };
        assert!(full.sim_budget().full_grids);
    }

    #[test]
    fn unwritable_artifact_is_an_error() {
        let dir = std::env::temp_dir().join(format!("hamlet-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where the artifact directory should be.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "x").unwrap();
        let e = write_artifact(&blocker.join("sub"), "a.json", "{}").unwrap_err();
        assert!(e.contains("blocker"), "{e}");
        write_artifact(&dir, "a.json", "{}").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("a.json")).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tables_align_and_look_up_cells() {
        let mut t = Table::new("(A) t", &["x", "JoinAll"]);
        t.rows
            .push(("1000".into(), vec![Cell::num(0.28764, Spread::Exact)]));
        t.rows.push(("1".into(), vec![Cell::text("X")]));
        assert_eq!(t.get("1000", "JoinAll").map(|c| c.value), Some(0.28764));
        assert!(t.get("1000", "NoJoin").is_none());
        let want = "\n(A) t\nx     JoinAll\n----  -------\n1000  0.2876\n1     X\n";
        assert_eq!(t.render(), want);
    }

    #[test]
    fn formatting() {
        assert_eq!(acc(0.85371), "0.8537");
        assert_eq!(acc(0.04999), "0.0500");
    }

    #[test]
    fn config_lists() {
        assert_eq!(three_configs().len(), 3);
        assert_eq!(two_configs().len(), 2);
    }
}
