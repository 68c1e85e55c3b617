//! Claim predicates and the reproduction ledger.
//!
//! A claim is a statement of the paper (or a finding of this repo) turned
//! into a predicate over a spec's numbers. Each compared pair carries its
//! own margin ε, derived from the data rather than fixed:
//!
//! - Monte-Carlo sweeps: the configs at one x share their training draws
//!   and evaluation set, so ε = 2 × the standard error of the paired
//!   per-run error differences.
//! - Single-split tables: ε = 2 × the binomial standard error of an
//!   accuracy difference on the `n_test` holdout rows.
//!
//! The paper's own tolerances ("~1%") are quoted beside a predicate, never
//! used as its threshold.

use crate::specs::Spec;
use crate::{Cell, Settings, Spread, Table};

/// One checked claim.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Claim {
    /// Short kebab-case name, unique within its spec.
    pub name: String,
    /// Whether the predicate held.
    pub pass: bool,
    /// The predicate, the numbers it compared, ε and the paper's wording.
    pub detail: String,
}

impl Claim {
    /// The verdict line `reproduce` prints and `REPRODUCTION.md` records.
    pub fn line(&self, spec: &str) -> String {
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        format!("{verdict} {spec}/{}: {}", self.name, self.detail)
    }
}

/// One compared pair: `hi` and `lo` at a labelled point, with its ε.
#[derive(Debug, Clone)]
pub(crate) struct Gap {
    /// Where the pair was measured, e.g. `(B) n_R=1000` or `Yelp DT-Gini`.
    pub(crate) at: String,
    /// The value expected to be larger (or equal).
    pub(crate) hi: f64,
    /// The value it is compared against.
    pub(crate) lo: f64,
    /// The pair's margin.
    pub(crate) eps: f64,
}

/// The relation a claim asserts at every one of its gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Test {
    /// `hi = lo` exactly.
    Equal,
    /// `|hi − lo| ≤ ε`.
    Within,
    /// `hi − lo > ε`.
    Above,
    /// `hi ≥ lo − ε`.
    NotBelow,
}

impl Test {
    /// How far `g` is from violating the relation; the tightest gap has
    /// the smallest margin.
    fn margin(self, g: &Gap) -> f64 {
        let d = g.hi - g.lo;
        match self {
            Test::Equal => -d.abs(),
            Test::Within => g.eps - d.abs(),
            Test::Above => d - g.eps,
            Test::NotBelow => d + g.eps,
        }
    }

    fn holds(self, g: &Gap) -> bool {
        let m = self.margin(g);
        m > 0.0 || (m == 0.0 && self != Test::Above)
    }
}

/// Checks `test` at every gap. `q` is the claim's name, a colon, then the
/// paper's wording. The detail names the relation, how many points satisfy
/// it, and the tightest (or worst) point's numbers and ε. An empty gap list
/// fails: a claim must compare something.
pub(crate) fn check(q: &str, test: Test, [hi, lo]: [&str; 2], gaps: &[Gap]) -> Claim {
    let (name, paper) = q.split_once(": ").expect("claim text is `name: paper`");
    let relation = match test {
        Test::Equal => format!("{hi} = {lo}"),
        Test::Within => format!("|{hi} − {lo}| ≤ ε"),
        Test::Above => format!("{hi} − {lo} > ε"),
        Test::NotBelow => format!("{hi} ≥ {lo} − ε"),
    };
    let held = gaps.iter().filter(|g| test.holds(g)).count();
    let margin = |g: &&Gap| test.margin(g);
    let numbers = gaps
        .iter()
        .min_by(|a, b| margin(a).total_cmp(&margin(b)))
        .map_or("no points".to_string(), |g| {
            format!(
                "tightest {}: {hi} {:.4}, {lo} {:.4}, ε {:.4}",
                g.at, g.hi, g.lo, g.eps
            )
        });
    Claim {
        name: name.to_string(),
        pass: !gaps.is_empty() && held == gaps.len(),
        detail: format!(
            "{relation} at {held}/{} points; {numbers} (paper: {paper})",
            gaps.len()
        ),
    }
}

/// The gap `a − b` labelled `at`. Its ε is paired over runs for
/// Monte-Carlo cells, binomial on the holdout rows for accuracies, and 0
/// for exact values.
pub(crate) fn gap(at: String, a: &Cell, b: &Cell) -> Gap {
    let eps = match (&a.spread, &b.spread) {
        (Spread::Runs(x), Spread::Runs(y)) => paired_eps(x, y),
        (Spread::Holdout(n), Spread::Holdout(_)) => binomial_eps(a.value, b.value, *n),
        _ => 0.0,
    };
    let (hi, lo) = (a.value, b.value);
    Gap { at, hi, lo, eps }
}

/// Column `hi` minus column `lo` in each row `keep(table index, row label)`
/// selects, skipping rows where either cell is missing or text-only.
pub(crate) fn gaps(
    tables: &[Table],
    [hi, lo]: [&str; 2],
    keep: impl Fn(usize, &str) -> bool,
) -> Vec<Gap> {
    let mut out = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        let tag = if t.title.starts_with('(') {
            &t.title[..4]
        } else {
            ""
        };
        for (label, _) in t.rows.iter().filter(|(l, _)| keep(i, l)) {
            if let (Some(a), Some(b)) = (t.get(label, hi), t.get(label, lo)) {
                if !a.value.is_nan() && !b.value.is_nan() {
                    out.push(gap(format!("{tag}{}={label} {hi}", t.header[0]), a, b));
                }
            }
        }
    }
    out
}

/// ε for paired samples: 2 × the standard error of the differences
/// `a[k] − b[k]`.
pub(crate) fn paired_eps(a: &[f64], b: &[f64]) -> f64 {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = d.len() as f64;
    let mean = d.iter().sum::<f64>() / n;
    let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    2.0 * (var / n).sqrt()
}

/// ε for two accuracies measured on the same `n` holdout rows: 2 × the
/// binomial standard error of their difference.
pub(crate) fn binomial_eps(a: f64, b: f64, n: usize) -> f64 {
    2.0 * ((a * (1.0 - a) + b * (1.0 - b)) / n as f64).sqrt()
}

/// The ledger: a header naming the settings and the host, then one
/// `### <id>: <title>` section of verdict lines per spec.
pub fn render(settings: &Settings, outcomes: &[(&Spec, Vec<Claim>)]) -> String {
    let claims = outcomes.iter().flat_map(|(_, c)| c);
    let passed = claims.clone().filter(|c| c.pass).count();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "- settings: {settings}\n- host: {} {}, {threads} threads, kernel tier {}\n- verdicts: {passed} PASS, {} FAIL\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        hamlet_ml::kernels::backend().name(),
        claims.count() - passed
    );
    for (spec, claims) in outcomes {
        out.push_str(&format!("\n### {}: {}\n\n```text\n", spec.id, spec.title));
        for c in claims {
            out.push_str(&c.line(spec.id));
            out.push('\n');
        }
        out.push_str("```\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(hi: f64, lo: f64, eps: f64) -> Gap {
        Gap {
            at: "x".into(),
            hi,
            lo,
            eps,
        }
    }

    #[test]
    fn tests_compare_against_eps() {
        let names = ["a", "b"];
        let pass = |t, g: Gap| check("c: p", t, names, &[g]).pass;
        assert!(pass(Test::Equal, gap(0.5, 0.5, 0.1)));
        assert!(!pass(Test::Equal, gap(0.5, 0.50001, 0.1)));
        assert!(pass(Test::Within, gap(0.5, 0.45, 0.05)));
        assert!(!pass(Test::Within, gap(0.5, 0.4, 0.05)));
        assert!(pass(Test::Above, gap(0.5, 0.4, 0.05)));
        assert!(!pass(Test::Above, gap(0.5, 0.45, 0.05)));
        assert!(pass(Test::NotBelow, gap(0.4, 0.45, 0.05)));
        assert!(!pass(Test::NotBelow, gap(0.4, 0.5, 0.05)));
        assert!(!check("c: p", Test::Within, names, &[]).pass);
    }

    #[test]
    fn detail_reports_the_tightest_point() {
        let mut far = gap(0.5, 0.1, 0.01);
        far.at = "far".into();
        let mut near = gap(0.5, 0.45, 0.01);
        near.at = "near".into();
        let c = check("gap: ~1%", Test::Above, ["hi", "lo"], &[far, near]);
        assert!(c.pass);
        assert_eq!(
            c.line("figX"),
            "PASS figX/gap: hi − lo > ε at 2/2 points; tightest near: hi 0.5000, lo 0.4500, \
             ε 0.0100 (paper: ~1%)"
        );
    }

    #[test]
    fn eps_formulas() {
        // Identical paired differences have no spread.
        assert_eq!(paired_eps(&[0.5, 0.75], &[0.25, 0.5]), 0.0);
        // Differences 0 and 0.2: sd 0.1414, se 0.1, ε 0.2.
        assert!((paired_eps(&[0.1, 0.3], &[0.1, 0.1]) - 0.2).abs() < 1e-12);
        // p = 0.5 on both sides, n = 100: se = sqrt(0.5 / 100).
        assert!((binomial_eps(0.5, 0.5, 100) - 2.0 * 0.005f64.sqrt()).abs() < 1e-12);
    }
}
