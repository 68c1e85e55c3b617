//! The table of experiment specs: one per paper figure or table, each with
//! the claims its numbers are checked against. The Monte-Carlo figures are
//! lists of panels for one sweep runner; the emulator tables share one grid
//! runner. A claim's text is its name, a colon, then the paper's wording.

use std::sync::Mutex;

use hamlet_core::montecarlo::{onexr_bayes, run_monte_carlo, xsxr_bayes, MonteCarloPoint};
use hamlet_core::prelude::*;
use hamlet_datagen::emulate::MIN_N_R;
use hamlet_datagen::prelude::*;
use hamlet_datagen::sim::GeneratedStar;
use hamlet_ml::dataset::Provenance;
use hamlet_ml::prelude::Classifier;
use hamlet_ml::tree::CategoricalSplit;
use serde::Serialize as _;

use crate::ledger::{check, gap, gaps, Claim, Gap, Test, Test::*};
use crate::{three_configs, two_configs, Cell, Settings, Spread, Table};
use Field::*;
use ModelSpec::*;
use Scenario::*;

const JA: &str = "JoinAll";
const NJ: &str = "NoJoin";
const NOFK: &str = "NoFK";
const TREES: &[ModelSpec] = &[TreeGini, TreeInfoGain, TreeGainRatio];

/// One experiment: what `reproduce <id>` runs.
pub struct Spec {
    /// The positional id, e.g. `fig2`.
    pub id: &'static str,
    /// The printed heading.
    pub title: &'static str,
    /// Runs the experiment and checks its claims.
    pub run: fn(&Settings) -> Outcome,
}

/// What a spec produced.
pub struct Outcome {
    /// The printed tables.
    pub tables: Vec<Table>,
    /// The raw results, written to `target/experiments/<id>.json`.
    pub json: serde::Value,
    /// One verdict per claim.
    pub claims: Vec<Claim>,
}

/// The spec with this id.
pub fn find(id: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.id == id)
}

/// Every spec, in the order `reproduce` runs them and `REPRODUCTION.md`
/// lists them.
pub const SPECS: &[Spec] = &[
    Spec {
        id: "table1",
        title: "Table 1: dataset statistics",
        run: table1,
    },
    Spec {
        id: "table2",
        title: "Tables 2 and 5: decision trees and 1-NN",
        run: |s| {
            accuracy_grid(
                s,
                &[TreeGini, TreeInfoGain, TreeGainRatio, OneNN],
                table2_claims,
            )
        },
    },
    Spec {
        id: "table3",
        title: "Tables 3 and 6: SVMs, ANN, NB-BFS, LogReg-L1",
        run: |s| accuracy_grid(s, TABLE3, table3_claims),
    },
    Spec {
        id: "table4",
        title: "Table 4: discarding dimension tables, gini decision tree",
        run: table4,
    },
    Spec {
        id: "fig1",
        title: "Figure 1: end-to-end runtimes (seconds) JoinAll vs NoJoin",
        run: fig1,
    },
    Spec {
        id: "fig2",
        title: "Figure 2: OneXr simulation, gini decision tree, average test error",
        run: |s| sweep(s, FIG2, &[TreeGini], ERROR, fig2_claims),
    },
    Spec {
        id: "fig3",
        title: "Figure 3: OneXr, average test error",
        run: |s| sweep(s, &[(OneXr, NR)], &[OneNN, SvmRbf], ERROR, fig3_claims),
    },
    Spec {
        id: "fig4",
        title: "Figure 4: OneXr, average net variance",
        run: |s| {
            sweep(
                s,
                &[(OneXr, NR)],
                &[OneNN, SvmRbf],
                NET_VARIANCE,
                fig4_claims,
            )
        },
    },
    Spec {
        id: "fig5",
        title: "Figure 5: OneXr with FK skew, gini decision tree, average test error",
        run: |s| sweep(s, FIG5, &[TreeGini], ERROR, fig5_claims),
    },
    Spec {
        id: "fig6",
        title: "Figure 6: XSXR simulation, gini decision tree, average test error",
        run: |s| sweep(s, FIG6, &[TreeGini], ERROR, fig6_claims),
    },
    Spec {
        id: "fig7",
        title: "Figure 7: RepOneXr, gini decision tree, average test error",
        run: |s| sweep(s, REP, &[TreeGini], ERROR, fig7_claims),
    },
    Spec {
        id: "fig8",
        title: "Figure 8: RepOneXr, RBF-SVM, average test error",
        run: |s| sweep(s, REP, &[SvmRbf], ERROR, fig8_claims),
    },
    Spec {
        id: "fig9",
        title: "Figure 9: RepOneXr, 1-NN, average test error",
        run: |s| sweep(s, REP, &[OneNN], ERROR, fig9_claims),
    },
    Spec {
        id: "fig10",
        title: "Figure 10: FK domain compression, gini decision tree, NoJoin",
        run: fig10,
    },
    Spec {
        id: "fig11",
        title: "Figure 11: FK smoothing under OneXr, gini decision tree, average test error",
        run: fig11,
    },
];

// ---------------------------------------------------------------------------
// Claim helpers

/// `check` between columns `cols` in the rows `keep(table, label)` selects.
fn claim(
    t: &[Table],
    q: &str,
    test: Test,
    cols: [&str; 2],
    keep: impl Fn(usize, &str) -> bool,
) -> Claim {
    check(q, test, cols, &gaps(t, cols, keep))
}

fn all(_: usize, _: &str) -> bool {
    true
}

/// Every row of table `p`.
fn panel(p: usize) -> impl Fn(usize, &str) -> bool {
    move |i, _| i == p
}

/// The row labelled `label` of table `p`.
fn at(p: usize, label: &'static str) -> impl Fn(usize, &str) -> bool {
    move |i, l| i == p && l == label
}

/// The rows of table `p` whose numeric label lies in `lo..=hi`.
fn span(p: usize, lo: f64, hi: f64) -> impl Fn(usize, &str) -> bool {
    move |i, l| i == p && (lo..=hi).contains(&l.parse().expect("row label is a number"))
}

/// The measured cell in row `label` under `column`.
fn cell<'a>(t: &'a Table, label: &str, column: &str) -> &'a Cell {
    t.get(label, column).expect("the cell was measured")
}

// ---------------------------------------------------------------------------
// Monte-Carlo sweeps

/// A simulation scenario (§4): OneXr's lone driving foreign feature, the
/// noise-free XSXR, or RepOneXr's driving feature replicated across `X_R`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    OneXr,
    XsXr,
    Replicated,
}

/// A swept parameter, with anything its panel pins.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    NS,
    NR,
    DS,
    DR,
    P,
    DXr,
    Zipf,
    NsZipf2,
    Needle,
    NsNeedle05,
    Dr40,
    Dr200,
}

const NS_XS: &[f64] = &[100.0, 300.0, 1000.0, 3000.0, 10_000.0];
const NR_XS: &[f64] = &[1.0, 10.0, 40.0, 100.0, 333.0, 1000.0];
const D_XS: &[f64] = &[1.0, 4.0, 7.0, 10.0];
const P_XS: &[f64] = &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
const DXR_XS: &[f64] = &[2.0, 5.0, 10.0, 20.0, 40.0];
const ZIPF_XS: &[f64] = &[0.0, 1.0, 2.0, 3.0, 4.0];
const NEEDLE_XS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 1.0];
const REP_XS: &[f64] = &[1.0, 4.0, 8.0, 12.0, 16.0];

impl Field {
    /// Column label, description and swept values.
    fn about(self) -> (&'static str, &'static str, &'static [f64]) {
        match self {
            NS => ("n_S", "number of training examples n_S", NS_XS),
            NR => ("n_R", "number of FK values |D_FK| = n_R", NR_XS),
            DS => ("d_S", "number of features in S (d_S)", D_XS),
            DR => ("d_R", "number of features in R (d_R)", D_XS),
            P => ("p", "probability parameter p of P(Y|Xr)", P_XS),
            DXr => ("|D_Xr|", "|D_Xr| (driving-feature domain)", DXR_XS),
            Zipf => ("zipf_s", "Zipfian skew parameter", ZIPF_XS),
            NsZipf2 => ("n_S", "n_S at Zipf skew 2", NS_XS),
            Needle => ("needle_p", "needle probability", NEEDLE_XS),
            NsNeedle05 => ("n_S", "n_S at needle probability 0.5", NS_XS),
            Dr40 => ("d_R", "d_R at n_R = 40 (ratio 25x)", REP_XS),
            Dr200 => ("d_R", "d_R at n_R = 200 (ratio 5x)", REP_XS),
        }
    }

    /// The `OneXr` defaults `(n_S, n_R, d_S, d_R) = (1000, 40, 4, 4)`,
    /// `p = 0.1`, which the other scenarios share, with `x` set.
    fn params(self, x: f64, seed: u64) -> OneXrParams {
        let mut p = OneXrParams {
            seed,
            ..Default::default()
        };
        match self {
            NS => p.n_s = x as usize,
            NR => p.n_r = x as u32,
            DS => p.d_s = x as usize,
            DR => p.d_r = x as usize,
            P => p.p = x,
            DXr => p.xr_domain = x as u32,
            Zipf => p.skew = FkSkew::Zipf { s: x },
            NsZipf2 => (p.n_s, p.skew) = (x as usize, FkSkew::Zipf { s: 2.0 }),
            Needle => p.skew = FkSkew::NeedleThread { p: x },
            NsNeedle05 => (p.n_s, p.skew) = (x as usize, FkSkew::NeedleThread { p: 0.5 }),
            Dr40 => (p.d_r, p.n_r) = (x as usize, 40),
            Dr200 => (p.d_r, p.n_r) = (x as usize, 200),
        }
        p
    }
}

const ERROR: fn(&BiasVariance) -> f64 = |bv| bv.avg_error;
const NET_VARIANCE: fn(&BiasVariance) -> f64 = |bv| bv.net_variance;

/// A panel: a scenario and the parameter it sweeps.
type Panel = (Scenario, Field);

const FIG2: &[Panel] = &[
    (OneXr, NS),
    (OneXr, NR),
    (OneXr, DS),
    (OneXr, DR),
    (OneXr, P),
    (OneXr, DXr),
];
const FIG5: &[Panel] = &[
    (OneXr, Zipf),
    (OneXr, NsZipf2),
    (OneXr, Needle),
    (OneXr, NsNeedle05),
];
const FIG6: &[Panel] = &[(XsXr, NS), (XsXr, NR), (XsXr, DR), (XsXr, DS)];
const REP: &[Panel] = &[(Replicated, Dr40), (Replicated, Dr200)];

fn generate((scenario, field): Panel, x: f64, seed: u64) -> GeneratedStar {
    let p = field.params(x, seed);
    let (n_s, n_r, d_s, d_r) = (p.n_s, p.n_r, p.d_s, p.d_r);
    match scenario {
        OneXr => onexr::generate(p),
        XsXr => xsxr::generate(XsXrParams {
            n_s,
            n_r,
            d_s,
            d_r,
            seed,
            ..Default::default()
        }),
        Replicated => reponexr::generate(RepOneXrParams {
            n_s,
            n_r,
            d_s,
            d_r,
            p: p.p,
            seed,
            ..Default::default()
        }),
    }
}

/// Sweeps each model over each panel, JoinAll / NoJoin / NoFK: one table
/// per (model, panel), a row per x, each cell a `metric` of the runs. The
/// configs at one x share a base seed, so they see the same training draws
/// and the same evaluation set.
fn sweep(
    s: &Settings,
    panels: &[Panel],
    models: &[ModelSpec],
    metric: fn(&BiasVariance) -> f64,
    claims: fn(&[Table]) -> Vec<Claim>,
) -> Outcome {
    let (mut tables, mut json) = (Vec::new(), Vec::new());
    let each = models
        .iter()
        .flat_map(|m| panels.iter().map(move |p| (*m, *p)));
    for (i, (model, panel)) in each.enumerate() {
        let (label, what, xs) = panel.1.about();
        let by = if models.len() > 1 {
            format!("{}: ", model.name())
        } else {
            String::new()
        };
        let title = format!("({}) {by}vary {what}", char::from(b'A' + i as u8));
        let mut t = Table::new(title, &[label, JA, NJ, NOFK]);
        for &x in xs {
            let points = points(s, panel, model, x);
            eprintln!("{} {}={x}", t.title, label);
            let cell = |p: &MonteCarloPoint| {
                Cell::num(metric(&p.result), Spread::Runs(p.run_errors.clone()))
            };
            t.rows
                .push((x.to_string(), points.iter().map(cell).collect()));
            json.push((t.title.clone(), x, points));
        }
        tables.push(t);
    }
    Outcome {
        claims: claims(&tables),
        tables,
        json: json.serialize(),
    }
}

/// A sweep row: its panel, model, `x` (as bits) and the settings.
type Row = (Panel, ModelSpec, u64, Settings);

/// Every sweep row this process has run. Figure 4 prints the net variance
/// of Figure 3's points, so a run of both computes them once.
static ROWS: Mutex<Vec<(Row, Vec<MonteCarloPoint>)>> = Mutex::new(Vec::new());

/// The JoinAll / NoJoin / NoFK points of one sweep row, run on first use.
fn points(s: &Settings, panel: Panel, model: ModelSpec, x: f64) -> Vec<MonteCarloPoint> {
    let row = (panel, model, x.to_bits(), *s);
    let rows = || ROWS.lock().unwrap();
    if let Some((_, points)) = rows().iter().find(|(r, _)| *r == row) {
        return points.clone();
    }
    let bayes = |gs: &GeneratedStar| match panel.0 {
        XsXr => xsxr_bayes(gs),
        OneXr | Replicated => onexr_bayes(gs, panel.1.params(x, 0).p),
    };
    let (seed, budget) = (0xC0FFEE ^ (x * 1024.0) as u64, s.sim_budget());
    let gen = |k| generate(panel, x, k);
    let run = |c| run_monte_carlo(gen, bayes, s.runs, model, c, &budget, seed).expect("point runs");
    let points: Vec<MonteCarloPoint> = three_configs().iter().map(run).collect();
    rows().push((row, points.clone()));
    points
}

fn fig2_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        // This repo's tree finding: with subset splits every foreign feature
        // is a function of its FK, so the FK's optimal subset split scores at
        // least as high at every node, and JoinAll grows the NoJoin tree.
        "tree-joinall-is-nojoin: NoJoin ≈ JoinAll (≈ Bayes error 0.1) everywhere",
        "nofk-beats-nojoin-at-nr-1000: a tuple ratio below ~3 lifts both above NoFK",
    ];
    vec![
        claim(t, q[0], Equal, [JA, NJ], all),
        claim(t, q[1], Above, [NJ, NOFK], at(1, "1000")),
    ]
}

fn fig3_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        "rbf-tracks-joinall-to-nr-100: the RBF-SVM's NoJoin deviates once the tuple ratio falls below ≈6 (n_R ≳ 170)",
        "rbf-deviates-from-nr-333: the RBF-SVM's NoJoin deviates once the tuple ratio falls below ≈6 (n_R ≳ 170)",
        "1nn-deviates-from-nr-10: the 1-NN destabilises much earlier, around n_R = 10 (ratio 100)",
    ];
    vec![
        claim(t, q[0], Within, [NJ, JA], span(1, 0.0, 100.0)),
        claim(t, q[1], Above, [NJ, JA], span(1, 333.0, f64::INFINITY)),
        claim(t, q[2], Above, [NJ, JA], span(0, 10.0, f64::INFINITY)),
    ]
}

fn fig4_claims(t: &[Table]) -> Vec<Claim> {
    let q = "rbf-net-variance-rises-from-nr-333: the RBF-SVM's error deviation is mirrored by rising net variance (ε of the errors)";
    vec![claim(t, q, Above, [NJ, JA], span(1, 333.0, f64::INFINITY))]
}

fn fig5_claims(t: &[Table]) -> Vec<Claim> {
    let q = "nojoin-tracks-joinall: no amount of Zipf or needle skew widens the gap significantly";
    vec![claim(t, q, Within, [NJ, JA], all)]
}

fn fig6_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        "nojoin-tracks-joinall: NoJoin ≈ JoinAll throughout (largest gap 0.017)",
        "nofk-beats-nojoin-at-nr-1000: NoFK stays low as n_R grows while JoinAll/NoJoin rise",
        "nojoin-meets-nofk-at-ns-10000: all gaps close as n_S grows",
    ];
    vec![
        claim(t, q[0], Within, [NJ, JA], all),
        claim(t, q[1], Above, [NJ, NOFK], at(1, "1000")),
        claim(t, q[2], Within, [NJ, NOFK], at(0, "10000")),
    ]
}

fn fig7_claims(t: &[Table]) -> Vec<Claim> {
    let q = "nojoin-tracks-joinall: JoinAll ≈ NoJoin in both panels for the tree";
    vec![claim(t, q, Within, [NJ, JA], all)]
}

fn fig8_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        "nojoin-tracks-joinall-at-25x: NoJoin does not deviate at 25x (panel A)",
        "nojoin-deviates-at-5x: NoJoin deviates from JoinAll at the ≈5x tuple ratio (panel B)",
    ];
    vec![
        claim(t, q[0], Within, [NJ, JA], panel(0)),
        claim(t, q[1], Above, [NJ, JA], panel(1)),
    ]
}

fn fig9_claims(t: &[Table]) -> Vec<Claim> {
    let q =
        "nojoin-deviates-at-25x: the 1-NN's NoJoin deviates even at the 25x tuple ratio of panel A";
    vec![claim(t, q, Above, [NJ, JA], panel(0))]
}

// ---------------------------------------------------------------------------
// Emulator grids

const TABLE3: &[ModelSpec] = &[
    SvmLinear,
    SvmQuadratic,
    SvmRbf,
    Ann,
    NaiveBayesBfs,
    LogRegL1,
];
const FIG1: &[ModelSpec] = &[TreeGini, OneNN, SvmRbf, Ann, NaiveBayesBfs, LogRegL1];

/// One fit of an emulator grid, with the holdout rows it was scored on.
#[derive(Debug, Clone, serde::Serialize)]
struct Fit {
    dataset: &'static str,
    n_test: usize,
    result: RunResult,
}

type Configs = fn(&GeneratedStar, ModelSpec) -> Vec<FeatureConfig>;

/// Fits each model under `configs(dataset, model)` on every emulated
/// dataset.
fn run_grid(s: &Settings, budget: &Budget, models: &[ModelSpec], configs: Configs) -> Vec<Fit> {
    let mut fits = Vec::new();
    for spec in EmulatorSpec::all() {
        let g = spec.generate_scaled(s.scale, 0xDA7A);
        for &model in models {
            for config in configs(&g, model) {
                let result = run_experiment(&g, model, &config, budget).expect("experiment runs");
                eprintln!("[{}] {} {}", spec.name, result.model, result.config);
                let (dataset, n_test) = (spec.name, g.n_test);
                fits.push(Fit {
                    dataset,
                    n_test,
                    result,
                });
            }
        }
    }
    fits
}

/// The paper's configs: NoFK too for the trees.
fn paper_configs(_: &GeneratedStar, model: ModelSpec) -> Vec<FeatureConfig> {
    if TREES.contains(&model) {
        three_configs()
    } else {
        two_configs()
    }
}

fn datasets(fits: &[Fit]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = fits.iter().map(|f| f.dataset).collect();
    out.dedup();
    out
}

/// A row per dataset and a column per `(model, config)`, headed by
/// `head(model, config)`; `X` where the dataset has no such fit.
fn fits_table(
    title: &str,
    fits: &[Fit],
    columns: &[(String, String)],
    head: fn(&str, &str) -> String,
    cell: fn(&Fit) -> Cell,
) -> Table {
    let mut t = Table::new(title, &["Dataset"]);
    t.header.extend(columns.iter().map(|(m, c)| head(m, c)));
    for d in datasets(fits) {
        let fit = |(m, c): &(String, String)| {
            let r = |f: &&Fit| f.dataset == d && &f.result.model == m && &f.result.config == c;
            fits.iter().find(r).map_or(Cell::text("X"), cell)
        };
        t.rows
            .push((d.to_string(), columns.iter().map(fit).collect()));
    }
    t
}

fn holdout(f: &Fit) -> Cell {
    Cell::num(f.result.test_accuracy, Spread::Holdout(f.n_test))
}

/// Holdout then training accuracy of every grid fit.
fn accuracy_grid(
    s: &Settings,
    models: &[ModelSpec],
    claims: fn(&[Table]) -> Vec<Claim>,
) -> Outcome {
    let fits = run_grid(s, &s.table_budget(), models, paper_configs);
    let first = fits.iter().take_while(|f| f.dataset == fits[0].dataset);
    let columns: Vec<_> = first
        .map(|f| (f.result.model.clone(), f.result.config.clone()))
        .collect();
    let head = |m: &str, c: &str| format!("{m}:{c}");
    let train = |f: &Fit| Cell::num(f.result.train_accuracy, Spread::Exact);
    let tables = vec![
        fits_table("holdout test accuracy", &fits, &columns, head, holdout),
        fits_table("training accuracy", &fits, &columns, head, train),
    ];
    Outcome {
        claims: claims(&tables),
        tables,
        json: fits.serialize(),
    }
}

/// `check` between `model:hi` and `model:lo` holdout accuracies for each
/// of `models`, on the datasets `keep` selects.
fn grid_claim(
    t: &[Table],
    q: &str,
    test: Test,
    models: &[ModelSpec],
    cols: [&str; 2],
    keep: fn(&str) -> bool,
) -> Claim {
    let of = |m: &ModelSpec| {
        let [hi, lo] = cols.map(|c| format!("{}:{c}", m.name()));
        gaps(t, [&hi, &lo], |i, d| i == 0 && keep(d))
    };
    check(
        q,
        test,
        cols,
        &models.iter().flat_map(of).collect::<Vec<_>>(),
    )
}

fn table2_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        // The tree finding of `fig2_claims`, on the emulated datasets.
        "tree-joinall-is-nojoin: NoJoin within ~1% of JoinAll everywhere except Yelp",
        "1nn-nojoin-tracks-joinall: NoJoin within ~1% of JoinAll everywhere except Yelp",
        "tree-nofk-worse-on-flights: NoFK visibly worse on FK-effect datasets (e.g. Flights)",
        "tree-nofk-beats-nojoin-on-yelp: not claimed; this repo's finding",
    ];
    vec![
        grid_claim(t, q[0], Equal, TREES, [JA, NJ], |_| true),
        grid_claim(t, q[1], Within, &[OneNN], [NJ, JA], |d| d != "Yelp"),
        grid_claim(t, q[2], Above, TREES, [NJ, NOFK], |d| d == "Flights"),
        grid_claim(t, q[3], Above, TREES, [NOFK, NJ], |d| d == "Yelp"),
    ]
}

fn table3_claims(t: &[Table]) -> Vec<Claim> {
    let q = [
        "high-capacity-nojoin-tracks-joinall: NoJoin within ~1% of JoinAll for the high-capacity models except Yelp",
        "linear-drops-on-yelp: linear models show the larger Yelp drop (≈0.03)",
    ];
    vec![
        grid_claim(t, q[0], Within, &[SvmRbf, Ann], [NJ, JA], |d| d != "Yelp"),
        grid_claim(t, q[1], Above, &[SvmLinear, LogRegL1], [JA, NJ], |d| {
            d == "Yelp"
        }),
    ]
}

/// One table per model: JoinAll and NoJoin seconds and the speedup on each
/// dataset, then over all of them.
fn fig1(s: &Settings) -> Outcome {
    let fits = run_grid(s, &s.table_budget(), FIG1, |_, _| two_configs());
    let timed = |value: f64, text: String| Cell {
        text,
        value,
        spread: Spread::Exact,
    };
    let mut tables = Vec::new();
    for (i, model) in FIG1.iter().enumerate() {
        let m = model.name();
        let title = format!("({}) {m}", char::from(b'A' + i as u8));
        let mut t = Table::new(title, &["Dataset", "JoinAll(s)", "NoJoin(s)", "Speedup"]);
        for d in datasets(&fits).into_iter().chain(["total"]) {
            let of = |f: &&Fit| (d == "total" || f.dataset == d) && f.result.model == m;
            let secs = |c: &str| {
                fits.iter()
                    .filter(of)
                    .filter(|f| f.result.config == c)
                    .map(|f| f.result.seconds)
                    .sum::<f64>()
            };
            let (ja, nj): (f64, f64) = (secs(JA), secs(NJ));
            let speedup = ja / nj.max(1e-9);
            let cells = vec![
                timed(ja, format!("{ja:.3}")),
                timed(nj, format!("{nj:.3}")),
                timed(speedup, format!("{speedup:.2}x")),
            ];
            t.rows.push((d.into(), cells));
        }
        tables.push(t);
    }
    let speedup = |t| cell(t, "total", "Speedup");
    let (nb, others): (Vec<_>, Vec<_>) = tables.iter().partition(|t| t.title.contains("NB-BFS"));
    let nb_gaps: Vec<Gap> = others
        .iter()
        .map(|t| gap(t.title.clone(), speedup(nb[0]), speedup(t)))
        .collect();
    let q = [
        "nojoin-faster: NoJoin is consistently faster (wall-clock totals, no ε)",
        "nb-bfs-speedup-largest: the speedup is largest for NB-BFS (wall-clock, no ε)",
    ];
    Outcome {
        claims: vec![
            claim(&tables, q[0], Above, ["JoinAll(s)", "NoJoin(s)"], |_, d| {
                d == "total"
            }),
            check(q[1], Above, ["NB-BFS speedup", "speedup"], &nb_gaps),
        ],
        tables,
        json: fits.serialize(),
    }
}

// ---------------------------------------------------------------------------
// Specs with their own runners

/// Table 1's title: the emulated `n_S`, and each dimension whose `n_R` the
/// emulator raised to its floor, whose tuple ratio is then not the paper's.
fn table1_title(scale: usize, floored: &[String]) -> String {
    let mut title = format!("emulated at n_S ≈ {scale}; tuple ratios on the training split");
    if !floored.is_empty() {
        let dims = floored.join(", ");
        title += &format!("; n_R raised to its floor of {MIN_N_R} for {dims}");
    }
    title
}

fn table1(s: &Settings) -> Outcome {
    let mut t = Table::new("", &["Dataset", "(nS, dS)", "q", "(nR, dR)", "Tuple Ratio"]);
    let (mut stats, mut floored) = (Vec::new(), Vec::new());
    for spec in EmulatorSpec::all() {
        let raised = spec.floored_dims(s.scale).into_iter();
        floored.extend(raised.map(|d| format!("{} {d}", spec.name)));
        let g = spec.generate_scaled(s.scale, 0xDA7A);
        let dims = g.star.stats(g.n_train);
        let head = [
            spec.name.to_string(),
            format!("{}, {}", g.n_total(), spec.d_s),
            g.star.q().to_string(),
        ];
        for (i, d) in dims.iter().enumerate() {
            let [name, n_d, q] = head.clone().map(|v| if i == 0 { v } else { String::new() });
            let ratio = if d.open_domain {
                "N/A".into()
            } else {
                format!("{:.1}", d.tuple_ratio)
            };
            let dim = format!("{}, {}", d.n_rows, d.d_features);
            t.rows
                .push((name, [n_d, q, dim, ratio].map(Cell::text).into()));
        }
        stats.push((spec.name, dims));
    }
    t.title = table1_title(s.scale, &floored);
    let r2 = |name: &str| &stats.iter().find(|(n, _)| *n == name).expect("emulated").1[1];
    let [yelp, books, walmart] = ["Yelp", "Books", "Walmart"].map(|d| r2(d).tuple_ratio);
    let open = r2("Expedia").open_domain;
    let claim = Claim {
        name: "r2-tuple-ratios".into(),
        pass: yelp < 3.0 && books < 3.0 && walmart > 1000.0 && open,
        detail: format!(
            "R2 tuple ratios Yelp {yelp:.2} < 3, Books {books:.2} < 3, Walmart {walmart:.1} > 1000, \
             Expedia open: {open}; exact, ε = 0 (paper: Yelp R2 and Books R2 at ~2.5/~2.6, the \
             danger zone; Walmart R2 in the thousands; Expedia R2 N/A)"
        ),
    };
    Outcome {
        tables: vec![t],
        json: stats.serialize(),
        claims: vec![claim],
    }
}

/// Table 4's configs on one dataset: drop each closed-domain dimension
/// alone (and, with three dimensions, each pair), then JoinAll and NoJoin.
fn drops(g: &GeneratedStar) -> Vec<FeatureConfig> {
    let q = g.star.q();
    let closed = (0..q).filter(|&i| !g.star.dims()[i].open_domain);
    let mut out: Vec<FeatureConfig> = closed.map(|i| FeatureConfig::DropDims(vec![i])).collect();
    if q == 3 {
        out.extend([[0, 1], [0, 2], [1, 2]].map(|p| FeatureConfig::DropDims(p.to_vec())));
    }
    out.extend([FeatureConfig::JoinAll, FeatureConfig::NoJoin]);
    out
}

fn table4(s: &Settings) -> Outcome {
    let names = [
        "NoR1", "NoR2", "NoR3", "NoR1,R2", "NoR1,R3", "NoR2,R3", JA, NJ,
    ];
    let columns = names.map(|c| (TreeGini.name().to_string(), c.to_string()));
    let (mut tables, mut json, mut claims) = (Vec::new(), Vec::new(), Vec::new());
    // Two tree variants: rpart-style subset partitions (the default), and
    // the one-vs-rest style a tree over one-hot-encoded inputs exhibits;
    // REPRODUCTION.md ("Table 4: split styles") says why both run.
    let styles = [
        (CategoricalSplit::SubsetPartition, "subset"),
        (CategoricalSplit::OneVsRest, "one-vs-rest"),
    ];
    for (i, (tree_categorical, style)) in styles.into_iter().enumerate() {
        let budget = Budget {
            tree_categorical,
            ..s.table_budget()
        };
        let fits = run_grid(s, &budget, &[TreeGini], |g, _| drops(g));
        let title = format!("({}) {style} splits", ["A", "B"][i]);
        let t = [fits_table(
            &title,
            &fits,
            &columns,
            |_, c| c.to_string(),
            holdout,
        )];
        let not_yelp = |_: usize, d: &str| d != "Yelp";
        let singles = [
            gaps(&t, ["NoR1", JA], all),
            gaps(&t, ["NoR2", JA], not_yelp),
            gaps(&t, ["NoR3", JA], all),
        ];
        let q = [
            format!("single-drops-track-joinall-{style}: dropping any single dimension ≈ NoJoin ≈ JoinAll, except Yelp NoR2"),
            format!("yelp-nor2-drops-{style}: Yelp NoR2 (users; tuple ratio 2.5) drops noticeably"),
        ];
        claims.push(check(&q[0], Within, ["NoR_i", JA], &singles.concat()));
        claims.push(claim(&t, &q[1], Above, [JA, "NoR2"], |_, d| d == "Yelp"));
        tables.extend(t);
        json.push((style, fits));
    }
    Outcome {
        tables,
        json: json.serialize(),
        claims,
    }
}

/// Holdout accuracy of a tuned gini tree with one FK feature (the
/// interpretability bottleneck §6.1 targets, "a foreign key feature with
/// 1000s of values") compressed to `l` values; the other FKs keep their
/// full domains, as in the paper's setup.
fn compressed_accuracy(
    data: &ExperimentData,
    dim: usize,
    l: u32,
    method: CompressionMethod,
    budget: &Budget,
) -> f64 {
    let is_fk = |p: &Provenance| matches!(p, Provenance::ForeignKey { dim: d } if *d == dim);
    let fk = data
        .train
        .features()
        .iter()
        .position(|f| is_fk(&f.provenance));
    let fk = fk.expect("NoJoin data has the requested FK feature");
    let comp = build_compression(&data.train, fk, l, method).expect("compression builds");
    let apply = |d| comp.apply(d).expect("compression applies");
    let tuned = TreeGini.fit_tuned(&apply(&data.train), &apply(&data.val), budget);
    tuned.expect("tree fits").model.accuracy(&apply(&data.test))
}

fn fig10(s: &Settings) -> Outcome {
    let budget = s.table_budget();
    let mut tables = Vec::new();
    // Compressed FK per panel: Flights → airlines (dim 0, the FK whose
    // per-key signal a practitioner would want readable); Yelp → users
    // (dim 1, the paper's huge-domain offender). Rate-based is this
    // library's extension; REPRODUCTION.md ("Figure 10: Rate-based
    // compression") describes it.
    for (panel, spec, dim) in [
        ("(A) Flights", EmulatorSpec::flights(), 0),
        ("(B) Yelp", EmulatorSpec::yelp(), 1),
    ] {
        let g = spec.generate_scaled(s.scale, 0xDA7A);
        let data = build_splits(&g, &FeatureConfig::NoJoin).expect("splits build");
        let holdout = |a: f64| Cell::num(a, Spread::Holdout(g.n_test));
        let mut t = Table::new(panel, &["budget l", "Random", "Sort-based", "Rate-based"]);
        for l in [2u32, 5, 10, 25, 50] {
            let run = |method| compressed_accuracy(&data, dim, l, method, &budget);
            // Random: average over five hash seeds (paper methodology).
            let hashed = (0..5u64).map(|k| run(CompressionMethod::RandomHash { seed: 0x5EED + k }));
            let random = hashed.sum::<f64>() / 5.0;
            let [sorted, rated] =
                [CompressionMethod::SortBased, CompressionMethod::RateBased].map(run);
            t.rows
                .push((l.to_string(), [random, sorted, rated].map(holdout).into()));
        }
        // Uncompressed: l is the whole domain, the same for every method.
        let tuned = TreeGini
            .fit_tuned(&data.train, &data.val, &budget)
            .expect("tree fits");
        let full = tuned.model.accuracy(&data.test);
        t.rows
            .push(("|D_FK|".into(), [full; 3].map(holdout).into()));
        tables.push(t);
    }
    let sort = "Sort-based";
    let tiny = |t: &Table| {
        gap(
            format!("{} l=2", t.title),
            cell(t, "2", sort),
            cell(t, "|D_FK|", sort),
        )
    };
    let q = [
        "sort-not-below-random: Sort-based ≥ Random, the gap largest at small l",
        "tiny-budget-near-uncompressed: accuracy at tiny budgets stays close to (or above) the uncompressed NoJoin accuracy",
    ];
    Outcome {
        claims: vec![
            claim(&tables, q[0], NotBelow, [sort, "Random"], |_, l| {
                l != "|D_FK|"
            }),
            check(
                q[1],
                NotBelow,
                [sort, "uncompressed"],
                &tables.iter().map(tiny).collect::<Vec<_>>(),
            ),
        ],
        json: tables.serialize(),
        tables,
    }
}

/// Per-run holdout errors of a tuned gini tree under OneXr with a fraction
/// `gamma` of `D_FK` unseen in training, FK smoothing applied to the
/// validation and test splits. Run `k` draws the same star for every
/// config and method, so the errors pair up run by run.
fn smoothed_errors(
    gamma: f64,
    method: Option<SmoothingMethod>,
    config: &FeatureConfig,
    runs: usize,
    budget: &Budget,
) -> Vec<f64> {
    let run = |k: u64| {
        let g = onexr::generate(OneXrParams {
            n_s: 1000,
            n_r: 40,
            unseen_frac: gamma,
            seed: 0xF16 + k,
            ..Default::default()
        });
        let data = build_splits(&g, config).expect("splits build");
        let is_fk = |p: &Provenance| matches!(p, Provenance::ForeignKey { .. });
        let fk = data
            .train
            .features()
            .iter()
            .position(|f| is_fk(&f.provenance));
        let (val, test) = match (fk, method) {
            (Some(j), Some(m)) => {
                let dim = &g.star.dims()[0].table;
                let smoothing =
                    build_smoothing(&data.train, j, m, Some(dim)).expect("smoothing builds");
                let apply = |d| smoothing.apply(d).expect("smoothing applies");
                (apply(&data.val), apply(&data.test))
            }
            _ => (data.val.clone(), data.test.clone()),
        };
        let tuned = TreeGini
            .fit_tuned(&data.train, &val, budget)
            .expect("tree fits");
        1.0 - tuned.model.accuracy(&test)
    };
    (0..runs as u64).map(run).collect()
}

fn fig11(s: &Settings) -> Outcome {
    let budget = s.sim_budget();
    let runs = (s.runs / 2).max(3);
    let mut tables = Vec::new();
    let methods = [
        ("(A) Random", SmoothingMethod::Random { seed: 0x5400 }),
        ("(B) X_R-based", SmoothingMethod::XrBased),
    ];
    for (panel, method) in methods {
        let mut t = Table::new(
            format!("{panel} reassignment, {runs} runs"),
            &["gamma", "UseAll", NJ, NOFK],
        );
        for gamma in [0.0, 0.25, 0.5, 0.75, 0.9] {
            let cells = three_configs().into_iter().map(|config| {
                // NoFK has no FK feature: smoothing is a no-op baseline.
                let m = (config != FeatureConfig::NoFK).then_some(method);
                let errors = smoothed_errors(gamma, m, &config, runs, &budget);
                Cell::num(
                    errors.iter().sum::<f64>() / runs as f64,
                    Spread::Runs(errors),
                )
            });
            t.rows.push((gamma.to_string(), cells.collect()));
        }
        tables.push(t);
    }
    let nojoin = |i: usize, g: &str| cell(&tables[i], g, NJ);
    let late =
        ["0.5", "0.75", "0.9"].map(|g| gap(format!("gamma={g}"), nojoin(0, g), nojoin(1, g)));
    let q = [
        "xr-holds-nojoin-near-nofk: X_R-based smoothing holds errors near NoFK/Bayes for γ < 0.5",
        "xr-beats-random-from-0.5: X_R-based degrades more gracefully than random reassignment as γ → 1",
    ];
    Outcome {
        claims: vec![
            claim(&tables, q[0], Within, [NJ, NOFK], span(1, 0.0, 0.25)),
            check(q[1], Above, ["NoJoin Random", "NoJoin X_R-based"], &late),
        ],
        json: tables.serialize(),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_title_names_the_floored_dimensions() {
        let plain = "emulated at n_S ≈ 8000; tuple ratios on the training split";
        assert_eq!(table1_title(8000, &[]), plain);
        let floored = ["Walmart stores".to_string()];
        assert_eq!(
            table1_title(8000, &floored),
            format!("{plain}; n_R raised to its floor of 2 for Walmart stores")
        );
    }

    #[test]
    fn a_sweep_row_runs_once_per_process() {
        let s = Settings {
            scale: 1000,
            runs: 2,
            full: false,
        };
        let first = points(&s, (OneXr, NR), OneNN, 1.0);
        let count = || ROWS.lock().unwrap().len();
        let before = count();
        let again = points(&s, (OneXr, NR), OneNN, 1.0);
        assert_eq!(count(), before, "the second call reuses the row");
        let errors = |p: &[MonteCarloPoint]| -> Vec<Vec<f64>> {
            p.iter().map(|p| p.run_errors.clone()).collect()
        };
        assert_eq!(errors(&first), errors(&again));
    }
}
