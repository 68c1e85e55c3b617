//! Validation-set grid search, parallelised with std scoped threads.
//!
//! Every model in the paper is tuned by exhaustive grid search on the 25 %
//! validation split (§3.2). The search is embarrassingly parallel across
//! grid cells, but cells are far from equal in cost (an SVM's large-`C`
//! cells run many times longer than its small-`C` ones), so the workers
//! share one atomic cursor and each takes the next unclaimed cell when it
//! finishes its last. Determinism is preserved by resolving ties toward the
//! lowest grid index regardless of which thread fitted which cell.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::dataset::CatDataset;
use crate::error::{MlError, Result};
use crate::model::Classifier;

/// Result of a grid search.
#[derive(Debug)]
pub struct GridSearchOutcome<P, M> {
    /// The winning model, refit-free (the model trained during the search).
    pub model: M,
    /// The winning cell's parameters.
    pub params: P,
    /// Validation accuracy of the winner.
    pub val_accuracy: f64,
    /// `(grid index, validation accuracy)` for every evaluated cell.
    pub evals: Vec<(usize, f64)>,
}

/// Exhaustively evaluates `grid`, fitting on `train` and scoring on `val`.
/// `fit` must be pure w.r.t. its inputs (it runs concurrently).
pub fn grid_search<P, M, F>(
    grid: &[P],
    train: &CatDataset,
    val: &CatDataset,
    fit: F,
) -> Result<GridSearchOutcome<P, M>>
where
    P: Clone + Sync,
    M: Classifier + Send,
    F: Fn(&P, &CatDataset) -> Result<M> + Sync,
{
    if grid.is_empty() {
        return Err(MlError::Invalid("empty hyper-parameter grid".into()));
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(grid.len());

    type CellResult<M> = (usize, f64, M);
    let next = AtomicUsize::new(0);
    let results: Vec<Result<Vec<CellResult<M>>>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (fit, next) = (&fit, &next);
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                loop {
                    // The atomic add alone hands each index to exactly one
                    // worker; results travel back through `join`, so no
                    // stronger ordering is needed.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = grid.get(idx) else {
                        return Ok(out);
                    };
                    let model = fit(p, train)?;
                    let acc = model.accuracy(val);
                    out.push((idx, acc, model));
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("grid worker panicked"))
            .collect()
    });

    let mut evals = Vec::with_capacity(grid.len());
    let mut best: Option<CellResult<M>> = None;
    for r in results {
        for (idx, acc, model) in r? {
            evals.push((idx, acc));
            let better = match &best {
                None => true,
                Some((bi, ba, _)) => acc > *ba || (acc == *ba && idx < *bi),
            };
            if better {
                best = Some((idx, acc, model));
            }
        }
    }
    evals.sort_unstable_by_key(|&(idx, _)| idx);
    let (idx, val_accuracy, model) = best.expect("non-empty grid produced no results");
    Ok(GridSearchOutcome {
        model,
        params: grid[idx].clone(),
        val_accuracy,
        evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FeatureMeta, Provenance};
    use crate::tree::{DecisionTree, SplitCriterion, TreeParams};

    /// Asymmetric XOR (zero-gain balanced XOR would stall a greedy CART).
    fn xor() -> CatDataset {
        let meta: Vec<FeatureMeta> = (0..2)
            .map(|j| FeatureMeta::new(format!("f{j}"), 2, Provenance::Home))
            .collect();
        let cells: [(u32, u32, usize); 4] = [(0, 0, 6), (0, 1, 4), (1, 0, 5), (1, 1, 5)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(a, b, copies) in &cells {
            for _ in 0..copies {
                rows.extend_from_slice(&[a, b]);
                labels.push((a ^ b) == 1);
            }
        }
        CatDataset::new(meta, rows, labels).unwrap()
    }

    #[test]
    fn finds_the_cell_that_can_learn() {
        let ds = xor();
        // minsplit=100 cannot split 16 rows; minsplit=2 fits XOR perfectly.
        let grid = vec![
            TreeParams::new(SplitCriterion::Gini).with_minsplit(100),
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
        ];
        let out = grid_search(&grid, &ds, &ds, |p, train| DecisionTree::fit(train, *p)).unwrap();
        assert_eq!(out.params.minsplit, 2);
        assert!((out.val_accuracy - 1.0).abs() < 1e-12);
        assert_eq!(out.evals.len(), 2);
        assert!((out.model.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let ds = xor();
        let grid = vec![
            TreeParams::new(SplitCriterion::Gini)
                .with_minsplit(2)
                .with_cp(0.0),
            TreeParams::new(SplitCriterion::InfoGain)
                .with_minsplit(2)
                .with_cp(0.0),
        ];
        let out = grid_search(&grid, &ds, &ds, |p, train| DecisionTree::fit(train, *p)).unwrap();
        assert_eq!(out.params.criterion, SplitCriterion::Gini);
    }

    #[test]
    fn empty_grid_is_an_error() {
        let ds = xor();
        let grid: Vec<TreeParams> = vec![];
        assert!(grid_search(&grid, &ds, &ds, |p, t| DecisionTree::fit(t, *p)).is_err());
    }

    #[test]
    fn slow_low_cells_are_each_fit_once_and_still_win_ties() {
        use crate::model::MajorityClass;
        use std::time::Duration;

        let ds = xor(); // 9 of 20 positive: `false` scores 0.55, `true` 0.45
        let len = 12;
        let grid: Vec<usize> = (0..len).collect();
        let fits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let out = grid_search(&grid, &ds, &ds, |&idx, _| {
            // Low indices are the slowest, so they finish last.
            std::thread::sleep(Duration::from_millis((len - idx) as u64));
            fits[idx].fetch_add(1, Ordering::Relaxed);
            Ok(MajorityClass {
                positive: idx % 2 == 0,
            })
        })
        .unwrap();
        assert!(fits.iter().all(|f| f.load(Ordering::Relaxed) == 1));
        let order: Vec<usize> = out.evals.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(order, grid);
        // Every odd cell ties at 0.55; the lowest index wins.
        assert_eq!(out.params, 1);
        assert!((out.val_accuracy - 0.55).abs() < 1e-12);
    }

    #[test]
    fn evals_cover_every_cell_in_order() {
        let ds = xor();
        let grid: Vec<TreeParams> = TreeParams::paper_grid(SplitCriterion::Gini);
        let out = grid_search(&grid, &ds, &ds, |p, t| DecisionTree::fit(t, *p)).unwrap();
        assert_eq!(out.evals.len(), 20);
        for (k, &(idx, _)) in out.evals.iter().enumerate() {
            assert_eq!(k, idx);
        }
    }
}
