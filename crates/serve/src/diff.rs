//! Contract diffing between two artifact versions.
//!
//! The operational question behind `hamlet-serve artifact diff`: *can
//! clients of version A send the same requests to version B?* The answer
//! is in the contracts — features added or removed change the row width,
//! cardinality changes shift the valid code range, and label-set deltas
//! change what raw strings encode to (a label moving in or out of a
//! dictionary silently reroutes through the `Others` slot, or starts
//! 4xx-ing on closed domains).

use hamlet_ml::dataset::FeatureMeta;

use crate::artifact::ModelArtifact;

/// Cap on labels listed verbatim per delta; totals are always exact.
pub const MAX_LISTED_LABELS: usize = 16;

/// A before/after pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Change<T> {
    /// Value in artifact `a`.
    pub from: T,
    /// Value in artifact `b`.
    pub to: T,
}

// Manual serde impls: the vendored derive does not support generic types.
impl<T: serde::Serialize> serde::Serialize for Change<T> {
    fn serialize(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("from".to_string(), self.from.serialize()),
            ("to".to_string(), self.to.serialize()),
        ])
    }
}

impl<T: serde::Deserialize> serde::Deserialize for Change<T> {
    fn deserialize(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let obj = v.as_obj_view("Change")?;
        Ok(Change {
            from: T::deserialize(obj.field("from")).map_err(|e| e.at("from"))?,
            to: T::deserialize(obj.field("to")).map_err(|e| e.at("to"))?,
        })
    }
}

/// Cardinality change of one shared feature.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CardinalityChange {
    /// Feature name.
    pub feature: String,
    /// Cardinality in `a`.
    pub from: u32,
    /// Cardinality in `b`.
    pub to: u32,
}

/// Dictionary (label-set) delta of one shared feature.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LabelDelta {
    /// Feature name.
    pub feature: String,
    /// Labels in `b` but not `a` (first [`MAX_LISTED_LABELS`]).
    pub added: Vec<String>,
    /// Exact count of added labels.
    pub added_total: usize,
    /// Labels in `a` but not `b` (first [`MAX_LISTED_LABELS`]).
    pub removed: Vec<String>,
    /// Exact count of removed labels.
    pub removed_total: usize,
    /// Whether the `Others` slot appeared/disappeared (open ↔ closed).
    pub openness_changed: bool,
}

/// Structured difference between two artifacts' serving surfaces.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArtifactDiff {
    /// Key of the first artifact (`name@version`).
    pub a: String,
    /// Key of the second artifact.
    pub b: String,
    /// Whether both were trained from the same star schema.
    pub same_schema: bool,
    /// Model family change, when any (e.g. `tree` → `mlp`).
    pub family: Option<Change<String>>,
    /// Feature-config change, when any (e.g. `NoJoin` → `JoinAll`).
    pub config: Option<Change<String>>,
    /// Row width change, when any.
    pub width: Option<Change<usize>>,
    /// Features present only in `b`, in `b`'s order.
    pub added_features: Vec<String>,
    /// Features present only in `a`, in `a`'s order.
    pub removed_features: Vec<String>,
    /// Whether shared features appear in a different order (order is part
    /// of the contract: rows are positional).
    pub order_changed: bool,
    /// Cardinality changes of shared features.
    pub cardinality_changes: Vec<CardinalityChange>,
    /// Dictionary deltas of shared features.
    pub label_deltas: Vec<LabelDelta>,
    /// Holdout accuracy of `a` and `b`.
    pub test_accuracy: Change<f64>,
}

impl ArtifactDiff {
    /// Whether the two artifacts accept identical request batches (same
    /// features, order, cardinalities and dictionaries).
    pub fn contract_compatible(&self) -> bool {
        self.width.is_none()
            && self.added_features.is_empty()
            && self.removed_features.is_empty()
            && !self.order_changed
            && self.cardinality_changes.is_empty()
            && self.label_deltas.is_empty()
    }
}

fn change<T: PartialEq + Clone>(from: &T, to: &T) -> Option<Change<T>> {
    (from != to).then(|| Change {
        from: from.clone(),
        to: to.clone(),
    })
}

fn label_delta(feature: &str, a: &FeatureMeta, b: &FeatureMeta) -> Option<LabelDelta> {
    let (da, db) = (a.domain.as_deref(), b.domain.as_deref());
    let (labels_a, labels_b): (&[String], &[String]) = (
        da.map(|d| d.labels()).unwrap_or_default(),
        db.map(|d| d.labels()).unwrap_or_default(),
    );
    let set_a: std::collections::HashSet<&String> = labels_a.iter().collect();
    let set_b: std::collections::HashSet<&String> = labels_b.iter().collect();
    let added: Vec<&String> = labels_b.iter().filter(|l| !set_a.contains(l)).collect();
    let removed: Vec<&String> = labels_a.iter().filter(|l| !set_b.contains(l)).collect();
    let openness_changed =
        da.and_then(|d| d.others_code()).is_some() != db.and_then(|d| d.others_code()).is_some();
    if added.is_empty() && removed.is_empty() && !openness_changed {
        return None;
    }
    Some(LabelDelta {
        feature: feature.to_string(),
        added_total: added.len(),
        added: added.into_iter().take(MAX_LISTED_LABELS).cloned().collect(),
        removed_total: removed.len(),
        removed: removed
            .into_iter()
            .take(MAX_LISTED_LABELS)
            .cloned()
            .collect(),
        openness_changed,
    })
}

/// Computes the serving-surface difference from artifact `a` to `b`.
pub fn diff_artifacts(a: &ModelArtifact, b: &ModelArtifact) -> ArtifactDiff {
    let features_a = a.contract.features();
    let features_b = b.contract.features();
    let names_a: Vec<&str> = features_a.iter().map(|f| f.name.as_str()).collect();
    let names_b: Vec<&str> = features_b.iter().map(|f| f.name.as_str()).collect();
    let set_a: std::collections::HashSet<&str> = names_a.iter().copied().collect();
    let set_b: std::collections::HashSet<&str> = names_b.iter().copied().collect();

    let added_features: Vec<String> = names_b
        .iter()
        .filter(|n| !set_a.contains(**n))
        .map(|n| n.to_string())
        .collect();
    let removed_features: Vec<String> = names_a
        .iter()
        .filter(|n| !set_b.contains(**n))
        .map(|n| n.to_string())
        .collect();

    // Shared features, compared pairwise by name.
    let shared_in_a: Vec<&str> = names_a
        .iter()
        .copied()
        .filter(|n| set_b.contains(n))
        .collect();
    let shared_in_b: Vec<&str> = names_b
        .iter()
        .copied()
        .filter(|n| set_a.contains(n))
        .collect();
    let order_changed = shared_in_a != shared_in_b;

    let find = |features: &[FeatureMeta], name: &str| -> usize {
        features
            .iter()
            .position(|f| f.name == name)
            .expect("shared name present")
    };
    let mut cardinality_changes = Vec::new();
    let mut label_deltas = Vec::new();
    for name in &shared_in_a {
        let fa = &features_a[find(features_a, name)];
        let fb = &features_b[find(features_b, name)];
        if fa.cardinality != fb.cardinality {
            cardinality_changes.push(CardinalityChange {
                feature: name.to_string(),
                from: fa.cardinality,
                to: fb.cardinality,
            });
        }
        if let Some(delta) = label_delta(name, fa, fb) {
            label_deltas.push(delta);
        }
    }

    ArtifactDiff {
        a: a.key(),
        b: b.key(),
        same_schema: a.schema_fingerprint == b.schema_fingerprint,
        family: change(&a.model.family().to_string(), &b.model.family().to_string()),
        config: change(&a.feature_config.name(), &b.feature_config.name()),
        width: change(&a.contract.width(), &b.contract.width()),
        added_features,
        removed_features,
        order_changed,
        cardinality_changes,
        label_deltas,
        test_accuracy: Change {
            from: a.metadata.metrics.test_accuracy,
            to: b.metadata.metrics.test_accuracy,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::toy_artifact;
    use hamlet_ml::contract::FeatureContract;
    use hamlet_ml::dataset::Provenance;
    use hamlet_relation::domain::CatDomain;

    #[test]
    fn identical_artifacts_are_compatible() {
        let a = toy_artifact("m", 1);
        let b = toy_artifact("m", 2);
        let d = diff_artifacts(&a, &b);
        assert!(d.contract_compatible(), "{d:?}");
        assert!(d.same_schema);
        assert!(d.family.is_none());
        assert_eq!(d.a, "m@1");
        assert_eq!(d.b, "m@2");
    }

    #[test]
    fn reports_added_removed_cardinality_and_labels() {
        let a = toy_artifact("m", 1);
        let mut b = toy_artifact("m", 2);
        // v2 drops `xs0`, widens `fk` (v0..v5 + Others = card 7, so +2
        // labels), and adds a brand-new feature.
        b.contract = FeatureContract::new(vec![
            FeatureMeta::with_domain(
                "fk",
                Provenance::ForeignKey { dim: 0 },
                CatDomain::synthetic_with_others("fk", 6).into_shared(),
            ),
            FeatureMeta::with_domain(
                "brand_new",
                Provenance::Home,
                CatDomain::synthetic("brand_new", 3).into_shared(),
            ),
        ])
        .unwrap();
        b.schema_fingerprint = 0x5EED;
        let d = diff_artifacts(&a, &b);
        assert!(!d.contract_compatible());
        assert!(!d.same_schema);
        assert_eq!(d.added_features, vec!["brand_new"]);
        assert_eq!(d.removed_features, vec!["xs0"]);
        assert_eq!(d.cardinality_changes.len(), 1);
        assert_eq!(d.cardinality_changes[0].feature, "fk");
        assert_eq!(d.cardinality_changes[0].from, 5);
        assert_eq!(d.cardinality_changes[0].to, 7);
        assert_eq!(d.label_deltas.len(), 1);
        assert_eq!(d.label_deltas[0].added_total, 2);
        assert_eq!(d.label_deltas[0].added, vec!["v4", "v5"]);
        assert_eq!(d.label_deltas[0].removed_total, 0);
        assert!(!d.label_deltas[0].openness_changed);
        assert!(d.width.is_none(), "both contracts are 2 wide");
    }

    #[test]
    fn detects_order_and_openness_changes() {
        let a = toy_artifact("m", 1);
        let mut b = toy_artifact("m", 2);
        // Same features, swapped order; fk also loses its Others slot.
        b.contract = FeatureContract::new(vec![
            FeatureMeta::with_domain(
                "fk",
                Provenance::ForeignKey { dim: 0 },
                CatDomain::synthetic("fk", 5).into_shared(),
            ),
            FeatureMeta::with_domain(
                "xs0",
                Provenance::Home,
                CatDomain::synthetic("xs0", 2).into_shared(),
            ),
        ])
        .unwrap();
        let d = diff_artifacts(&a, &b);
        assert!(d.order_changed);
        assert!(!d.contract_compatible());
        let fk = d.label_deltas.iter().find(|l| l.feature == "fk").unwrap();
        assert!(fk.openness_changed, "{fk:?}");
        // "Others" left, "v4" arrived.
        assert_eq!(fk.removed, vec!["Others"]);
        assert_eq!(fk.added, vec!["v4"]);
    }

    #[test]
    fn label_listing_is_capped_but_totals_exact() {
        let a = toy_artifact("m", 1);
        let mut big_a = a.clone();
        let mut big_b = a.clone();
        big_a.contract = FeatureContract::new(vec![FeatureMeta::with_domain(
            "fk",
            Provenance::ForeignKey { dim: 0 },
            CatDomain::synthetic("fk", 10).into_shared(),
        )])
        .unwrap();
        big_b.contract = FeatureContract::new(vec![FeatureMeta::with_domain(
            "fk",
            Provenance::ForeignKey { dim: 0 },
            CatDomain::new("fk", (0..40).map(|i| format!("w{i}")).collect::<Vec<_>>())
                .unwrap()
                .into_shared(),
        )])
        .unwrap();
        let d = diff_artifacts(&big_a, &big_b);
        let delta = &d.label_deltas[0];
        assert_eq!(delta.added_total, 40);
        assert_eq!(delta.added.len(), MAX_LISTED_LABELS);
        assert_eq!(delta.removed_total, 10);
        assert_eq!(delta.removed.len(), 10);
    }

    #[test]
    fn diff_works_on_heap_and_mmap_loaded_files() {
        use crate::artifact::{LoadMode, ModelArtifact};
        let dir = std::env::temp_dir().join(format!("hamlet-diff-{}", std::process::id()));
        let a = toy_artifact("x", 1);
        let mut b = toy_artifact("x", 2);
        b.contract = FeatureContract::new(vec![
            FeatureMeta::with_domain(
                "xs0",
                Provenance::Home,
                CatDomain::synthetic("xs0", 2).into_shared(),
            ),
            FeatureMeta::with_domain(
                "fk",
                Provenance::ForeignKey { dim: 0 },
                CatDomain::synthetic_with_others("fk", 5).into_shared(),
            ),
        ])
        .unwrap();
        let pa = a.save(&dir).unwrap();
        let pb = b.save(&dir).unwrap();
        let d = diff_artifacts(
            &ModelArtifact::load_with(&pa, LoadMode::Heap).unwrap(),
            &ModelArtifact::load_with(&pb, LoadMode::Mmap).unwrap(),
        );
        assert_eq!(d.cardinality_changes[0].from, 5);
        assert_eq!(d.cardinality_changes[0].to, 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
