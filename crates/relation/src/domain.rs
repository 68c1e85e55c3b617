//! Categorical domains: finite, closed sets of values encoded as dense `u32` codes.
//!
//! The paper (§2.2) assumes every feature — including foreign keys — has a
//! known finite domain, optionally with a special `Others` placeholder that
//! absorbs hitherto-unseen values. Domains are immutable and shared between
//! columns via [`std::sync::Arc`], so a fact table's FK column and the
//! dimension table's RID column literally share one dictionary, making code
//! equality equivalent to value equality during joins.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{RelationError, Result};

/// The label used for the paper's "Others" placeholder slot.
pub const OTHERS_LABEL: &str = "Others";

/// An immutable categorical domain: a bijection between string labels and
/// dense codes `0..cardinality`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatDomain {
    name: String,
    labels: Vec<String>,
    index: HashMap<String, u32>,
    others: Option<u32>,
}

impl CatDomain {
    /// Builds a domain from distinct labels. Returns an error on duplicates.
    pub fn new(name: impl Into<String>, labels: Vec<String>) -> Result<Self> {
        let name = name.into();
        let mut index = HashMap::with_capacity(labels.len());
        let mut others = None;
        for (i, label) in labels.iter().enumerate() {
            if index.insert(label.clone(), i as u32).is_some() {
                return Err(RelationError::DuplicateColumn(format!(
                    "domain `{name}` label `{label}`"
                )));
            }
            if label == OTHERS_LABEL {
                others = Some(i as u32);
            }
        }
        Ok(Self {
            name,
            labels,
            index,
            others,
        })
    }

    /// Builds a synthetic domain `v0, v1, .. v{k-1}`. Handy for generated data.
    pub fn synthetic(name: impl Into<String>, cardinality: u32) -> Self {
        let labels: Vec<String> = (0..cardinality).map(|i| format!("v{i}")).collect();
        // Labels are distinct by construction.
        Self::new(name, labels).expect("synthetic labels are distinct")
    }

    /// Builds a synthetic domain with a trailing `Others` slot
    /// (cardinality = `k + 1`).
    pub fn synthetic_with_others(name: impl Into<String>, k: u32) -> Self {
        let mut labels: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
        labels.push(OTHERS_LABEL.to_string());
        Self::new(name, labels).expect("synthetic labels are distinct")
    }

    /// Domain name (usually mirrors the column it dictionary-encodes).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct codes, including the `Others` slot if present.
    pub fn cardinality(&self) -> u32 {
        self.labels.len() as u32
    }

    /// Looks up the code of an exact label.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// Encodes a label, falling back to the `Others` slot for unknown values
    /// (mirroring the paper's closed-domain assumption). `None` when the
    /// label is unknown and no `Others` slot exists.
    pub fn encode(&self, label: &str) -> Option<u32> {
        self.code(label).or(self.others)
    }

    /// Label for a code. Panics on out-of-domain codes (they cannot be
    /// constructed through the public column API).
    pub fn label(&self, code: u32) -> &str {
        &self.labels[code as usize]
    }

    /// Code of the `Others` placeholder, if the domain declares one.
    pub fn others_code(&self) -> Option<u32> {
        self.others
    }

    /// Whether a code is valid for this domain.
    pub fn contains(&self, code: u32) -> bool {
        (code as usize) < self.labels.len()
    }

    /// All labels in code order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Wraps the domain for sharing across columns.
    pub fn into_shared(self) -> Arc<CatDomain> {
        Arc::new(self)
    }
}

/// Two domains are join-compatible when they are the same allocation or have
/// identical label sequences (so codes mean the same values).
pub fn join_compatible(a: &Arc<CatDomain>, b: &Arc<CatDomain>) -> bool {
    Arc::ptr_eq(a, b) || a.labels == b.labels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_domain_roundtrip() {
        let d = CatDomain::synthetic("fk", 5);
        assert_eq!(d.cardinality(), 5);
        for i in 0..5 {
            let label = d.label(i).to_string();
            assert_eq!(d.code(&label), Some(i));
        }
        assert_eq!(d.code("nope"), None);
        assert!(d.contains(4));
        assert!(!d.contains(5));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let err = CatDomain::new("d", vec!["a".into(), "a".into()]).unwrap_err();
        assert!(matches!(err, RelationError::DuplicateColumn(_)));
    }

    #[test]
    fn others_slot_absorbs_unknowns() {
        let d = CatDomain::synthetic_with_others("employer", 3);
        assert_eq!(d.cardinality(), 4);
        let others = d.others_code().unwrap();
        assert_eq!(d.label(others), OTHERS_LABEL);
        assert_eq!(d.encode("v1"), Some(1));
        assert_eq!(d.encode("unseen-value"), Some(others));
    }

    #[test]
    fn no_others_slot_means_unknowns_fail() {
        let d = CatDomain::synthetic("g", 2);
        assert_eq!(d.others_code(), None);
        assert_eq!(d.encode("zzz"), None);
    }

    #[test]
    fn join_compatibility_by_pointer_and_by_value() {
        let a = CatDomain::synthetic("x", 4).into_shared();
        let b = Arc::clone(&a);
        assert!(join_compatible(&a, &b));
        let c = CatDomain::synthetic("y", 4).into_shared(); // same labels v0..v3
        assert!(join_compatible(&a, &c));
        let d = CatDomain::synthetic("z", 5).into_shared();
        assert!(!join_compatible(&a, &d));
    }
}
