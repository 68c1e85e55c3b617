//! [`FeatureContract`]: the serializable input contract of a trained model.
//!
//! The paper (§2.2) assumes every feature — foreign keys included — has a
//! known finite domain, optionally with an `Others` slot absorbing unseen
//! values. A contract captures that assumption as data: per feature, the
//! name, star-schema provenance, cardinality and (when known) the full
//! label↔code bijection from `hamlet_relation::CatDomain`. It travels with
//! the model from the generated star schema (`CatDataset::contract`) through
//! tuning (`hamlet-core`) into persisted artifacts (`hamlet-serve`), so a
//! serving endpoint can accept *raw label strings* and dictionary-encode
//! them server-side — the NoJoin FK-as-feature rewrite at ingest — instead
//! of pushing the encoding burden onto every client.

use std::fmt;
use std::sync::Arc;

use hamlet_relation::domain::CatDomain;
use hamlet_relation::fingerprint::Fingerprint;

use crate::binenc::{BinReader, BinWriter};
use crate::dataset::{FeatureMeta, Provenance};
use crate::error::{MlError, Result};

/// Upper bound on per-row violations collected by batch validation and
/// encoding; past this the error reports only the total. Bounds both the
/// work done on hostile batches and the size of error responses.
pub const MAX_COLLECTED_ISSUES: usize = 8;

/// One per-row violation found while validating or encoding a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIssue {
    /// Index of the offending row in the request batch.
    pub row: usize,
    /// Name of the offending feature, when the violation is feature-local
    /// (out-of-domain code, unknown label). `None` for row-level problems
    /// (wrong width).
    pub feature: Option<String>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for RowIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.feature {
            Some(name) => write!(f, "row {} feature `{}`: {}", self.row, name, self.detail),
            None => write!(f, "row {}: {}", self.row, self.detail),
        }
    }
}

/// Why a batch could not be validated or encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The contract carries no dictionary for `feature`, so raw labels
    /// cannot be encoded at all (models trained on dictionary-less data).
    MissingDomain {
        /// First feature lacking a dictionary.
        feature: String,
    },
    /// Per-row violations, capped at [`MAX_COLLECTED_ISSUES`].
    Rows {
        /// The first violations found, in row order.
        issues: Vec<RowIssue>,
        /// Total number of offending rows (may exceed `issues.len()`).
        total: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::MissingDomain { feature } => write!(
                f,
                "feature `{feature}` has no dictionary in this model's contract; \
                 send pre-encoded `rows` instead"
            ),
            BatchError::Rows { issues, total } => {
                let listed: Vec<String> = issues.iter().map(ToString::to_string).collect();
                write!(f, "{}", listed.join("; "))?;
                if *total > issues.len() {
                    write!(f, " (+{} more offending row(s))", total - issues.len())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// A model's input contract: ordered per-feature metadata, optionally with
/// full label↔code dictionaries. Persisted by reference
/// ([`FeatureContract::serialize_by_ref`]) next to a [`DomainInterner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureContract {
    features: Vec<FeatureMeta>,
}

impl FeatureContract {
    /// Builds a contract, validating that every supplied dictionary agrees
    /// with its feature's declared cardinality.
    pub fn new(features: Vec<FeatureMeta>) -> Result<Self> {
        if features.is_empty() {
            return Err(MlError::Shape {
                detail: "a feature contract needs at least one feature".into(),
            });
        }
        for f in &features {
            if let Some(domain) = &f.domain {
                if domain.cardinality() != f.cardinality {
                    return Err(MlError::Invalid(format!(
                        "feature `{}` declares cardinality {} but its domain `{}` has {}",
                        f.name,
                        f.cardinality,
                        domain.name(),
                        domain.cardinality()
                    )));
                }
            }
        }
        Ok(Self { features })
    }

    /// Per-feature metadata, in row order.
    pub fn features(&self) -> &[FeatureMeta] {
        &self.features
    }

    /// Metadata of one feature.
    pub fn feature(&self, j: usize) -> &FeatureMeta {
        &self.features[j]
    }

    /// Number of features per row.
    pub fn width(&self) -> usize {
        self.features.len()
    }

    /// Whether every feature carries its dictionary (required for
    /// raw-label encoding).
    pub fn has_domains(&self) -> bool {
        self.features.iter().all(|f| f.domain.is_some())
    }

    /// Whether feature `j`'s domain is *open* — it has an `Others` slot that
    /// absorbs labels never seen at training time.
    pub fn is_open(&self, j: usize) -> bool {
        self.features[j]
            .domain
            .as_ref()
            .is_some_and(|d| d.others_code().is_some())
    }

    /// Order-sensitive fingerprint of the feature space: names,
    /// cardinalities, provenance and dictionary labels. Two models with
    /// equal fingerprints consume bit-identical input batches.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.features.len() as u64);
        for f in &self.features {
            fp.write_str(&f.name);
            fp.write_u64(u64::from(f.cardinality));
            let (tag, dim) = match f.provenance {
                Provenance::Home => (0u64, 0usize),
                Provenance::ForeignKey { dim } => (1, dim),
                Provenance::Foreign { dim } => (2, dim),
            };
            fp.write_u64(tag).write_u64(dim as u64);
            match &f.domain {
                None => {
                    fp.write_u64(0);
                }
                Some(domain) => {
                    fp.write_u64(1).write_u64(u64::from(domain.cardinality()));
                    for label in domain.labels() {
                        fp.write_str(label);
                    }
                }
            }
        }
        fp.finish()
    }

    /// Validates a batch of pre-encoded rows (width and per-feature code
    /// range), returning the flattened row-major buffer the batched predict
    /// hot path consumes. All offending rows are found (not just the
    /// first); the first [`MAX_COLLECTED_ISSUES`] are reported in detail.
    pub fn validate_batch(&self, rows: &[Vec<u32>]) -> std::result::Result<Vec<u32>, BatchError> {
        let d = self.width();
        let mut flat = Vec::with_capacity(rows.len() * d);
        let mut issues = Vec::new();
        let mut total = 0usize;
        for (i, row) in rows.iter().enumerate() {
            if row.len() != d {
                total += 1;
                if issues.len() < MAX_COLLECTED_ISSUES {
                    issues.push(RowIssue {
                        row: i,
                        feature: None,
                        detail: format!("has {} codes; expected {d} features per row", row.len()),
                    });
                }
                continue;
            }
            let mut row_bad = false;
            for (meta, &code) in self.features.iter().zip(row) {
                if code >= meta.cardinality {
                    row_bad = true;
                    if issues.len() < MAX_COLLECTED_ISSUES {
                        issues.push(RowIssue {
                            row: i,
                            feature: Some(meta.name.clone()),
                            detail: format!(
                                "code {code} out of domain (cardinality {})",
                                meta.cardinality
                            ),
                        });
                    }
                }
            }
            if row_bad {
                total += 1;
            } else {
                flat.extend_from_slice(row);
            }
        }
        if total > 0 {
            return Err(BatchError::Rows { issues, total });
        }
        Ok(flat)
    }

    /// Dictionary-encodes a batch of raw label rows into the flattened
    /// row-major code buffer. Labels unseen at training time fall back to
    /// the `Others` slot on open domains (the paper's §2.2 convention) and
    /// are per-row errors on closed domains.
    pub fn encode_batch(&self, rows: &[Vec<String>]) -> std::result::Result<Vec<u32>, BatchError> {
        if let Some(missing) = self.features.iter().find(|f| f.domain.is_none()) {
            return Err(BatchError::MissingDomain {
                feature: missing.name.clone(),
            });
        }
        let d = self.width();
        let mut flat = Vec::with_capacity(rows.len() * d);
        let mut issues = Vec::new();
        let mut total = 0usize;
        for (i, row) in rows.iter().enumerate() {
            if row.len() != d {
                total += 1;
                if issues.len() < MAX_COLLECTED_ISSUES {
                    issues.push(RowIssue {
                        row: i,
                        feature: None,
                        detail: format!("has {} labels; expected {d} features per row", row.len()),
                    });
                }
                continue;
            }
            let mark = flat.len();
            let mut row_bad = false;
            for (meta, label) in self.features.iter().zip(row) {
                let domain = meta.domain.as_ref().expect("checked above");
                match domain.encode(label) {
                    Some(code) => flat.push(code),
                    None => {
                        row_bad = true;
                        if issues.len() < MAX_COLLECTED_ISSUES {
                            issues.push(RowIssue {
                                row: i,
                                feature: Some(meta.name.clone()),
                                detail: format!(
                                    "label `{label}` not in closed domain `{}` \
                                     (no `Others` slot)",
                                    domain.name()
                                ),
                            });
                        }
                    }
                }
            }
            if row_bad {
                total += 1;
                flat.truncate(mark);
            }
        }
        if total > 0 {
            return Err(BatchError::Rows { issues, total });
        }
        Ok(flat)
    }

    /// Decodes one row of codes back into labels. Errors when the contract
    /// lacks a dictionary or a code is out of range.
    pub fn decode_row(&self, codes: &[u32]) -> Result<Vec<String>> {
        if codes.len() != self.width() {
            return Err(MlError::Shape {
                detail: format!(
                    "row has {} codes; contract has {} features",
                    codes.len(),
                    self.width()
                ),
            });
        }
        let mut labels = Vec::with_capacity(codes.len());
        for (j, (meta, &code)) in self.features.iter().zip(codes).enumerate() {
            let domain = meta.domain.as_ref().ok_or_else(|| {
                MlError::Invalid(format!("feature `{}` has no dictionary", meta.name))
            })?;
            if !domain.contains(code) {
                return Err(MlError::BadCode {
                    feature: j,
                    code,
                    cardinality: meta.cardinality,
                });
            }
            labels.push(domain.label(code).to_string());
        }
        Ok(labels)
    }
}

/// Deduplicating pool of dictionaries for by-reference contract encoding.
///
/// The star schema shares one `CatDomain` allocation between a fact table's
/// FK column and the dimension's RID column, and the artifact format keeps
/// that sharing on disk: every distinct domain is interned here exactly
/// once (deduplicated first by allocation, then by content, so separately
/// built but identical domains merge), features reference domains by index,
/// and decoding rebuilds one shared `Arc` per distinct dictionary.
#[derive(Debug, Default)]
pub struct DomainInterner {
    domains: Vec<Arc<CatDomain>>,
}

impl DomainInterner {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `domain` in the pool, interning it on first sight.
    pub fn intern(&mut self, domain: &Arc<CatDomain>) -> u32 {
        for (i, existing) in self.domains.iter().enumerate() {
            if Arc::ptr_eq(existing, domain) || **existing == **domain {
                return i as u32;
            }
        }
        self.domains.push(Arc::clone(domain));
        (self.domains.len() - 1) as u32
    }

    /// Interned domains, in reference order.
    pub fn domains(&self) -> &[Arc<CatDomain>] {
        &self.domains
    }

    /// Number of distinct dictionaries interned.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no dictionary was interned.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Writes the pool as the format-v3 `DICT` section: a count, then per
    /// domain its name and labels as length-prefixed strings.
    pub fn encode_bin(&self, w: &mut BinWriter) {
        w.put_u32(self.domains.len() as u32);
        for domain in &self.domains {
            w.put_str(domain.name());
            w.put_u32(domain.cardinality());
            for label in domain.labels() {
                w.put_str(label);
            }
        }
    }

    /// Reads a pool written by [`DomainInterner::encode_bin`]. Each domain
    /// is rebuilt through `CatDomain::new`, so the code index and `Others`
    /// slot are re-derived and duplicate labels in a corrupted file are
    /// rejected.
    pub fn decode_bin(r: &mut BinReader) -> Result<Vec<Arc<CatDomain>>> {
        let count = r.read_u32()? as usize;
        let mut domains = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let name = r.read_str()?;
            let n_labels = r.read_u32()? as usize;
            if n_labels > r.remaining() / 4 {
                return Err(MlError::Invalid(format!(
                    "corrupt dictionary `{name}`: {n_labels} labels overrun section"
                )));
            }
            let labels = (0..n_labels)
                .map(|_| r.read_str())
                .collect::<Result<Vec<_>>>()?;
            domains.push(CatDomain::new(name, labels)?.into_shared());
        }
        Ok(domains)
    }
}

impl FeatureContract {
    /// Serializes the contract with dictionaries *by reference*: the JSON
    /// form of each feature carries a `domain_ref` index into `pool`
    /// instead of inline labels. Used by the format-v3 `META` section
    /// alongside the pool's binary `DICT` section.
    pub fn serialize_by_ref(&self, pool: &mut DomainInterner) -> serde::Value {
        let features = self
            .features
            .iter()
            .map(|f| {
                serde::Value::Obj(vec![
                    ("name".to_string(), serde::Value::Str(f.name.clone())),
                    (
                        "cardinality".to_string(),
                        serde::Value::Num(serde::Number::UInt(u64::from(f.cardinality))),
                    ),
                    (
                        "provenance".to_string(),
                        serde::Serialize::serialize(&f.provenance),
                    ),
                    (
                        "domain_ref".to_string(),
                        match &f.domain {
                            None => serde::Value::Null,
                            Some(d) => {
                                serde::Value::Num(serde::Number::UInt(u64::from(pool.intern(d))))
                            }
                        },
                    ),
                ])
            })
            .collect();
        serde::Value::Arr(features)
    }

    /// Inverse of [`FeatureContract::serialize_by_ref`], resolving
    /// `domain_ref` indices against a decoded dictionary pool. Referenced
    /// domains are shared (`Arc`) between every feature that names them.
    pub fn deserialize_by_ref(v: &serde::Value, pool: &[Arc<CatDomain>]) -> Result<Self> {
        let invalid = |what: String| MlError::Invalid(format!("corrupt contract: {what}"));
        let serde::Value::Arr(entries) = v else {
            return Err(invalid(format!("expected array, got {}", v.kind())));
        };
        let mut features = Vec::with_capacity(entries.len());
        for (j, entry) in entries.iter().enumerate() {
            let obj = entry
                .as_obj_view("contract feature")
                .map_err(|e| invalid(format!("feature {j}: {e}")))?;
            let name = match obj.field("name") {
                serde::Value::Str(s) => s.clone(),
                other => return Err(invalid(format!("feature {j}: name is {}", other.kind()))),
            };
            let cardinality = match obj.field("cardinality") {
                serde::Value::Num(n) => n
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| invalid(format!("feature `{name}`: bad cardinality")))?,
                other => {
                    return Err(invalid(format!(
                        "feature `{name}`: cardinality is {}",
                        other.kind()
                    )))
                }
            };
            let provenance =
                <Provenance as serde::Deserialize>::deserialize(obj.field("provenance"))
                    .map_err(|e| invalid(format!("feature `{name}`: {e}")))?;
            let domain = match obj.field("domain_ref") {
                serde::Value::Null => None,
                serde::Value::Num(n) => {
                    let idx = n
                        .as_u64()
                        .and_then(|v| usize::try_from(v).ok())
                        .filter(|&i| i < pool.len())
                        .ok_or_else(|| {
                            invalid(format!(
                                "feature `{name}`: domain_ref out of range (pool has {})",
                                pool.len()
                            ))
                        })?;
                    Some(Arc::clone(&pool[idx]))
                }
                other => {
                    return Err(invalid(format!(
                        "feature `{name}`: domain_ref is {}",
                        other.kind()
                    )))
                }
            };
            features.push(FeatureMeta {
                name,
                cardinality,
                provenance,
                domain,
            });
        }
        FeatureContract::new(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_relation::domain::CatDomain;

    fn contract_open_closed() -> FeatureContract {
        // Feature 0: closed domain {v0, v1}; feature 1: open domain
        // {v0, v1, v2, Others}.
        FeatureContract::new(vec![
            FeatureMeta::with_domain(
                "xs",
                Provenance::Home,
                CatDomain::synthetic("xs", 2).into_shared(),
            ),
            FeatureMeta::with_domain(
                "fk",
                Provenance::ForeignKey { dim: 0 },
                CatDomain::synthetic_with_others("fk", 3).into_shared(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn new_rejects_domain_cardinality_mismatch() {
        let mut meta = FeatureMeta::with_domain(
            "f",
            Provenance::Home,
            CatDomain::synthetic("f", 3).into_shared(),
        );
        meta.cardinality = 5;
        assert!(FeatureContract::new(vec![meta]).is_err());
        assert!(FeatureContract::new(vec![]).is_err());
    }

    #[test]
    fn encode_open_absorbs_closed_rejects() {
        let c = contract_open_closed();
        assert!(!c.is_open(0));
        assert!(c.is_open(1));
        // Known labels encode exactly; unseen FK label hits Others (code 3).
        let flat = c
            .encode_batch(&[
                vec!["v1".into(), "v2".into()],
                vec!["v0".into(), "brand-new-entity".into()],
            ])
            .unwrap();
        assert_eq!(flat, vec![1, 2, 0, 3]);
        // Unseen label on the closed feature is a per-row error naming both
        // the row and the feature.
        let err = c
            .encode_batch(&[
                vec!["v0".into(), "v0".into()],
                vec!["nope".into(), "v0".into()],
            ])
            .unwrap_err();
        match &err {
            BatchError::Rows { issues, total } => {
                assert_eq!(*total, 1);
                assert_eq!(issues[0].row, 1);
                assert_eq!(issues[0].feature.as_deref(), Some("xs"));
            }
            other => panic!("expected Rows, got {other:?}"),
        }
        assert!(err.to_string().contains("row 1"));
        assert!(err.to_string().contains("`xs`"));
    }

    #[test]
    fn encode_without_domains_is_a_contract_error() {
        let c = FeatureContract::new(vec![FeatureMeta::new("f", 4, Provenance::Home)]).unwrap();
        assert!(!c.has_domains());
        match c.encode_batch(&[vec!["v0".into()]]) {
            Err(BatchError::MissingDomain { feature }) => assert_eq!(feature, "f"),
            other => panic!("expected MissingDomain, got {other:?}"),
        }
    }

    #[test]
    fn validate_batch_reports_every_offending_row() {
        let c = contract_open_closed();
        let err = c
            .validate_batch(&[
                vec![0, 1],
                vec![0],    // wrong width
                vec![0, 9], // bad code
                vec![5, 0], // bad code
            ])
            .unwrap_err();
        match err {
            BatchError::Rows { issues, total } => {
                assert_eq!(total, 3);
                assert_eq!(issues.len(), 3);
                assert_eq!(issues[0].row, 1);
                assert!(issues[0].feature.is_none());
                assert_eq!(issues[1].row, 2);
                assert_eq!(issues[1].feature.as_deref(), Some("fk"));
                assert_eq!(issues[2].row, 3);
                assert_eq!(issues[2].feature.as_deref(), Some("xs"));
            }
            other => panic!("expected Rows, got {other:?}"),
        }
        // A clean batch flattens row-major.
        assert_eq!(
            c.validate_batch(&[vec![0, 3], vec![1, 0]]).unwrap(),
            vec![0, 3, 1, 0]
        );
    }

    #[test]
    fn issue_collection_is_capped_but_total_is_exact() {
        let c = contract_open_closed();
        let rows: Vec<Vec<u32>> = (0..20).map(|_| vec![9, 9]).collect();
        match c.validate_batch(&rows).unwrap_err() {
            BatchError::Rows { issues, total } => {
                assert_eq!(total, 20);
                assert_eq!(issues.len(), MAX_COLLECTED_ISSUES);
            }
            other => panic!("expected Rows, got {other:?}"),
        }
    }

    #[test]
    fn decode_then_encode_roundtrips() {
        let c = contract_open_closed();
        for codes in [[0u32, 0], [1, 3], [0, 2]] {
            let labels = c.decode_row(&codes).unwrap();
            let back = c.encode_batch(&[labels]).unwrap();
            assert_eq!(back, codes);
        }
        assert!(c.decode_row(&[0]).is_err());
        assert!(c.decode_row(&[0, 9]).is_err());
    }

    #[test]
    fn by_ref_roundtrip_dedups_shared_domains() {
        use crate::binenc::{BinReader, BinWriter};
        // Three features, two referencing the *same* Arc (FK + RID case)
        // and one open domain; plus a dictionary-less feature.
        let shared = CatDomain::synthetic("d0", 3).into_shared();
        let c = FeatureContract::new(vec![
            FeatureMeta::with_domain("fk", Provenance::ForeignKey { dim: 0 }, Arc::clone(&shared)),
            FeatureMeta::with_domain("rid", Provenance::Foreign { dim: 0 }, Arc::clone(&shared)),
            FeatureMeta::with_domain(
                "open",
                Provenance::Home,
                CatDomain::synthetic_with_others("open", 2).into_shared(),
            ),
            FeatureMeta::new("bare", 4, Provenance::Home),
        ])
        .unwrap();

        let mut pool = DomainInterner::new();
        let v = c.serialize_by_ref(&mut pool);
        assert_eq!(pool.len(), 2, "shared Arc interned once");
        // A content-equal but separately allocated domain also dedups.
        assert_eq!(pool.intern(&CatDomain::synthetic("d0", 3).into_shared()), 0);

        let mut w = BinWriter::new();
        pool.encode_bin(&mut w);
        let mut r = BinReader::over_heap(w.finish());
        let domains = DomainInterner::decode_bin(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(domains.len(), 2);

        let back = FeatureContract::deserialize_by_ref(&v, &domains).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());
        // The decode restores *sharing*, not just equality.
        assert!(Arc::ptr_eq(
            back.feature(0).domain.as_ref().unwrap(),
            back.feature(1).domain.as_ref().unwrap()
        ));
        assert!(back.feature(3).domain.is_none());
        assert!(back.is_open(2));
    }

    #[test]
    fn by_ref_decode_rejects_dangling_refs_and_bad_shapes() {
        let c = contract_open_closed();
        let mut pool = DomainInterner::new();
        let v = c.serialize_by_ref(&mut pool);
        // Dangling domain_ref: pool too small.
        let err = FeatureContract::deserialize_by_ref(&v, &[]).unwrap_err();
        assert!(err.to_string().contains("domain_ref"), "{err}");
        // Non-array contract.
        assert!(FeatureContract::deserialize_by_ref(&serde::Value::Null, &[]).is_err());
        // Cardinality/domain mismatch is caught by FeatureContract::new.
        let wrong_pool = vec![
            CatDomain::synthetic("xs", 9).into_shared(),
            CatDomain::synthetic("fk", 9).into_shared(),
        ];
        assert!(FeatureContract::deserialize_by_ref(&v, &wrong_pool).is_err());
    }

    #[test]
    fn fingerprint_tracks_domains() {
        let a = contract_open_closed();
        let mut features = a.features().to_vec();
        features[1] = FeatureMeta::with_domain(
            "fk",
            Provenance::ForeignKey { dim: 0 },
            CatDomain::new("fk", vec!["x".into(), "y".into(), "z".into(), "w".into()])
                .unwrap()
                .into_shared(),
        );
        let b = FeatureContract::new(features).unwrap();
        // Same names/cardinalities/provenance, different labels.
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
