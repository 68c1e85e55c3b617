//! Versioned, validated persistence of trained models.
//!
//! A [`ModelArtifact`] is everything needed to serve a classifier trained by
//! `hamlet_core::experiment`: the model itself (an [`AnyClassifier`]), the
//! [`FeatureConfig`] it was trained under, the full input
//! [`FeatureContract`] (per feature: name, cardinality, provenance and the
//! label↔code dictionary), a fingerprint of the source star schema, and
//! training metadata (metrics, spec, wall-clock).
//!
//! ## On-disk format
//!
//! An artifact is a format-v3 sectioned binary container (`.model.bin`, see
//! [`crate::container`]) with a small JSON `META` section, a deduplicated
//! dictionary string table (`DICT` — each distinct `CatDomain` stored
//! exactly once, features referencing it by index), and an aligned raw
//! little-endian model payload (`MODL`). Dense f32/f64 weight arrays are
//! stored raw, and the payload can be **mmap-loaded** ([`LoadMode::Mmap`]):
//! weight slices borrow the mapped file zero-copy, making warm-load
//! page-fault-bounded instead of parse-bounded.
//!
//! v3 is the only encoding this build reads or writes. The JSON artifacts
//! of formats v1 and v2 (`.model.json`) are refused with an error that
//! names them, and warm-load skips them with a warning.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hamlet_core::experiment::RunResult;
use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::any::AnyClassifier;
use hamlet_ml::binenc::{BinWriter, BytesSource, MmapFile};
use hamlet_ml::contract::{BatchError, DomainInterner, FeatureContract};
use hamlet_ml::dataset::FeatureMeta;
use serde::Deserialize;

use crate::container::{self, SEC_CASC, SEC_DICT, SEC_META, SEC_MODL, SEC_QNTS};
use crate::error::{Result, ServeError};

/// Artifact layout version written by this build.
pub const FORMAT_VERSION: u32 = 3;

/// Filename suffix of artifacts.
pub const ARTIFACT_SUFFIX: &str = ".model.bin";

/// How to materialize an artifact's payload on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Read and parse the whole file into owned memory.
    #[default]
    Heap,
    /// Map the file and borrow weight slices from it zero-copy. Pages are
    /// faulted in on first prediction, and artifacts of the same file share
    /// physical memory with the page cache.
    Mmap,
}

/// Provenance and quality records captured at training time.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainingMetadata {
    /// Dataset identifier (emulator or scenario name).
    pub dataset: String,
    /// The model family/spec that was tuned.
    pub spec: ModelSpec,
    /// Number of training rows.
    pub train_rows: usize,
    /// Full experiment metrics (accuracies, runtime, winning cell).
    pub metrics: RunResult,
}

/// The cheap-to-read identity of an artifact: everything `/v1/models`
/// reports, parsed without materializing the model — only the container
/// header and `META` section are read.
#[derive(Debug, Clone)]
pub struct ArtifactHead {
    /// Registry name.
    pub name: String,
    /// Version under the name.
    pub version: u32,
    /// Model family tag (`tree`, `svm`, ...).
    pub family: String,
    /// Weight-tensor storage encoding (`f32` for full precision, `i8` for
    /// quantized payloads).
    pub encoding: String,
    /// Feature-config name (`NoJoin`, `JoinAll`, ...).
    pub config: String,
    /// Expected input width (features per row).
    pub n_features: usize,
    /// Holdout accuracy recorded at training time.
    pub test_accuracy: f64,
    /// Source dataset recorded at training time.
    pub dataset: String,
    /// Fingerprint of the source star schema.
    pub schema_fingerprint: u64,
}

impl ArtifactHead {
    /// Registry key `name@version`.
    pub fn key(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }
}

/// A servable trained model with its input contract.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Artifact layout version (see [`FORMAT_VERSION`]), written into the
    /// container header.
    pub format_version: u32,
    /// Registry name (caller-chosen, e.g. `movies-tree`).
    pub name: String,
    /// Monotonic version under the name; the registry serves the latest by
    /// default.
    pub version: u32,
    /// The trained classifier.
    pub model: AnyClassifier,
    /// Feature configuration the model was trained under.
    pub feature_config: FeatureConfig,
    /// The input contract: expected columns in order (every prediction row
    /// supplies one code per entry, each `< cardinality`), plus the
    /// label↔code dictionary per feature, which is what lets `/v1/predict`
    /// accept raw label strings.
    pub contract: FeatureContract,
    /// Fingerprint of the star schema that produced the training data
    /// (`StarSchema::fingerprint`).
    pub schema_fingerprint: u64,
    /// Training provenance and metrics.
    pub metadata: TrainingMetadata,
}

impl ModelArtifact {
    /// Registry key `name@version`.
    pub fn key(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }

    /// Expected input columns, in contract order.
    pub fn features(&self) -> &[FeatureMeta] {
        self.contract.features()
    }

    /// Fingerprint of the *feature space* this model consumes (names,
    /// cardinalities, provenance, dictionaries, in order). Computed, not
    /// stored: it can never drift from the contract.
    pub fn feature_fingerprint(&self) -> u64 {
        self.contract.fingerprint()
    }

    /// The cheap identity of this (already loaded) artifact.
    pub fn head(&self) -> ArtifactHead {
        ArtifactHead {
            name: self.name.clone(),
            version: self.version,
            family: self.model.family().to_string(),
            encoding: self.model.encoding().to_string(),
            config: self.feature_config.name(),
            n_features: self.contract.width(),
            test_accuracy: self.metadata.metrics.test_accuracy,
            dataset: self.metadata.dataset.clone(),
            schema_fingerprint: self.schema_fingerprint,
        }
    }

    fn batch_error(&self, e: BatchError) -> ServeError {
        ServeError::BadRequest(format!("model `{}`: {e}", self.key()))
    }

    /// Validates a batch of pre-encoded code rows against the contract and
    /// flattens it row-major for the batched predict hot path. Every
    /// offending row is reported with its index and feature name.
    pub fn validate_coded(&self, rows: &[Vec<u32>]) -> Result<Vec<u32>> {
        if rows.is_empty() {
            return Err(ServeError::BadRequest("empty prediction batch".into()));
        }
        self.contract
            .validate_batch(rows)
            .map_err(|e| self.batch_error(e))
    }

    /// Dictionary-encodes a batch of raw label rows server-side (the NoJoin
    /// FK-as-feature rewrite at ingest). Unseen labels fall back to the
    /// `Others` slot on open domains and are 4xx-worthy per-row errors on
    /// closed ones; contracts without dictionaries reject raw rows outright.
    pub fn encode_raw(&self, rows: &[Vec<String>]) -> Result<Vec<u32>> {
        if rows.is_empty() {
            return Err(ServeError::BadRequest("empty prediction batch".into()));
        }
        self.contract
            .encode_batch(rows)
            .map_err(|e| self.batch_error(e))
    }

    /// File path of this artifact inside an artifact directory.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}{ARTIFACT_SUFFIX}", self.key()))
    }

    /// Persists the artifact, creating the directory if needed. The write
    /// goes through a temp file + rename so readers never observe a torn
    /// artifact.
    pub fn save(&self, dir: &Path) -> Result<PathBuf> {
        let bytes = self.to_v3_bytes()?;
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::io(format!("creating {}", dir.display()), e))?;
        let path = self.path_in(dir);
        let tmp = dir.join(format!(".{}{ARTIFACT_SUFFIX}.tmp", self.key()));
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)
                .map_err(|e| ServeError::io(format!("creating {}", tmp.display()), e))?;
            // Fault injection for the CI crash-safety probe: write only a
            // truncated prefix, skip the fsync+rename, and die — the
            // half-written temp file is exactly what a real crash leaves.
            if std::env::var_os("HAMLET_FAULT_PERSIST_CRASH").is_some_and(|v| v != "0") {
                let cut = bytes.len() / 2;
                let _ = file.write_all(&bytes[..cut]);
                return Err(ServeError::io(
                    format!(
                        "HAMLET_FAULT_PERSIST_CRASH: simulated crash after {cut} of {} bytes of {}",
                        bytes.len(),
                        tmp.display()
                    ),
                    std::io::Error::other("injected persist crash"),
                ));
            }
            file.write_all(&bytes)
                .map_err(|e| ServeError::io(format!("writing {}", tmp.display()), e))?;
            // Flush file data to stable storage *before* the rename makes it
            // visible; otherwise a power cut can leave a fully-renamed file
            // with empty or partial content.
            file.sync_all()
                .map_err(|e| ServeError::io(format!("syncing {}", tmp.display()), e))?;
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServeError::io(format!("renaming into {}", path.display()), e))?;
        // And persist the rename itself: fsync the directory entry so the
        // new name survives a crash immediately after save() returns.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(path)
    }

    /// Serializes into the v3 container: `META` (JSON header with the
    /// by-reference contract), `DICT` (each distinct dictionary once),
    /// `MODL` (aligned binary model payload).
    fn to_v3_bytes(&self) -> Result<Vec<u8>> {
        let mut pool = DomainInterner::new();
        let contract_value = self.contract.serialize_by_ref(&mut pool);
        let meta = serde::Value::Obj(vec![
            (
                "format_version".into(),
                serde::Value::Num(serde::Number::UInt(u64::from(self.format_version))),
            ),
            ("name".into(), serde::Value::Str(self.name.clone())),
            (
                "version".into(),
                serde::Value::Num(serde::Number::UInt(u64::from(self.version))),
            ),
            (
                "family".into(),
                serde::Value::Str(self.model.family().to_string()),
            ),
            (
                "encoding".into(),
                serde::Value::Str(self.model.encoding().to_string()),
            ),
            (
                "feature_config".into(),
                serde::Serialize::serialize(&self.feature_config),
            ),
            (
                "schema_fingerprint".into(),
                serde::Value::Num(serde::Number::UInt(self.schema_fingerprint)),
            ),
            (
                "metadata".into(),
                serde::Serialize::serialize(&self.metadata),
            ),
            ("contract".into(), contract_value),
        ]);
        let meta_bytes = serde_json::to_string(&meta)?.into_bytes();
        let mut dict = BinWriter::new();
        pool.encode_bin(&mut dict);
        let mut modl = BinWriter::new();
        self.model.encode_bin(&mut modl);
        let dict_bytes = dict.finish();
        let modl_bytes = modl.finish();
        let mut sections: Vec<([u8; 8], &[u8])> = vec![
            (SEC_META, &meta_bytes),
            (SEC_DICT, &dict_bytes),
            (SEC_MODL, &modl_bytes),
        ];
        // Quantized payloads additionally carry a small JSON descriptor
        // section so `artifact inspect` can report tensor encodings and
        // dequantization scales without decoding the model.
        let qnts_bytes = quant_section_json(&self.model).map(String::into_bytes);
        if let Some(q) = &qnts_bytes {
            sections.push((SEC_QNTS, q));
        }
        // Cascade payloads carry a JSON tier-table descriptor so `artifact
        // inspect` can report tier structure, thresholds and calibrators
        // without decoding the model. Old readers ignore the unknown tag.
        let casc_bytes = cascade_section_json(&self.model).map(String::into_bytes);
        if let Some(c) = &casc_bytes {
            sections.push((SEC_CASC, c));
        }
        Ok(container::build_versioned(self.format_version, &sections))
    }

    /// Highest version present in `dir` for `name`, parsed from artifact
    /// *filenames* (`name@V.model.bin`) — no deserialization, so
    /// version allocation does not need to materialize every stored model.
    /// Returns 0 when none exist.
    pub fn max_version_on_disk(dir: &Path, name: &str) -> u32 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter_map(|e| {
                let file = e.file_name();
                let (n, v) = split_artifact_stem(file.to_str()?)?;
                (n == name).then_some(v)
            })
            .max()
            .unwrap_or(0)
    }

    /// Loads and format-checks one artifact file into owned memory.
    pub fn load(path: &Path) -> Result<ModelArtifact> {
        Self::load_with(path, LoadMode::Heap)
    }

    /// Loads with an explicit [`LoadMode`]. A container version other than
    /// [`FORMAT_VERSION`] is a hard error, and so is a file that is not a
    /// container at all (such as a legacy JSON artifact).
    pub fn load_with(path: &Path, mode: LoadMode) -> Result<ModelArtifact> {
        Ok(Self::load_with_source(path, mode)?.0)
    }

    /// [`ModelArtifact::load_with`], additionally returning the memory
    /// mapping the artifact's weights borrow (mmap loads only; `None`
    /// otherwise). The registry keeps the handle so it can issue `madvise`
    /// residency hints when a version is promoted or demoted.
    pub fn load_with_source(
        path: &Path,
        mode: LoadMode,
    ) -> Result<(ModelArtifact, Option<Arc<MmapFile>>)> {
        let ctx = |e| ServeError::io(format!("reading {}", path.display()), e);
        match mode {
            LoadMode::Mmap => {
                let map = MmapFile::open(path).map_err(ctx)?;
                let artifact = Self::from_v3(BytesSource::Mapped(Arc::clone(&map)))?;
                Ok((artifact, Some(map)))
            }
            LoadMode::Heap => {
                let bytes = std::fs::read(path).map_err(ctx)?;
                Ok((Self::from_v3(BytesSource::Heap(Arc::new(bytes)))?, None))
            }
        }
    }

    /// Decodes a v3 container from either source. Over a mapped source,
    /// model weight arrays borrow the mapping zero-copy. Sections covered
    /// by the container's checksum table are verified first, so silent
    /// disk corruption fails the load instead of skewing predictions —
    /// with one deliberate exception: **mmap loads skip the `MODL`
    /// checksum**, because scanning it would fault in the whole weight
    /// payload and turn the page-fault-bounded load the format exists for
    /// back into an O(file) read (heap loads, the default, verify every
    /// section).
    fn from_v3(src: BytesSource) -> Result<ModelArtifact> {
        let entries = container::parse_sections(src.bytes())?;
        let skip: &[[u8; 8]] = if matches!(src, BytesSource::Mapped(_)) {
            &[SEC_MODL]
        } else {
            &[]
        };
        container::verify_checksums(src.bytes(), &entries, skip)?;
        let meta_entry = container::find(&entries, SEC_META)?;
        let meta: serde::Value = serde_json::from_slice(
            &src.bytes()[meta_entry.offset..meta_entry.offset + meta_entry.len],
        )?;
        let obj = meta
            .as_obj_view("artifact META")
            .map_err(|e| ServeError::Json(e.to_string()))?;
        let de = |what: &str, e: String| ServeError::Json(format!("META `{what}`: {e}"));
        let name = String::deserialize(obj.field("name")).map_err(|e| de("name", e.to_string()))?;
        let version =
            u32::deserialize(obj.field("version")).map_err(|e| de("version", e.to_string()))?;
        let feature_config = FeatureConfig::deserialize(obj.field("feature_config"))
            .map_err(|e| de("feature_config", e.to_string()))?;
        let schema_fingerprint = u64::deserialize(obj.field("schema_fingerprint"))
            .map_err(|e| de("schema_fingerprint", e.to_string()))?;
        let metadata = TrainingMetadata::deserialize(obj.field("metadata"))
            .map_err(|e| de("metadata", e.to_string()))?;

        let dict_entry = container::find(&entries, SEC_DICT)?;
        let mut dict_reader = container::section_reader(&src, dict_entry)?;
        let domains = DomainInterner::decode_bin(&mut dict_reader)
            .map_err(|e| ServeError::Json(e.to_string()))?;
        dict_reader
            .expect_end()
            .map_err(|e| ServeError::Json(format!("DICT section: {e}")))?;
        let contract = FeatureContract::deserialize_by_ref(obj.field("contract"), &domains)
            .map_err(|e| ServeError::Json(e.to_string()))?;

        let modl_entry = container::find(&entries, SEC_MODL)?;
        let mut modl_reader = container::section_reader(&src, modl_entry)?;
        let model = AnyClassifier::decode_bin(&mut modl_reader)
            .map_err(|e| ServeError::Json(e.to_string()))?;
        modl_reader
            .expect_end()
            .map_err(|e| ServeError::Json(format!("MODL section: {e}")))?;
        model
            .check_contract(&contract)
            .map_err(|e| ServeError::Json(format!("model/contract mismatch: {e}")))?;
        Ok(ModelArtifact {
            format_version: FORMAT_VERSION,
            name,
            version,
            model,
            feature_config,
            contract,
            schema_fingerprint,
            metadata,
        })
    }

    /// Reads only the artifact's identity (see [`ArtifactHead`]): the
    /// container header and `META` section. The model payload stays on
    /// disk.
    pub fn load_head(path: &Path) -> Result<ArtifactHead> {
        let meta_bytes = container::read_one_section(path, SEC_META)?;
        let meta: serde_json::Value = serde_json::from_slice(&meta_bytes)?;
        head_from_meta(&meta)
    }
}

/// JSON body of the `QNTS` descriptor section for a quantized model
/// (`None` for full-precision payloads). `Subset` wrappers recurse into
/// their inner model.
fn quant_section_json(model: &AnyClassifier) -> Option<String> {
    match model {
        AnyClassifier::Quantized(q) => {
            let tensors = q
                .tensor_info()
                .iter()
                .map(|(name, len, bytes, scale)| {
                    serde::Value::Obj(vec![
                        ("name".into(), serde::Value::Str((*name).into())),
                        (
                            "len".into(),
                            serde::Value::Num(serde::Number::UInt(*len as u64)),
                        ),
                        (
                            "bytes".into(),
                            serde::Value::Num(serde::Number::UInt(*bytes as u64)),
                        ),
                        (
                            "scale".into(),
                            serde::Value::Num(serde::Number::Float(*scale)),
                        ),
                    ])
                })
                .collect();
            let value = serde::Value::Obj(vec![
                (
                    "encoding".into(),
                    serde::Value::Str(hamlet_ml::quant::ENCODING.into()),
                ),
                ("tensors".into(), serde::Value::Arr(tensors)),
            ]);
            serde_json::to_string(&value).ok()
        }
        AnyClassifier::Subset(s) => quant_section_json(&s.inner),
        _ => None,
    }
}

/// JSON body of the `CASC` descriptor section for a cascade model (`None`
/// for everything else): the tier table with per-tier family, encoding,
/// weight bytes, threshold and calibrator parameters.
fn cascade_section_json(model: &AnyClassifier) -> Option<String> {
    let AnyClassifier::Cascade(c) = model else {
        return None;
    };
    let num = |v: f64| serde::Value::Num(serde::Number::Float(v));
    let tiers = c
        .tiers
        .iter()
        .map(|tier| {
            let calibrator = match &tier.calibrator {
                hamlet_ml::cascade::Calibrator::Platt { a, b } => serde::Value::Obj(vec![
                    ("kind".into(), serde::Value::Str("platt".into())),
                    ("a".into(), num(*a)),
                    ("b".into(), num(*b)),
                ]),
                hamlet_ml::cascade::Calibrator::Isotonic { xs, ps } => serde::Value::Obj(vec![
                    ("kind".into(), serde::Value::Str("isotonic".into())),
                    (
                        "xs".into(),
                        serde::Value::Arr(xs.iter().map(|&x| num(x)).collect()),
                    ),
                    (
                        "ps".into(),
                        serde::Value::Arr(ps.iter().map(|&p| num(p)).collect()),
                    ),
                ]),
            };
            serde::Value::Obj(vec![
                (
                    "family".into(),
                    serde::Value::Str(tier.model.family().into()),
                ),
                (
                    "encoding".into(),
                    serde::Value::Str(tier.model.encoding().into()),
                ),
                (
                    "weight_bytes".into(),
                    serde::Value::Num(serde::Number::UInt(tier.model.weight_bytes() as u64)),
                ),
                ("threshold".into(), num(tier.threshold)),
                ("calibrator".into(), calibrator),
            ])
        })
        .collect();
    let value = serde::Value::Obj(vec![("tiers".into(), serde::Value::Arr(tiers))]);
    serde_json::to_string(&value).ok()
}

/// Builds an [`ArtifactHead`] from a `META` object, which names the model
/// family explicitly so the payload need not be decoded.
fn head_from_meta(value: &serde_json::Value) -> Result<ArtifactHead> {
    let obj = value
        .as_obj_view("artifact head")
        .map_err(|e| ServeError::Json(e.to_string()))?;
    let de = |what: &str, e: String| ServeError::Json(format!("artifact `{what}`: {e}"));
    let name = String::deserialize(obj.field("name")).map_err(|e| de("name", e.to_string()))?;
    let version =
        u32::deserialize(obj.field("version")).map_err(|e| de("version", e.to_string()))?;
    let config = FeatureConfig::deserialize(obj.field("feature_config"))
        .map_err(|e| de("feature_config", e.to_string()))?
        .name();
    let schema_fingerprint = u64::deserialize(obj.field("schema_fingerprint"))
        .map_err(|e| de("schema_fingerprint", e.to_string()))?;
    let metadata = TrainingMetadata::deserialize(obj.field("metadata"))
        .map_err(|e| de("metadata", e.to_string()))?;
    let n_features = match obj.field("contract") {
        serde_json::Value::Arr(features) => features.len(),
        other => {
            return Err(ServeError::Json(format!(
                "artifact `contract`: expected array, got {}",
                other.kind()
            )))
        }
    };
    let family =
        String::deserialize(obj.field("family")).map_err(|e| de("family", e.to_string()))?;
    let encoding = match obj.field("encoding") {
        serde_json::Value::Str(s) => s.clone(),
        // META written before quantization existed carries no encoding tag;
        // every payload of that era is full precision.
        serde_json::Value::Null => "f32".into(),
        other => {
            return Err(ServeError::Json(format!(
                "artifact `encoding`: expected string, got {}",
                other.kind()
            )))
        }
    };
    Ok(ArtifactHead {
        name,
        version,
        family,
        encoding,
        config,
        n_features,
        test_accuracy: metadata.metrics.test_accuracy,
        dataset: metadata.dataset,
        schema_fingerprint,
    })
}

/// Splits an artifact filename (`name@V.model.bin`) into `(name, version)`.
pub(crate) fn split_artifact_stem(file: &str) -> Option<(&str, u32)> {
    let (n, v) = file.strip_suffix(ARTIFACT_SUFFIX)?.rsplit_once('@')?;
    Some((n, v.parse().ok()?))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hamlet_ml::dataset::Provenance;
    use hamlet_ml::model::MajorityClass;
    use hamlet_relation::domain::CatDomain;

    /// An artifact whose contract carries dictionaries: `xs0` is a closed
    /// two-label domain, `fk` an open domain `v0..v3 + Others` (card 5).
    pub(crate) fn toy_artifact(name: &str, version: u32) -> ModelArtifact {
        ModelArtifact {
            format_version: FORMAT_VERSION,
            name: name.into(),
            version,
            model: AnyClassifier::Majority(MajorityClass { positive: true }),
            feature_config: FeatureConfig::NoJoin,
            contract: FeatureContract::new(vec![
                FeatureMeta::with_domain(
                    "xs0",
                    Provenance::Home,
                    CatDomain::synthetic("xs0", 2).into_shared(),
                ),
                FeatureMeta::with_domain(
                    "fk",
                    Provenance::ForeignKey { dim: 0 },
                    CatDomain::synthetic_with_others("fk", 4).into_shared(),
                ),
            ])
            .unwrap(),
            schema_fingerprint: 0xDEADBEEF,
            metadata: TrainingMetadata {
                dataset: "toy".into(),
                spec: ModelSpec::TreeGini,
                train_rows: 10,
                metrics: RunResult {
                    model: "DT-Gini".into(),
                    config: "NoJoin".into(),
                    train_accuracy: 1.0,
                    val_accuracy: 0.9,
                    test_accuracy: 0.8,
                    seconds: 0.1,
                    winner: "minsplit=2".into(),
                },
            },
        }
    }

    /// An artifact whose model is a two-tier majority→majority cascade —
    /// structurally trivial but exercising the full `CASC` write/read path.
    pub(crate) fn toy_cascade_artifact(name: &str, version: u32) -> ModelArtifact {
        use hamlet_ml::cascade::{Calibrator, CascadeModel, CascadeTier};
        let mut art = toy_artifact(name, version);
        art.model = AnyClassifier::Cascade(
            CascadeModel::new(vec![
                CascadeTier {
                    model: AnyClassifier::Majority(MajorityClass { positive: true }),
                    calibrator: Calibrator::Isotonic {
                        xs: vec![-1.0, 1.0],
                        ps: vec![0.25, 0.75],
                    },
                    threshold: 0.6,
                },
                CascadeTier {
                    model: AnyClassifier::Majority(MajorityClass { positive: false }),
                    calibrator: Calibrator::Platt { a: 2.0, b: 0.5 },
                    threshold: 1.0,
                },
            ])
            .unwrap(),
        );
        art
    }

    #[test]
    fn cascade_artifacts_roundtrip_with_casc_descriptor() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-casc-{}", std::process::id()));
        let art = toy_cascade_artifact("casc", 2);
        let path = art.save(&dir).unwrap();
        // The descriptor section is present and names both tiers.
        let bytes = std::fs::read(&path).unwrap();
        let entries = crate::container::parse_sections(&bytes).unwrap();
        let casc = crate::container::find(&entries, crate::container::SEC_CASC).unwrap();
        let body = std::str::from_utf8(&bytes[casc.offset..casc.offset + casc.len]).unwrap();
        assert!(body.contains("\"tiers\""), "{body}");
        assert!(body.contains("platt"), "{body}");
        assert!(body.contains("isotonic"), "{body}");
        // Heap and mmap loads agree bit-exactly with the saved model.
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let back = ModelArtifact::load_with(&path, mode).unwrap();
            assert_eq!(back.model, art.model, "{mode:?}");
            assert_eq!(back.head().family, "cascade");
        }
        // Head reads report the cascade family without decoding the model.
        let head = ModelArtifact::load_head(&path).unwrap();
        assert_eq!(head.family, "cascade");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_sections_are_ignored_by_this_reader() {
        // A future writer may append sections this build has never heard of
        // (exactly how `CASC` itself was introduced): rebuilding a valid
        // artifact with an extra unknown section must not break loads.
        let dir = std::env::temp_dir().join(format!("hamlet-art-unk-{}", std::process::id()));
        let art = toy_artifact("unk", 1);
        let path = art.save(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let entries = crate::container::parse_sections(&bytes).unwrap();
        let mut sections: Vec<([u8; 8], &[u8])> = entries
            .iter()
            .filter(|e| e.tag != crate::container::SEC_CRCS)
            .map(|e| (e.tag, &bytes[e.offset..e.offset + e.len]))
            .collect();
        sections.push((*b"XTRA\0\0\0\0", b"future stuff".as_slice()));
        let rebuilt = crate::container::build_versioned(FORMAT_VERSION, &sections);
        let p = dir.join("unk2@1.model.bin");
        std::fs::write(&p, rebuilt).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let back = ModelArtifact::load_with(&p, mode).unwrap();
            assert_eq!(back.model, art.model, "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_roundtrip_v3_default() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-{}", std::process::id()));
        let art = toy_artifact("toy-model", 3);
        let path = art.save(&dir).unwrap();
        assert!(path.ends_with("toy-model@3.model.bin"), "{path:?}");
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let back = ModelArtifact::load_with(&path, mode).unwrap();
            assert_eq!(back.key(), "toy-model@3");
            assert_eq!(back.schema_fingerprint, 0xDEADBEEF);
            assert_eq!(back.features().len(), 2);
            assert_eq!(back.feature_fingerprint(), art.feature_fingerprint());
            // The dictionaries survive the roundtrip.
            assert!(back.contract.has_domains());
            assert!(back.contract.is_open(1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_version_on_disk_parses_filenames_only() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-ver-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("m", 2).save(&dir).unwrap();
        toy_artifact("m", 9).save(&dir).unwrap();
        toy_artifact("other", 40).save(&dir).unwrap();
        // Corrupt content is irrelevant: only the filename is read.
        std::fs::write(dir.join("m@11.model.bin"), "garbage").unwrap();
        // Legacy JSON files are not artifacts and claim no version.
        std::fs::write(dir.join("m@20.model.json"), "{}").unwrap();
        std::fs::write(dir.join("nonsense.txt"), "x").unwrap();
        assert_eq!(ModelArtifact::max_version_on_disk(&dir, "m"), 11);
        assert_eq!(ModelArtifact::max_version_on_disk(&dir, "other"), 40);
        assert_eq!(ModelArtifact::max_version_on_disk(&dir, "ghost"), 0);
        assert_eq!(
            ModelArtifact::max_version_on_disk(std::path::Path::new("/nope"), "m"),
            0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_gate_rejects_future_versions() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-v-{}", std::process::id()));
        let mut art = toy_artifact("future", 1);
        art.format_version = FORMAT_VERSION + 1;
        let path = art.save(&dir).unwrap();
        match ModelArtifact::load(&path) {
            Err(ServeError::Format { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_coded_enforces_contract() {
        let art = toy_artifact("v", 1);
        // Happy path: 2 rows × 2 features, codes in domain, flattened
        // row-major for the predict hot path.
        assert_eq!(
            art.validate_coded(&[vec![0, 4], vec![1, 0]]).unwrap(),
            vec![0, 4, 1, 0]
        );
        // Wrong width.
        assert!(art.validate_coded(&[vec![0, 1, 0], vec![1, 1]]).is_err());
        // Out-of-domain code.
        assert!(art.validate_coded(&[vec![0, 5]]).is_err());
        // Empty batch.
        assert!(art.validate_coded(&[]).is_err());
    }

    #[test]
    fn feature_fingerprint_tracks_contract() {
        let a = toy_artifact("a", 1);
        let mut b = toy_artifact("a", 1);
        assert_eq!(a.feature_fingerprint(), b.feature_fingerprint());
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
        assert_ne!(a.feature_fingerprint(), b.feature_fingerprint());
    }

    #[test]
    fn legacy_json_artifacts_are_rejected_by_name() {
        // A faithful format-v1 payload (v2 differs only in its keys).
        let v1 = r#"{
            "format_version": 1,
            "name": "legacy",
            "version": 4,
            "model": {"Majority": {"positive": true}},
            "feature_config": "NoJoin",
            "features": [
                {"name": "xs0", "cardinality": 2, "provenance": "Home"},
                {"name": "fk", "cardinality": 5,
                 "provenance": {"ForeignKey": {"dim": 0}}}
            ],
            "schema_fingerprint": 12345,
            "metadata": {
                "dataset": "toy", "spec": "TreeGini", "train_rows": 10,
                "metrics": {"model": "DT-Gini", "config": "NoJoin",
                            "train_accuracy": 1.0, "val_accuracy": 0.9,
                            "test_accuracy": 0.8, "seconds": 0.1,
                            "winner": "minsplit=2"}
            }
        }"#;
        let dir = std::env::temp_dir().join(format!("hamlet-art-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy@4.model.json");
        std::fs::write(&path, v1).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let err = ModelArtifact::load_with(&path, mode).unwrap_err();
            assert!(err.to_string().contains("legacy JSON"), "{mode:?}: {err}");
        }
        let err = ModelArtifact::load_head(&path).unwrap_err();
        assert!(err.to_string().contains("legacy JSON"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `META`-only head read agrees with a full load, for a plain model
    /// and for a cascade (whose family and encoding come from its tiers).
    #[test]
    fn head_matches_full_load_across_formats() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-head-{}", std::process::id()));
        for art in [
            toy_artifact("headed", 6),
            toy_cascade_artifact("headed-casc", 6),
        ] {
            let path = art.save(&dir).unwrap();
            let head = ModelArtifact::load_head(&path).unwrap();
            let full = ModelArtifact::load(&path).unwrap().head();
            assert_eq!(head.key(), full.key());
            assert_eq!(head.family, full.family);
            assert_eq!(head.encoding, full.encoding);
            assert_eq!(head.config, "NoJoin");
            assert_eq!(head.n_features, 2);
            assert_eq!(head.test_accuracy, 0.8);
            assert_eq!(head.dataset, "toy");
            assert_eq!(head.schema_fingerprint, 0xDEADBEEF);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_v3_files_fail_cleanly() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-corrupt-{}", std::process::id()));
        let art = toy_artifact("c", 1);
        let path = art.save(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncations at every stratum: header, table, payload.
        for cut in [2, 10, 30, bytes.len() / 2, bytes.len() - 1] {
            let p = dir.join(format!("cut{cut}.model.bin"));
            std::fs::write(&p, &bytes[..cut]).unwrap();
            for mode in [LoadMode::Heap, LoadMode::Mmap] {
                let err = ModelArtifact::load_with(&p, mode);
                assert!(err.is_err(), "cut {cut} mode {mode:?} must fail");
            }
            if cut <= 30 {
                // Header/table damage breaks head reads too; a payload-only
                // truncation legitimately leaves the META head readable.
                assert!(ModelArtifact::load_head(&p).is_err(), "head cut {cut}");
            }
        }
        // Flipped magic: not a container at all.
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        let p = dir.join("magic.model.bin");
        std::fs::write(&p, &flipped).unwrap();
        assert!(ModelArtifact::load(&p).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_bits_fail_the_checksum_not_the_parse() {
        let dir = std::env::temp_dir().join(format!("hamlet-art-crc-{}", std::process::id()));
        let art = toy_artifact("crc", 1);
        let path = art.save(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let entries = crate::container::parse_sections(&bytes).unwrap();

        // A flipped bit in the MODL payload: the heap (default) load path
        // verifies every section and fails with a named checksum error.
        let modl = crate::container::find(&entries, crate::container::SEC_MODL).unwrap();
        let mut flipped = bytes.clone();
        flipped[modl.offset + modl.len - 1] ^= 0x01;
        let p = dir.join("crcflip@1.model.bin");
        std::fs::write(&p, &flipped).unwrap();
        let err = ModelArtifact::load_with(&p, LoadMode::Heap)
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum"), "{err}");
        assert!(err.contains("MODL"), "{err}");
        // The mmap path deliberately defers MODL verification (scanning it
        // would fault in the whole payload): the load itself succeeds.
        assert!(ModelArtifact::load_with(&p, LoadMode::Mmap).is_ok());

        // A flipped bit in a structural section (DICT) fails BOTH paths.
        let dict = crate::container::find(&entries, crate::container::SEC_DICT).unwrap();
        let mut bad_dict = bytes.clone();
        bad_dict[dict.offset] ^= 0x01;
        let p2 = dir.join("dictflip@1.model.bin");
        std::fs::write(&p2, &bad_dict).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let err = ModelArtifact::load_with(&p2, mode).unwrap_err().to_string();
            assert!(err.contains("checksum"), "{mode:?}: {err}");
            assert!(err.contains("DICT"), "{mode:?}: {err}");
        }

        // The pristine file still loads and reports its mapping source.
        let (back, map) = ModelArtifact::load_with_source(&path, LoadMode::Mmap).unwrap();
        assert_eq!(back.key(), "crc@1");
        assert!(map.is_some(), "mmap loads surface their mapping");
        let (_, none) = ModelArtifact::load_with_source(&path, LoadMode::Heap).unwrap();
        assert!(none.is_none(), "heap loads have no mapping");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_dedups_shared_dictionaries_on_disk() {
        use hamlet_ml::dataset::Provenance;
        // Two features sharing one dictionary (the FK/RID case) must store
        // its labels once; a third distinct domain stores separately.
        let shared = CatDomain::synthetic("big", 64).into_shared();
        let mut art = toy_artifact("dedup", 1);
        art.contract = FeatureContract::new(vec![
            FeatureMeta::with_domain("fk", Provenance::ForeignKey { dim: 0 }, shared.clone()),
            FeatureMeta::with_domain("rid", Provenance::Foreign { dim: 0 }, shared),
            FeatureMeta::with_domain(
                "other",
                Provenance::Home,
                CatDomain::synthetic("other", 3).into_shared(),
            ),
        ])
        .unwrap();
        let dir = std::env::temp_dir().join(format!("hamlet-art-dedup-{}", std::process::id()));
        let deduped_len = std::fs::metadata(art.save(&dir).unwrap()).unwrap().len();

        // Same contract, domains allocated separately per feature: the
        // writer re-merges them by content.
        let mut dup = art.clone();
        dup.contract = FeatureContract::new(
            art.contract
                .features()
                .iter()
                .map(|f| FeatureMeta {
                    domain: f.domain.as_ref().map(|d| {
                        CatDomain::new(d.name(), d.labels().to_vec())
                            .unwrap()
                            .into_shared()
                    }),
                    ..f.clone()
                })
                .collect(),
        )
        .unwrap();
        dup.name = "dedup2".into();
        let dup_len = std::fs::metadata(dup.save(&dir).unwrap()).unwrap().len();
        assert_eq!(
            deduped_len, dup_len,
            "content-equal domains dedup to identical container sizes"
        );
        let back = ModelArtifact::load(&dir.join("dedup2@1.model.bin")).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(
                back.contract.feature(0).domain.as_ref().unwrap(),
                back.contract.feature(1).domain.as_ref().unwrap()
            ),
            "load restores sharing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
