//! A concurrent, versioned model registry.
//!
//! Prediction threads resolve models by `name` (latest version) or
//! `name@version` (pinned). The two paths are deliberately different:
//!
//! - **Bare names** — the many-small-requests hot path — go through a
//!   **lock-free snapshot**: an [`ArcSwapCell`] holding an immutable
//!   `name → latest artifact` map. A lookup is two atomic pins, a hash
//!   probe and an `Arc` clone; it never touches the registry's `RwLock`,
//!   so a training request holding the write lock (or a thundering herd of
//!   readers) can never stall the predict path. The snapshot is republished
//!   (an O(#names) map of `Arc` clones) under the write lock whenever a
//!   latest pointer changes — once per train, effectively never.
//! - **Pinned versions** and registry mutations use the existing
//!   `RwLock`ed index, which remains the source of truth.
//!
//! Artifacts are `Arc`-shared between the registry and in-flight requests,
//! making hot-swap (`insert` of a newer version) safe: running requests
//! keep the version they resolved.
//!
//! ## Lazy warm-load, promotion and demotion
//!
//! Only the *latest* version of each name serves bare-name traffic, so boot
//! no longer materializes every artifact version: the latest per name is
//! fully loaded (heap or mmap, see [`crate::artifact::LoadMode`]), while
//! older versions are registered as **lazy slots** holding just their
//! [`ArtifactHead`] — for v3 artifacts that is a container-header +
//! `META`-section read, a few hundred bytes regardless of model size. A
//! pinned `name@version` request against a lazy slot loads the payload on
//! first use and caches it; [`ModelRegistry::demote`] is the inverse,
//! returning a promoted non-latest version to its lazy slot so a burst of
//! pinned traffic does not keep old models resident forever.
//!
//! Mmap-loaded payloads get `madvise` residency hints at both transitions:
//! `WILLNEED` when a version is loaded to serve (warm-load latest or lazy
//! promotion), `DONTNEED` when it is demoted.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use hamlet_ml::binenc::{MapAdvice, MmapFile};

use crate::artifact::{split_artifact_stem, ArtifactHead, LoadMode, ModelArtifact};
use crate::container::LEGACY_JSON_HINT;
use crate::error::{Result, ServeError};
use crate::swap::ArcSwapCell;

/// One registry row, as reported by `GET /v1/models`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelSummary {
    /// Full key `name@version`.
    pub key: String,
    /// Registry name.
    pub name: String,
    /// Version under the name.
    pub version: u32,
    /// Model family tag (`tree`, `svm`, ...).
    pub family: String,
    /// Weight-tensor storage encoding (`f32`, or `i8` when quantized).
    pub encoding: String,
    /// Feature-config name (`NoJoin`, `JoinAll`, ...).
    pub config: String,
    /// Expected input width (features per row).
    pub n_features: usize,
    /// Holdout accuracy recorded at training time.
    pub test_accuracy: f64,
    /// Source dataset recorded at training time.
    pub dataset: String,
    /// Whether the model payload is resident in memory (`false` = lazy
    /// slot, loaded on first use).
    pub resident: bool,
    /// Bytes of dense numeric payload (weights, support vectors, tables)
    /// the model keeps resident — 0 for lazy slots, whose payload is still
    /// on disk.
    pub resident_bytes: usize,
}

fn next_version_in(index: &Index, name: &str) -> u32 {
    index.latest.get(name).map_or(1, |a| a.version + 1)
}

fn summarize_head(head: &ArtifactHead, resident: bool, resident_bytes: usize) -> ModelSummary {
    ModelSummary {
        key: head.key(),
        name: head.name.clone(),
        version: head.version,
        family: head.family.clone(),
        encoding: head.encoding.clone(),
        config: head.config.clone(),
        n_features: head.n_features,
        test_accuracy: head.test_accuracy,
        dataset: head.dataset.clone(),
        resident,
        resident_bytes,
    }
}

/// A fully materialized artifact plus what the registry needs to manage
/// its residency: the backing file (for demotion back to a lazy slot) and
/// the memory mapping (for `madvise` hints), when known.
#[derive(Debug, Clone)]
struct ReadySlot {
    artifact: Arc<ModelArtifact>,
    /// Backing artifact file, when the slot came from (or was persisted
    /// to) disk. Required for demotion.
    origin: Option<PathBuf>,
    /// The mapping mmap-loaded weights borrow, kept for residency hints.
    map: Option<Arc<MmapFile>>,
}

/// A registered artifact: resident, or a head + path to load on first use.
#[derive(Debug, Clone)]
enum Slot {
    Ready(ReadySlot),
    Lazy(Arc<LazySlot>),
}

#[derive(Debug)]
struct LazySlot {
    path: PathBuf,
    head: ArtifactHead,
}

/// Index state behind the registry lock: artifacts by exact key plus a
/// latest-version pointer per name, so bare-name resolution is O(1)
/// instead of a scan over every artifact. The latest pointer is always a
/// fully loaded artifact; its lock-free mirror is the snapshot in
/// [`ModelRegistry::latest_cache`].
#[derive(Debug, Default)]
struct Index {
    by_key: HashMap<String, Slot>,
    latest: HashMap<String, Arc<ModelArtifact>>,
}

impl Index {
    /// Inserts a resident artifact. Returns whether a latest pointer
    /// changed (the caller must republish the snapshot).
    fn insert(&mut self, ready: ReadySlot) -> bool {
        let artifact = &ready.artifact;
        let replaces_latest = self
            .latest
            .get(&artifact.name)
            .is_none_or(|cur| artifact.version >= cur.version);
        if replaces_latest {
            self.latest
                .insert(artifact.name.clone(), Arc::clone(artifact));
        }
        self.by_key.insert(artifact.key(), Slot::Ready(ready));
        replaces_latest
    }

    /// Registers a non-latest version by head only; the payload loads on
    /// first `get`. Never touches the latest pointer.
    fn insert_lazy(&mut self, path: PathBuf, head: ArtifactHead) {
        self.by_key
            .insert(head.key(), Slot::Lazy(Arc::new(LazySlot { path, head })));
    }

    /// Removes one key, repairing the latest pointer for its name (rare —
    /// only the persist-failure rollback path, which always removes a
    /// resident artifact). Returns whether a latest pointer changed.
    fn remove(&mut self, key: &str) -> bool {
        let Some(removed) = self.by_key.remove(key) else {
            return false;
        };
        let (name, version) = match &removed {
            Slot::Ready(r) => (r.artifact.name.clone(), r.artifact.version),
            Slot::Lazy(l) => (l.head.name.clone(), l.head.version),
        };
        if self
            .latest
            .get(&name)
            .is_some_and(|cur| cur.version == version)
        {
            // Only resident artifacts can serve the bare name.
            match self
                .by_key
                .values()
                .filter_map(|s| match s {
                    Slot::Ready(r) if r.artifact.name == name => Some(&r.artifact),
                    _ => None,
                })
                .max_by_key(|a| a.version)
            {
                Some(next) => {
                    let next = Arc::clone(next);
                    self.latest.insert(name, next);
                }
                None => {
                    self.latest.remove(&name);
                }
            }
            return true;
        }
        false
    }
}

/// A residency transition worth auditing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryNote {
    /// A lazy slot's payload was loaded and swapped in.
    Promoted,
    /// A resident non-latest version was returned to its lazy slot.
    Demoted,
    /// A held candidate version became the latest for its name (rollout
    /// auto-promote cleared its guardrails).
    Adopted,
}

/// Callback invoked on residency transitions (the server wires this to
/// telemetry's audit log). Called *after* the registry released its locks,
/// so observers may freely call back into the registry.
pub type RegistryObserver = Arc<dyn Fn(RegistryNote, &str) + Send + Sync>;

/// Settable-once-or-more observer cell; `None` until the server installs
/// one, which keeps the registry usable standalone (tests, CLI).
#[derive(Default)]
struct ObserverCell(RwLock<Option<RegistryObserver>>);

impl ObserverCell {
    fn notify(&self, note: RegistryNote, key: &str) {
        let guard = self.0.read().expect("observer lock poisoned");
        if let Some(observer) = guard.as_ref() {
            observer(note, key);
        }
    }
}

impl std::fmt::Debug for ObserverCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.0.read() {
            Ok(guard) if guard.is_some() => "set",
            Ok(_) => "unset",
            Err(_) => "poisoned",
        };
        f.write_str(state)
    }
}

/// Thread-safe registry of loaded artifacts.
#[derive(Debug)]
pub struct ModelRegistry {
    inner: RwLock<Index>,
    /// Lock-free mirror of `Index::latest`, republished under the write
    /// lock on every latest-pointer change. The bare-name predict hot path
    /// reads only this.
    latest_cache: ArcSwapCell<HashMap<String, Arc<ModelArtifact>>>,
    /// How lazily registered payloads are materialized on first use.
    load_mode: LoadMode,
    /// Residency-transition observer, when installed.
    observer: ObserverCell,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_load_mode(LoadMode::Heap)
    }
}

impl ModelRegistry {
    /// Empty registry (heap load mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty registry with an explicit load mode for lazy promotions.
    pub fn with_load_mode(load_mode: LoadMode) -> Self {
        ModelRegistry {
            inner: RwLock::new(Index::default()),
            latest_cache: ArcSwapCell::new(Some(Arc::new(HashMap::new()))),
            load_mode,
            observer: ObserverCell::default(),
        }
    }

    /// Installs the residency-transition observer (replacing any previous
    /// one). Fired outside registry locks, after the transition landed.
    pub fn set_observer(&self, observer: RegistryObserver) {
        *self.observer.0.write().expect("observer lock poisoned") = Some(observer);
    }

    /// The registry's artifact load mode.
    pub fn load_mode(&self) -> LoadMode {
        self.load_mode
    }

    /// Republishes the lock-free latest snapshot from the index. Must be
    /// called with the write lock held (so publishes are ordered).
    fn publish_latest(&self, index: &Index) {
        self.latest_cache
            .store(Some(Arc::new(index.latest.clone())));
    }

    /// Registry warm-loaded from every artifact in `dir` (heap mode; see
    /// [`ModelRegistry::warm_load_with`]).
    pub fn warm_load(dir: &Path) -> Result<(Self, usize)> {
        Self::warm_load_with(dir, LoadMode::Heap)
    }

    /// Registry warm-loaded from every `*.model.bin` in `dir` (missing
    /// directory = empty registry, so first boot needs no setup). Returns
    /// the registry and the number of artifacts registered.
    ///
    /// Only the **latest version per name is fully loaded** (with `mode`);
    /// older versions register lazily by header. Legacy `*.model.json`
    /// files (formats v1/v2) are skipped with a stderr warning. An
    /// unreadable or wrong-format artifact is *skipped with a stderr
    /// warning* rather than failing the boot — one bad file (e.g. written
    /// by a newer build before a rollback) must not take every valid model
    /// offline; if the newest version of a name is the bad one, the next
    /// loadable version serves the bare name.
    pub fn warm_load_with(dir: &Path, mode: LoadMode) -> Result<(Self, usize)> {
        let registry = Self::with_load_mode(mode);
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((registry, 0)),
            Err(e) => return Err(ServeError::io(format!("listing {}", dir.display()), e)),
        };
        // Group artifact files by name.
        let mut by_name: HashMap<String, Vec<(u32, PathBuf)>> = HashMap::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| ServeError::io(format!("listing {}", dir.display()), e))?;
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            match split_artifact_stem(file) {
                Some((name, version)) => by_name
                    .entry(name.to_string())
                    .or_default()
                    .push((version, entry.path())),
                None if file.ends_with(".model.json") => eprintln!(
                    "warm-load: skipping {}: {LEGACY_JSON_HINT}",
                    entry.path().display()
                ),
                None => {}
            }
        }
        let mut loaded = 0;
        let mut index = registry.inner.write().expect("registry lock poisoned");
        for (_, mut versions) in by_name {
            versions.sort_by_key(|(version, _)| std::cmp::Reverse(*version));
            let mut have_latest = false;
            for (_, path) in versions {
                if !have_latest {
                    // Newest loadable version: materialize fully.
                    match ModelArtifact::load_with_source(&path, mode) {
                        Ok((artifact, map)) => {
                            if let Some(map) = &map {
                                map.advise(MapAdvice::WillNeed);
                            }
                            index.insert(ReadySlot {
                                artifact: Arc::new(artifact),
                                origin: Some(path),
                                map,
                            });
                            loaded += 1;
                            have_latest = true;
                        }
                        Err(e) => {
                            eprintln!("warm-load: skipping {}: {e}", path.display());
                        }
                    }
                } else {
                    // Older version: header only, payload on first use.
                    match ModelArtifact::load_head(&path) {
                        Ok(head) => {
                            index.insert_lazy(path, head);
                            loaded += 1;
                        }
                        Err(e) => {
                            eprintln!("warm-load: skipping {}: {e}", path.display());
                        }
                    }
                }
            }
        }
        registry.publish_latest(&index);
        drop(index);
        Ok((registry, loaded))
    }

    /// Registers an artifact under its `name@version` key, replacing any
    /// previous artifact at the same key. Returns the key.
    pub fn insert(&self, artifact: ModelArtifact) -> String {
        let key = artifact.key();
        let mut index = self.inner.write().expect("registry lock poisoned");
        let latest_changed = index.insert(ReadySlot {
            artifact: Arc::new(artifact),
            origin: None,
            map: None,
        });
        if latest_changed {
            self.publish_latest(&index);
        }
        key
    }

    /// Records the on-disk file backing an already registered key, making
    /// the slot demotable. Called after a successful persist.
    pub fn record_origin(&self, key: &str, path: &Path) {
        let mut index = self.inner.write().expect("registry lock poisoned");
        if let Some(Slot::Ready(ready)) = index.by_key.get_mut(key) {
            ready.origin = Some(path.to_path_buf());
        }
    }

    /// Resolves `name@version` exactly, or a bare `name` to its latest
    /// version — the latter entirely lock-free (see module docs). A lazy
    /// slot is loaded (with the registry's [`LoadMode`]) and cached on
    /// first resolution.
    pub fn get(&self, key_or_name: &str) -> Result<Arc<ModelArtifact>> {
        // Bare names never contain '@' (keys are always `name@version`), so
        // this is the hot path taken by every unpinned predict.
        if !key_or_name.contains('@') {
            return self
                .latest_cache
                .load()
                .expect("latest snapshot always published")
                .get(key_or_name)
                .map(Arc::clone)
                .ok_or_else(|| ServeError::ModelNotFound(key_or_name.to_string()));
        }
        let lazy = {
            let index = self.inner.read().expect("registry lock poisoned");
            match index.by_key.get(key_or_name) {
                Some(Slot::Ready(r)) => return Ok(Arc::clone(&r.artifact)),
                Some(Slot::Lazy(slot)) => Arc::clone(slot),
                None => {
                    // Not a pinned key: a *name* that itself contains '@'
                    // (never produced by the train path, but `insert`
                    // accepts anything) still resolves to its latest.
                    return index
                        .latest
                        .get(key_or_name)
                        .map(Arc::clone)
                        .ok_or_else(|| ServeError::ModelNotFound(key_or_name.to_string()));
                }
            }
        };
        self.promote(key_or_name, &lazy)
    }

    /// Loads a lazy slot's payload and swaps it in. Runs outside the lock;
    /// a concurrent promotion of the same key is harmless (one result
    /// wins the map, both are valid). The freshly promoted mapping gets a
    /// `WILLNEED` hint: a pinned request is about to touch its weights.
    fn promote(&self, key: &str, slot: &LazySlot) -> Result<Arc<ModelArtifact>> {
        let (artifact, map) = ModelArtifact::load_with_source(&slot.path, self.load_mode)?;
        if let Some(map) = &map {
            map.advise(MapAdvice::WillNeed);
        }
        let artifact = Arc::new(artifact);
        let fresh = {
            let mut index = self.inner.write().expect("registry lock poisoned");
            match index.by_key.get(key) {
                // Raced with another promotion: keep the incumbent.
                Some(Slot::Ready(r)) => return Ok(Arc::clone(&r.artifact)),
                _ => {
                    index.by_key.insert(
                        key.to_string(),
                        Slot::Ready(ReadySlot {
                            artifact: Arc::clone(&artifact),
                            origin: Some(slot.path.clone()),
                            map,
                        }),
                    );
                    artifact
                }
            }
        };
        // Only the promotion that actually landed is audited, and only
        // after the write lock dropped (the observer may re-enter).
        self.observer.notify(RegistryNote::Promoted, key);
        Ok(fresh)
    }

    /// Returns a promoted (resident) **non-latest** version to its lazy
    /// header-only slot, releasing the model payload. The inverse of the
    /// on-demand promotion in [`ModelRegistry::get`]: a burst of pinned
    /// traffic against an old version must not keep it resident forever.
    ///
    /// The latest version of a name cannot be demoted (it serves bare-name
    /// traffic), and a slot that was never persisted has nothing to reload
    /// from. Demoting an already lazy slot is a no-op. In-flight requests
    /// holding the artifact's `Arc` are unaffected; the payload memory is
    /// freed when the last of them finishes, and mmap-backed pages get a
    /// `DONTNEED` hint immediately.
    pub fn demote(&self, key: &str) -> Result<ModelSummary> {
        let summary = {
            let mut index = self.inner.write().expect("registry lock poisoned");
            let slot = index
                .by_key
                .get(key)
                .ok_or_else(|| ServeError::ModelNotFound(key.to_string()))?;
            let ready = match slot {
                // Already lazy: idempotent no-op, nothing to audit.
                Slot::Lazy(l) => return Ok(summarize_head(&l.head, false, 0)),
                Slot::Ready(r) => r.clone(),
            };
            if index
                .latest
                .get(&ready.artifact.name)
                .is_some_and(|latest| latest.version == ready.artifact.version)
            {
                return Err(ServeError::BadRequest(format!(
                    "cannot demote `{key}`: it is the latest version of `{}` and serves \
                     bare-name traffic",
                    ready.artifact.name
                )));
            }
            let Some(path) = ready.origin else {
                return Err(ServeError::BadRequest(format!(
                    "cannot demote `{key}`: no backing artifact file recorded for it"
                )));
            };
            if let Some(map) = &ready.map {
                map.advise(MapAdvice::DontNeed);
            }
            let head = ready.artifact.head();
            let summary = summarize_head(&head, false, 0);
            index.by_key.insert(
                key.to_string(),
                Slot::Lazy(Arc::new(LazySlot { path, head })),
            );
            summary
        };
        // Real Ready → Lazy transition: audit it with the lock released.
        self.observer.notify(RegistryNote::Demoted, key);
        Ok(summary)
    }

    /// Next free version for a name (1 when unused). Advisory only: for a
    /// race-free allocate-persist-register sequence use
    /// [`ModelRegistry::register_next_version`].
    pub fn next_version(&self, name: &str) -> u32 {
        let index = self.inner.read().expect("registry lock poisoned");
        next_version_in(&index, name)
    }

    /// Atomically assigns the next version under `artifact.name` and
    /// registers it, then runs `persist` on the finalized artifact
    /// *outside* the lock — concurrent trains for the same name can
    /// neither collide on a version nor overwrite each other's files, and
    /// predict traffic never blocks on artifact serialization or disk I/O.
    /// If `persist` fails the registration is rolled back and the registry
    /// is left unchanged (a concurrent reader may have briefly resolved
    /// the in-memory model, which is harmless: it was fully trained).
    /// `min_version` is a floor on the assigned version (pass
    /// `ModelArtifact::max_version_on_disk(dir, name) + 1` to respect
    /// artifacts on disk that were never warm-loaded into this registry).
    pub fn register_next_version<T>(
        &self,
        mut artifact: ModelArtifact,
        min_version: u32,
        persist: impl FnOnce(&ModelArtifact) -> Result<T>,
    ) -> Result<(String, T)> {
        let key = {
            let mut index = self.inner.write().expect("registry lock poisoned");
            artifact.version = next_version_in(&index, &artifact.name).max(min_version.max(1));
            let key = artifact.key();
            let latest_changed = index.insert(ReadySlot {
                artifact: Arc::new(artifact),
                origin: None,
                map: None,
            });
            if latest_changed {
                self.publish_latest(&index);
            }
            key
        };
        let registered = self.get(&key).expect("just inserted");
        match persist(&registered) {
            Ok(persisted) => Ok((key, persisted)),
            Err(e) => {
                let mut index = self.inner.write().expect("registry lock poisoned");
                if index.remove(&key) {
                    self.publish_latest(&index);
                }
                Err(e)
            }
        }
    }

    /// Atomically assigns the next free version under `artifact.name` and
    /// registers it as a **held candidate**: resolvable by its pinned
    /// `name@version` key (the rollout plane's shadow and canary lanes pin
    /// it) but invisible to bare-name traffic — the latest pointer and its
    /// lock-free snapshot are not touched. [`ModelRegistry::adopt`] cuts
    /// the name over once live guardrails clear. `persist` runs outside
    /// the lock exactly as in [`ModelRegistry::register_next_version`],
    /// with the same rollback when it fails.
    pub fn register_candidate<T>(
        &self,
        mut artifact: ModelArtifact,
        min_version: u32,
        persist: impl FnOnce(&ModelArtifact) -> Result<T>,
    ) -> Result<(String, T)> {
        let key = {
            let mut index = self.inner.write().expect("registry lock poisoned");
            let mut version = next_version_in(&index, &artifact.name).max(min_version.max(1));
            // Held candidates are invisible to the latest pointer that
            // `next_version_in` consults, so probe `by_key` until the slot
            // is genuinely free (two candidates must not collide).
            while index
                .by_key
                .contains_key(&format!("{}@{}", artifact.name, version))
            {
                version += 1;
            }
            artifact.version = version;
            let key = artifact.key();
            index.by_key.insert(
                key.clone(),
                Slot::Ready(ReadySlot {
                    artifact: Arc::new(artifact),
                    origin: None,
                    map: None,
                }),
            );
            key
        };
        let registered = self.get(&key).expect("just inserted");
        match persist(&registered) {
            Ok(persisted) => Ok((key, persisted)),
            Err(e) => {
                let mut index = self.inner.write().expect("registry lock poisoned");
                if index.remove(&key) {
                    self.publish_latest(&index);
                }
                Err(e)
            }
        }
    }

    /// Makes a held candidate (see [`ModelRegistry::register_candidate`])
    /// the latest version for its name, cutting bare-name traffic over to
    /// it. The candidate must be resident. Fires [`RegistryNote::Adopted`]
    /// after the locks drop.
    pub fn adopt(&self, key: &str) -> Result<ModelSummary> {
        let summary = {
            let mut index = self.inner.write().expect("registry lock poisoned");
            let artifact = match index.by_key.get(key) {
                Some(Slot::Ready(r)) => Arc::clone(&r.artifact),
                Some(Slot::Lazy(_)) => {
                    return Err(ServeError::BadRequest(format!(
                        "cannot adopt `{key}`: candidate is not resident"
                    )))
                }
                None => return Err(ServeError::ModelNotFound(key.to_string())),
            };
            let summary = summarize_head(&artifact.head(), true, artifact.model.weight_bytes());
            index.latest.insert(artifact.name.clone(), artifact);
            self.publish_latest(&index);
            summary
        };
        self.observer.notify(RegistryNote::Adopted, key);
        Ok(summary)
    }

    /// The inverse repair: if `key` is currently the latest for its name —
    /// e.g. a candidate artifact that warm-load materialized as newest
    /// after a restart mid-rollout — repoint the bare name at the highest
    /// *other* registered version, materializing it first when it is a
    /// lazy slot. Afterwards `key` serves only pinned traffic again. A key
    /// that is not latest is left untouched.
    pub fn hold(&self, key: &str) -> Result<()> {
        let (name, version, fallback) = {
            let index = self.inner.read().expect("registry lock poisoned");
            let (name, version) = match index.by_key.get(key) {
                Some(Slot::Ready(r)) => (r.artifact.name.clone(), r.artifact.version),
                Some(Slot::Lazy(l)) => (l.head.name.clone(), l.head.version),
                None => return Err(ServeError::ModelNotFound(key.to_string())),
            };
            if index
                .latest
                .get(&name)
                .is_none_or(|cur| cur.version != version)
            {
                return Ok(()); // already held
            }
            let fallback = index
                .by_key
                .values()
                .filter_map(|s| match s {
                    Slot::Ready(r) if r.artifact.name == name => Some(r.artifact.version),
                    Slot::Lazy(l) if l.head.name == name => Some(l.head.version),
                    _ => None,
                })
                .filter(|v| *v != version)
                .max();
            (name, version, fallback)
        };
        // Materialize the replacement outside the lock (it may be lazy and
        // need a disk load).
        let replacement = match fallback {
            Some(v) => Some(self.get(&format!("{name}@{v}"))?),
            None => None,
        };
        let mut index = self.inner.write().expect("registry lock poisoned");
        // Re-check under the write lock: a concurrent registration may
        // have moved the latest pointer while the replacement loaded.
        if index
            .latest
            .get(&name)
            .is_none_or(|cur| cur.version != version)
        {
            return Ok(());
        }
        match replacement {
            Some(artifact) => {
                index.latest.insert(name, artifact);
            }
            None => {
                index.latest.remove(&name);
            }
        }
        self.publish_latest(&index);
        Ok(())
    }

    /// All registered models, sorted by key for stable output. Lazy slots
    /// report from their header without loading payloads.
    pub fn list(&self) -> Vec<ModelSummary> {
        let index = self.inner.read().expect("registry lock poisoned");
        let mut out: Vec<ModelSummary> = index
            .by_key
            .values()
            .map(|slot| match slot {
                Slot::Ready(r) => {
                    summarize_head(&r.artifact.head(), true, r.artifact.model.weight_bytes())
                }
                Slot::Lazy(l) => summarize_head(&l.head, false, 0),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Number of registered artifacts (resident + lazy).
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("registry lock poisoned")
            .by_key
            .len()
    }

    /// Number of artifacts whose payload is resident in memory.
    pub fn resident_count(&self) -> usize {
        self.inner
            .read()
            .expect("registry lock poisoned")
            .by_key
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::toy_artifact;

    #[test]
    fn name_resolves_to_latest_version() {
        let reg = ModelRegistry::new();
        reg.insert(toy_artifact("m", 1));
        reg.insert(toy_artifact("m", 3));
        reg.insert(toy_artifact("m", 2));
        reg.insert(toy_artifact("other", 9));
        assert_eq!(reg.get("m").unwrap().version, 3);
        assert_eq!(reg.get("m@2").unwrap().version, 2);
        assert!(reg.get("m@4").is_err());
        assert!(reg.get("ghost").is_err());
        assert_eq!(reg.next_version("m"), 4);
        assert_eq!(reg.next_version("fresh"), 1);
    }

    /// The tentpole property: a bare-name lookup never touches the
    /// registry lock. Holding the *write* lock (which would block any
    /// locked read path forever) must not stop `get("name")`.
    #[test]
    fn bare_name_lookup_succeeds_while_write_lock_is_held() {
        let reg = Arc::new(ModelRegistry::new());
        reg.insert(toy_artifact("hot", 2));
        let guard = reg.inner.write().expect("write lock");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let got = reg.get("hot").map(|a| a.version);
                let missing = reg.get("ghost").is_err();
                tx.send((got, missing)).unwrap();
            })
        };
        let (got, missing) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("bare-name get must not block on the registry lock");
        assert_eq!(got.unwrap(), 2);
        assert!(missing, "unknown names resolve lock-free too");
        drop(guard);
        reader.join().unwrap();
    }

    /// Readers hammer the lock-free path while versions are hot-swapped:
    /// every resolved version is valid and per-thread monotone (the
    /// snapshot never goes backwards).
    #[test]
    fn contended_bare_name_reads_are_monotone_under_hot_swap() {
        let reg = Arc::new(ModelRegistry::new());
        reg.insert(toy_artifact("hot", 1));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..2000 {
                        let v = reg.get("hot").unwrap().version;
                        assert!(v >= last, "latest went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            let reg = Arc::clone(&reg);
            scope.spawn(move || {
                for v in 2..60 {
                    reg.insert(toy_artifact("hot", v));
                }
            });
        });
        assert_eq!(reg.get("hot").unwrap().version, 59);
    }

    #[test]
    fn list_is_sorted_and_summarized() {
        let reg = ModelRegistry::new();
        reg.insert(toy_artifact("b", 1));
        reg.insert(toy_artifact("a", 1));
        let rows = reg.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "a@1");
        assert_eq!(rows[0].family, "majority");
        assert_eq!(rows[0].encoding, "f32");
        assert_eq!(rows[0].config, "NoJoin");
        assert_eq!(rows[0].n_features, 2);
        assert!(rows[0].resident);
        assert_eq!(rows[0].resident_bytes, 0, "majority has no weight arrays");
    }

    #[test]
    fn warm_load_roundtrips_a_directory() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("w", 1).save(&dir).unwrap();
        toy_artifact("w", 2).save(&dir).unwrap();
        // Non-artifact files are ignored.
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 2);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("w").unwrap().version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_lazily_registers_non_latest_versions() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-lazy-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("l", 1).save(&dir).unwrap();
        toy_artifact("l", 2).save(&dir).unwrap();
        toy_artifact("l", 3).save(&dir).unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 3);
        assert_eq!(
            reg.resident_count(),
            1,
            "only the latest version is resident after boot"
        );
        // The listing still reports every version, marking residency.
        let rows = reg.list();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|r| r.resident).count(), 1, "{rows:?}");
        // Bare name → resident latest; pinned old version loads on demand.
        assert_eq!(reg.get("l").unwrap().version, 3);
        assert_eq!(reg.get("l@2").unwrap().version, 2);
        assert_eq!(reg.get("l@1").unwrap().version, 1);
        assert_eq!(reg.resident_count(), 3, "promotions cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The demotion round-trip: promote a lazy old version by pinned get,
    /// demote it back, promote again — identical artifacts at every stage,
    /// and residency counts track the transitions.
    #[test]
    fn demote_returns_promoted_versions_to_lazy_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-dem-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("d", 1).save(&dir).unwrap();
        toy_artifact("d", 2).save(&dir).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let (reg, _) = ModelRegistry::warm_load_with(&dir, mode).unwrap();
            assert_eq!(reg.resident_count(), 1);
            // Promote d@1 via pinned get.
            let first = reg.get("d@1").unwrap();
            assert_eq!(reg.resident_count(), 2, "{mode:?}");
            // Demote it back to lazy.
            let summary = reg.demote("d@1").unwrap();
            assert!(!summary.resident);
            assert_eq!(summary.key, "d@1");
            assert_eq!(reg.resident_count(), 1, "{mode:?}: payload released");
            assert!(
                !reg.list().iter().find(|m| m.key == "d@1").unwrap().resident,
                "{mode:?}"
            );
            // The Arc held by an in-flight request is unaffected.
            assert_eq!(first.version, 1);
            // Demoting again is an idempotent no-op.
            assert!(!reg.demote("d@1").unwrap().resident);
            // And a pinned get promotes it right back, bit-identical.
            let again = reg.get("d@1").unwrap();
            assert_eq!(again.model, first.model);
            assert_eq!(reg.resident_count(), 2, "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demote_refuses_latest_unknown_and_unpersisted() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-demref-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("d", 1).save(&dir).unwrap();
        toy_artifact("d", 2).save(&dir).unwrap();
        let (reg, _) = ModelRegistry::warm_load(&dir).unwrap();
        // The latest serves bare names and cannot be demoted.
        let err = reg.demote("d@2").unwrap_err().to_string();
        assert!(err.contains("latest"), "{err}");
        assert!(reg.demote("ghost@1").is_err());
        // An insert that never touched disk has nothing to reload from.
        reg.insert(toy_artifact("mem", 1));
        reg.insert(toy_artifact("mem", 2));
        let err = reg.demote("mem@1").unwrap_err().to_string();
        assert!(err.contains("no backing artifact file"), "{err}");
        // Unless an origin is recorded (what train_and_register does).
        let path = toy_artifact("mem", 1).save(&dir).unwrap();
        reg.record_origin("mem@1", &path);
        assert!(!reg.demote("mem@1").unwrap().resident);
        assert_eq!(reg.get("mem@1").unwrap().version, 1, "promotes back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_prefers_binary_over_json_for_same_version() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-pref-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("p", 1).save(&dir).unwrap();
        // Legacy JSON files beside it, of the same and of a newer version,
        // are not artifacts: they are skipped.
        std::fs::write(dir.join("p@1.model.json"), r#"{"format_version":2}"#).unwrap();
        std::fs::write(dir.join("p@2.model.json"), r#"{"format_version":2}"#).unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 1, "only the binary artifact registers");
        assert_eq!(reg.get("p").unwrap().version, 1);
        assert!(reg.get("p@2").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_skips_bad_artifacts_instead_of_failing_boot() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-bad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("good", 1).save(&dir).unwrap();
        // A corrupt artifact and a future-format artifact sit alongside it.
        std::fs::write(dir.join("corrupt@1.model.bin"), "not a container").unwrap();
        let mut future = toy_artifact("future", 1);
        future.format_version = crate::artifact::FORMAT_VERSION + 1;
        future.save(&dir).unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 1, "only the valid artifact loads");
        assert!(reg.get("good").is_ok());
        assert!(reg.get("future").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-save leaves at most a partial `.tmp` (never a torn
    /// final file — data is fsynced before the rename). Boot must ignore
    /// the leftover temp, and even a truncated *final* file (pre-fsync
    /// artifact, or bit rot) only costs that one version.
    #[test]
    fn warm_load_survives_truncated_partial_writes() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("torn", 1).save(&dir).unwrap();
        let v2_path = toy_artifact("torn", 2).save(&dir).unwrap();
        let bytes = std::fs::read(&v2_path).unwrap();
        std::fs::write(&v2_path, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(dir.join(".torn@3.model.bin.tmp"), &bytes[..bytes.len() / 3]).unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 1, "the truncated v2 is skipped, not fatal");
        assert_eq!(
            reg.get("torn").unwrap().version,
            1,
            "bare name falls back to the intact prior version"
        );
        assert!(reg.get("torn@3").is_err(), "temp files never register");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_load_falls_back_when_newest_version_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-fb-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("f", 1).save(&dir).unwrap();
        std::fs::write(dir.join("f@2.model.bin"), "HMLAgarbage").unwrap();
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(
            reg.get("f").unwrap().version,
            1,
            "bare name served by the next loadable version"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_next_version_respects_disk_floor() {
        let reg = ModelRegistry::new();
        let (key, ()) = reg
            .register_next_version(toy_artifact("floored", 0), 7, |_| Ok(()))
            .unwrap();
        assert_eq!(key, "floored@7", "cold registry honours the on-disk floor");
        let (key, ()) = reg
            .register_next_version(toy_artifact("floored", 0), 3, |_| Ok(()))
            .unwrap();
        assert_eq!(key, "floored@8", "in-memory max wins when higher");
    }

    #[test]
    fn warm_load_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("hamlet-reg-definitely-missing");
        let (reg, loaded) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(loaded, 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn register_next_version_is_race_free() {
        let dir = std::env::temp_dir().join(format!("hamlet-regver-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = Arc::new(ModelRegistry::new());
        let keys: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let dir = dir.clone();
                    scope.spawn(move || {
                        let (key, _path) = reg
                            .register_next_version(toy_artifact("raced", 0), 0, |a| a.save(&dir))
                            .unwrap();
                        key
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All eight trains got distinct versions and none was lost.
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "duplicate versions handed out: {keys:?}");
        assert_eq!(reg.len(), 8);
        assert_eq!(reg.get("raced").unwrap().version, 8);
        let (reloaded, n) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(n, 8, "an artifact file was overwritten");
        assert_eq!(reloaded.get("raced").unwrap().version, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_next_version_persist_failure_leaves_registry_unchanged() {
        let reg = ModelRegistry::new();
        let err = reg.register_next_version(toy_artifact("failing", 0), 0, |_| {
            Err::<(), _>(crate::error::ServeError::Json("disk exploded".into()))
        });
        assert!(err.is_err());
        assert!(reg.is_empty());
        assert!(reg.get("failing").is_err(), "snapshot rolled back too");
    }

    #[test]
    fn rollback_repairs_the_latest_pointer() {
        let reg = ModelRegistry::new();
        reg.register_next_version(toy_artifact("m", 0), 0, |_| Ok(()))
            .unwrap();
        assert_eq!(reg.get("m").unwrap().version, 1);
        // A failed v2 must not leave the bare name dangling or stale.
        let _ = reg.register_next_version(toy_artifact("m", 0), 0, |_| {
            Err::<(), _>(crate::error::ServeError::Json("boom".into()))
        });
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("m").unwrap().version, 1, "latest repaired to v1");
        // And the next successful train still gets v2.
        let (key, ()) = reg
            .register_next_version(toy_artifact("m", 0), 0, |_| Ok(()))
            .unwrap();
        assert_eq!(key, "m@2");
        assert_eq!(reg.get("m").unwrap().version, 2);
    }

    #[test]
    fn concurrent_reads_and_hot_swap() {
        let reg = Arc::new(ModelRegistry::new());
        reg.insert(toy_artifact("hot", 1));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let a = reg.get("hot").unwrap();
                        assert!(a.version >= 1);
                    }
                })
            })
            .collect();
        for v in 2..10 {
            reg.insert(toy_artifact("hot", v));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(reg.get("hot").unwrap().version, 9);
    }

    #[test]
    fn concurrent_lazy_promotions_converge() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-promo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("pr", 1).save(&dir).unwrap();
        toy_artifact("pr", 2).save(&dir).unwrap();
        let (reg, _) = ModelRegistry::warm_load(&dir).unwrap();
        let reg = Arc::new(reg);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(reg.get("pr@1").unwrap().version, 1);
                    }
                });
            }
        });
        assert_eq!(reg.resident_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn candidates_are_invisible_until_adopted() {
        let reg = ModelRegistry::new();
        reg.insert(toy_artifact("c", 1));
        let (key, ()) = reg
            .register_candidate(toy_artifact("c", 0), 0, |_| Ok(()))
            .unwrap();
        assert_eq!(key, "c@2", "candidate gets the next free version");
        assert_eq!(reg.get("c").unwrap().version, 1, "bare name stays on v1");
        assert_eq!(reg.get("c@2").unwrap().version, 2, "pinned key resolves");
        // A second candidate does not collide with the held one.
        let (key2, ()) = reg
            .register_candidate(toy_artifact("c", 0), 0, |_| Ok(()))
            .unwrap();
        assert_eq!(key2, "c@3");
        // Adoption cuts the bare name over.
        let summary = reg.adopt(&key).unwrap();
        assert_eq!(summary.key, "c@2");
        assert_eq!(reg.get("c").unwrap().version, 2);
        assert!(reg.adopt("ghost@9").is_err());
    }

    #[test]
    fn candidate_persist_failure_rolls_back() {
        let reg = ModelRegistry::new();
        reg.insert(toy_artifact("c", 1));
        let err = reg.register_candidate(toy_artifact("c", 0), 0, |_| {
            Err::<(), _>(crate::error::ServeError::Json("disk exploded".into()))
        });
        assert!(err.is_err());
        assert_eq!(reg.len(), 1);
        assert!(reg.get("c@2").is_err(), "failed candidate removed");
        assert_eq!(reg.get("c").unwrap().version, 1);
    }

    #[test]
    fn hold_repoints_bare_name_at_prior_version() {
        let dir = std::env::temp_dir().join(format!("hamlet-reg-hold-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        toy_artifact("h", 1).save(&dir).unwrap();
        toy_artifact("h", 2).save(&dir).unwrap();
        // Warm load makes h@2 the resident latest and h@1 lazy — the state
        // a restart mid-rollout leaves when the candidate file is newest.
        let (reg, _) = ModelRegistry::warm_load(&dir).unwrap();
        assert_eq!(reg.get("h").unwrap().version, 2);
        reg.hold("h@2").unwrap();
        assert_eq!(
            reg.get("h").unwrap().version,
            1,
            "bare name restored to the incumbent (lazy slot materialized)"
        );
        assert_eq!(reg.get("h@2").unwrap().version, 2, "candidate still pinned");
        // Holding a non-latest key is a no-op.
        reg.hold("h@2").unwrap();
        assert_eq!(reg.get("h").unwrap().version, 1);
        // Holding the only version removes the bare name entirely.
        let solo = ModelRegistry::new();
        solo.insert(toy_artifact("only", 1));
        solo.hold("only@1").unwrap();
        assert!(solo.get("only").is_err());
        assert_eq!(solo.get("only@1").unwrap().version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
