//! Seeded workloads: the models each one trains and the request bodies it
//! sends. The same seed gives the same models and the same bodies.

use hamlet_core::feature_config::FeatureConfig;
use hamlet_core::model_zoo::ModelSpec;
use hamlet_ml::contract::FeatureContract;
use hamlet_ml::dataset::CatDataset;
use hamlet_serve::api::TrainRequest;

/// Emulated dataset every workload trains on (the paper's Movies star:
/// 2 FKs, 25 foreign features, so 27 features under JoinAll and 2 under
/// NoJoin).
pub const DATASET: &str = "movies";
/// Total labelled examples the emulator generates.
pub const SCALE: usize = 4000;

/// splitmix64: a small, fully specified generator, so bodies depend on the
/// seed alone and never on a library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1–8-row raw-label bodies against a JoinAll tree: ingest, the network
    /// plane and coalescing dominate.
    SmallRaw,
    /// 64-row coded bodies against the paper-shaped ANN: the `ml` kernels
    /// dominate.
    MlpBatch,
    /// The Figure-1 study (4 models × JoinAll/NoJoin), then 64-row coded
    /// bodies against the study's NoJoin ANN.
    Study,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SmallRaw, Workload::MlpBatch, Workload::Study];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallRaw => "small_raw",
            Workload::MlpBatch => "mlp_batch",
            Workload::Study => "study",
        }
    }

    /// The models this workload trains, in training order.
    pub fn plans(self) -> Vec<Plan> {
        let plan = |name: &str, spec, config| Plan {
            name: name.to_string(),
            spec,
            config,
        };
        match self {
            Workload::SmallRaw => vec![plan(
                "movies-tree",
                ModelSpec::TreeGini,
                FeatureConfig::JoinAll,
            )],
            Workload::MlpBatch => vec![plan("movies-ann", ModelSpec::Ann, FeatureConfig::JoinAll)],
            Workload::Study => {
                let specs = [
                    ("tree", ModelSpec::TreeGini),
                    ("svm", ModelSpec::SvmRbf),
                    ("ann", ModelSpec::Ann),
                    ("logreg", ModelSpec::LogRegL1),
                ];
                let configs = [
                    ("joinall", FeatureConfig::JoinAll),
                    ("nojoin", FeatureConfig::NoJoin),
                ];
                specs
                    .iter()
                    .flat_map(|(s, spec)| {
                        configs.iter().map(move |(c, config)| {
                            plan(&format!("study-{s}-{c}"), *spec, config.clone())
                        })
                    })
                    .collect()
            }
        }
    }

    /// Trainings after the first (which makes the fixture), spread evenly
    /// over the load rounds; `study_s` is the mean over all of them. A
    /// tree fit takes tens of milliseconds, so `small_raw` needs many
    /// samples; spreading them over the run averages the host's speed
    /// swings instead of catching one.
    pub fn retrains(self) -> usize {
        match self {
            Workload::SmallRaw => 24,
            Workload::MlpBatch => 2,
            Workload::Study => 1,
        }
    }

    /// Open-loop rate in requests per second over all generator threads:
    /// about a quarter of the closed-loop rate this workload reaches at the
    /// seed on a 2-vCPU host. At half that rate both vCPUs stay busy and
    /// the hypervisor's 8 ms time slices, not the server, set the p99.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::SmallRaw => 3000.0,
            Workload::MlpBatch => 400.0,
            Workload::Study => 800.0,
        }
    }

    /// Whether the traffic goes to model `name`. The study serves its
    /// NoJoin ANN, the model the paper's verdict deploys: traffic spread
    /// over all 8 models mixes 5 µs and 600 µs requests, whose median does
    /// not hold still, and the cost of an SVM or a tree depends on the data
    /// the seed generates, while the ANN's shape is fixed.
    pub fn serves(self, name: &str) -> bool {
        self != Workload::Study || name == "study-ann-nojoin"
    }

    /// Whether bodies carry raw label strings (`rows_raw`) or codes.
    pub fn raw(self) -> bool {
        self == Workload::SmallRaw
    }

    fn rows_per_body(self, rng: &mut Rng) -> usize {
        match self {
            Workload::SmallRaw => 1 + rng.below(8),
            Workload::MlpBatch | Workload::Study => 64,
        }
    }

    /// Distinct bodies the generator cycles through.
    fn pool(self) -> usize {
        match self {
            Workload::SmallRaw => 512,
            Workload::MlpBatch | Workload::Study => 128,
        }
    }
}

/// One model a workload trains.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: String,
    pub spec: ModelSpec,
    pub config: FeatureConfig,
}

impl Plan {
    /// The train request for this model: paper grids on the emulator at
    /// [`SCALE`], generated from `seed`.
    pub fn request(&self, seed: u64) -> TrainRequest {
        TrainRequest {
            name: self.name.clone(),
            dataset: DATASET.into(),
            spec: self.spec,
            config: Some(self.config.clone()),
            scale: Some(SCALE),
            seed: Some(seed),
            full_budget: Some(true),
        }
    }
}

/// A model bodies are addressed to, with the rows they may draw from.
pub struct Target<'a> {
    pub name: &'a str,
    pub contract: &'a FeatureContract,
    pub rows: &'a CatDataset,
}

/// One `/v1/predict` body.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// Index of the target model.
    pub target: usize,
    /// The rows as codes (what the oracle predicts on).
    pub rows: Vec<Vec<u32>>,
    /// The JSON body sent.
    pub json: String,
}

/// Generates the workload's body pool from `seed`: each body goes to one
/// of the targets the workload serves, with rows drawn from that target's
/// rows; raw workloads send them as label strings decoded through the
/// contract.
pub fn bodies(w: Workload, seed: u64, targets: &[Target]) -> Result<Vec<Body>, String> {
    let served: Vec<usize> = (0..targets.len())
        .filter(|&i| w.serves(targets[i].name))
        .collect();
    if served.is_empty() || served.iter().any(|&i| targets[i].rows.n_rows() == 0) {
        return Err("the workload's targets need rows to draw bodies from".into());
    }
    let mut rng = Rng::new(seed);
    (0..w.pool())
        .map(|_| {
            let target = served[rng.below(served.len())];
            let t = &targets[target];
            let n = w.rows_per_body(&mut rng);
            let rows: Vec<Vec<u32>> = (0..n)
                .map(|_| t.rows.row(rng.below(t.rows.n_rows())).to_vec())
                .collect();
            let model = serde_json::to_string(t.name).map_err(|e| e.to_string())?;
            let json = if w.raw() {
                let raw = rows
                    .iter()
                    .map(|r| t.contract.decode_row(r))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let raw = serde_json::to_string(&raw).map_err(|e| e.to_string())?;
                format!("{{\"model\":{model},\"rows_raw\":{raw}}}")
            } else {
                let coded = serde_json::to_string(&rows).map_err(|e| e.to_string())?;
                format!("{{\"model\":{model},\"rows\":{coded}}}")
            };
            Ok(Body { target, rows, json })
        })
        .collect()
}
