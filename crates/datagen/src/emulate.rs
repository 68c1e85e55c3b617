//! Synthetic emulators for the paper's seven real-world datasets (Table 1).
//!
//! The original data (Kaggle, GroupLens, last.fm, openflights, BookCrossing)
//! is not redistributable, so each dataset is replaced by a generator that
//! preserves everything the paper identifies as behaviourally relevant:
//!
//! - the star-schema *shape*: `q`, `d_S`, per-dimension `d_R`;
//! - every **tuple ratio** `n_S / n_R` (the paper's decision quantity),
//!   via a common scale factor on `n_S` and all `n_R`;
//! - open-domain FKs (Expedia's search table can never be discarded);
//! - a planted label distribution mixing *foreign-feature signal* (what
//!   JoinAll sees directly and NoJoin must recover through the FK),
//!   *per-FK idiosyncratic effects* (what NoFK loses), *home-feature
//!   signal*, and Bayes noise.
//!
//! The per-dimension signal weights are chosen so the qualitative Table 2/3
//! outcomes reproduce: dimensions with healthy tuple ratios are safe to
//! avoid; Yelp's users dimension (ratio 2.5) carries strong signal and
//! *hurts* when avoided; Books' low-ratio dimension carries little signal
//! and stays safe (the paper's "tuple ratio is conservative" remark).

use rand::Rng;
use rand::SeedableRng;

use crate::sim::{assemble_star, DimColumns, FactColumns, GeneratedStar};
use crate::skew::{FkSkew, SkewSampler};

/// Shape and planted-signal description of one dimension table.
#[derive(Debug, Clone)]
pub struct DimSpec {
    /// Dimension name (mirrors the paper's description).
    pub name: &'static str,
    /// Full-scale `n_R` from Table 1.
    pub n_r_full: usize,
    /// Foreign-feature count `d_R` from Table 1.
    pub d_r: usize,
    /// Weight of this dimension's foreign features in the label score.
    pub signal: f64,
    /// Weight of the per-FK idiosyncratic effect (signal carried by the FK
    /// itself, invisible to `X_R` — what NoFK forfeits).
    pub fk_effect: f64,
    /// Open-domain FK (Table 1's "N/A" rows).
    pub open_domain: bool,
    /// X_R profile pooling divisor: `> 0` draws each dimension row's feature
    /// tuple from a pool of `max(2, n_R / div)` distinct profiles, so many
    /// FKs share one X_R profile and `X_R` cannot identify the FK. This is
    /// what makes a per-FK effect genuinely invisible to NoFK (with fully
    /// i.i.d. features, every dimension row is unique and X_R leaks the
    /// key). `0` = independent features per row.
    pub profile_pool_div: u32,
}

/// Shape and signal description of one emulated dataset.
#[derive(Debug, Clone)]
pub struct EmulatorSpec {
    /// Dataset name as in Table 1.
    pub name: &'static str,
    /// Full-scale `n_S` from Table 1 (total labelled examples).
    pub n_s_full: usize,
    /// Home-feature count `d_S` from Table 1.
    pub d_s: usize,
    /// Weight of home features in the label score.
    pub home_signal: f64,
    /// Logistic sharpness (inverse Bayes noise).
    pub beta: f64,
    /// Dimensions in Table 1 order.
    pub dims: Vec<DimSpec>,
}

/// Default emulation size: total labelled examples generated when callers do
/// not override the target (the 50 % train split then has 6 000 rows).
pub const DEFAULT_TARGET_N_S: usize = 12_000;

/// The fewest fact rows [`EmulatorSpec::generate_scaled`] generates.
pub const MIN_N_S: usize = 64;

/// The fewest rows [`EmulatorSpec::generate_scaled`] gives a dimension.
pub const MIN_N_R: usize = 2;

impl EmulatorSpec {
    /// Expedia: hotel-ranking; hotels dimension + open-domain search events.
    pub fn expedia() -> Self {
        Self {
            name: "Expedia",
            n_s_full: 942_142,
            d_s: 1,
            home_signal: 0.4,
            beta: 6.0,
            dims: vec![
                DimSpec {
                    name: "hotels",
                    n_r_full: 11_939,
                    d_r: 8,
                    signal: 0.7,
                    fk_effect: 0.3,
                    open_domain: false,
                    profile_pool_div: 6,
                },
                DimSpec {
                    name: "searches",
                    n_r_full: 37_021,
                    d_r: 14,
                    signal: 0.6,
                    fk_effect: 0.0,
                    open_domain: true,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// MovieLens: rating prediction; users and movies dimensions.
    pub fn movies() -> Self {
        Self {
            name: "Movies",
            n_s_full: 1_000_209,
            d_s: 0,
            home_signal: 0.0,
            beta: 6.0,
            dims: vec![
                DimSpec {
                    name: "users",
                    n_r_full: 6_040,
                    d_r: 4,
                    signal: 0.6,
                    fk_effect: 0.3,
                    open_domain: false,
                    profile_pool_div: 4,
                },
                DimSpec {
                    name: "movies",
                    n_r_full: 3_706,
                    d_r: 21,
                    signal: 0.7,
                    fk_effect: 0.3,
                    open_domain: false,
                    profile_pool_div: 4,
                },
            ],
        }
    }

    /// Yelp: business-rating prediction; the users dimension has the
    /// paper's lowest tuple ratio (2.5) *and* strong signal — the one case
    /// where NoJoin visibly hurts.
    pub fn yelp() -> Self {
        Self {
            name: "Yelp",
            n_s_full: 215_879,
            d_s: 0,
            home_signal: 0.0,
            beta: 7.0,
            dims: vec![
                DimSpec {
                    name: "businesses",
                    n_r_full: 11_535,
                    d_r: 32,
                    signal: 0.7,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
                DimSpec {
                    name: "users",
                    n_r_full: 43_873,
                    d_r: 6,
                    signal: 0.6,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// Walmart: department-sales prediction; stores + indicators dimensions.
    pub fn walmart() -> Self {
        Self {
            name: "Walmart",
            n_s_full: 421_570,
            d_s: 1,
            home_signal: 0.5,
            beta: 8.0,
            dims: vec![
                DimSpec {
                    name: "indicators",
                    n_r_full: 2_340,
                    d_r: 9,
                    signal: 0.8,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
                DimSpec {
                    name: "stores",
                    n_r_full: 45,
                    d_r: 2,
                    signal: 0.5,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// LastFM: play-count prediction; users + artists dimensions.
    pub fn lastfm() -> Self {
        Self {
            name: "LastFM",
            n_s_full: 343_747,
            d_s: 0,
            home_signal: 0.0,
            beta: 6.0,
            dims: vec![
                DimSpec {
                    name: "users",
                    n_r_full: 4_099,
                    d_r: 7,
                    signal: 0.6,
                    fk_effect: 0.6,
                    open_domain: false,
                    profile_pool_div: 10,
                },
                DimSpec {
                    name: "artists",
                    n_r_full: 50_000,
                    d_r: 4,
                    signal: 0.2,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// BookCrossing: book-rating prediction; readers + books dimensions.
    /// Both tuple ratios are low, but the planted signal is weak — the
    /// "conservative indicator" case (avoiding stays safe).
    pub fn books() -> Self {
        Self {
            name: "Books",
            n_s_full: 253_120,
            d_s: 0,
            home_signal: 0.0,
            beta: 2.5,
            dims: vec![
                DimSpec {
                    name: "readers",
                    n_r_full: 27_876,
                    d_r: 2,
                    signal: 0.5,
                    fk_effect: 0.6,
                    open_domain: false,
                    profile_pool_div: 8,
                },
                DimSpec {
                    name: "books",
                    n_r_full: 49_972,
                    d_r: 4,
                    signal: 0.2,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// Flights: codeshare prediction; airlines + source/destination
    /// airports. Strong per-airline FK effect (NoFK drops ≈ 0.05 in the
    /// paper).
    pub fn flights() -> Self {
        Self {
            name: "Flights",
            n_s_full: 66_548,
            d_s: 20,
            home_signal: 0.5,
            beta: 8.0,
            dims: vec![
                DimSpec {
                    name: "airlines",
                    n_r_full: 540,
                    d_r: 5,
                    signal: 0.6,
                    fk_effect: 0.9,
                    open_domain: false,
                    profile_pool_div: 10,
                },
                DimSpec {
                    name: "src_airports",
                    n_r_full: 3_167,
                    d_r: 6,
                    signal: 0.3,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
                DimSpec {
                    name: "dst_airports",
                    n_r_full: 3_170,
                    d_r: 6,
                    signal: 0.3,
                    fk_effect: 0.0,
                    open_domain: false,
                    profile_pool_div: 0,
                },
            ],
        }
    }

    /// All seven emulators in Table 1 order.
    pub fn all() -> Vec<EmulatorSpec> {
        vec![
            Self::expedia(),
            Self::movies(),
            Self::yelp(),
            Self::walmart(),
            Self::lastfm(),
            Self::books(),
            Self::flights(),
        ]
    }

    /// Generates at the default target size.
    pub fn generate(&self, seed: u64) -> GeneratedStar {
        self.generate_scaled(DEFAULT_TARGET_N_S, seed)
    }

    fn scale(&self, target_n_s: usize) -> f64 {
        (target_n_s as f64 / self.n_s_full as f64).min(1.0)
    }

    /// The dimensions whose scaled `n_R` falls below [`MIN_N_R`] at this
    /// target and is raised to it, which lowers their tuple ratio below
    /// Table 1's.
    pub fn floored_dims(&self, target_n_s: usize) -> Vec<&'static str> {
        let scale = self.scale(target_n_s);
        let floored = |d: &&DimSpec| ((d.n_r_full as f64 * scale).round() as usize) < MIN_N_R;
        self.dims.iter().filter(floored).map(|d| d.name).collect()
    }

    /// Generates with `n_S ≈ target_n_s` (capped at the full-scale size),
    /// scaling every `n_R` by the same factor. That keeps Table 1's tuple
    /// ratios except where a size meets its floor: `n_S` is at least
    /// [`MIN_N_S`] and each `n_R` at least [`MIN_N_R`], so a small target
    /// raises them and changes those ratios ([`EmulatorSpec::floored_dims`]
    /// names the dimensions raised).
    pub fn generate_scaled(&self, target_n_s: usize, seed: u64) -> GeneratedStar {
        let scale = self.scale(target_n_s);
        let n_s = ((self.n_s_full as f64 * scale).round() as usize).max(MIN_N_S);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Scaled dimension sizes.
        let n_rs: Vec<usize> = self
            .dims
            .iter()
            .map(|d| ((d.n_r_full as f64 * scale).round() as usize).clamp(MIN_N_R, d.n_r_full))
            .collect();

        // Dimension feature columns: cardinalities cycle 2,3,4,6,8 and codes
        // are uniform. The first few columns of each dimension carry the
        // planted signal (via the centred code value).
        const CARDS: [u32; 5] = [2, 3, 4, 6, 8];
        // Signal concentration: the lead feature carries most of a group's
        // score (0.7/0.3 with the second feature). Spreading it thinner
        // makes the additive signal unlearnable for trees at these scales.
        const LEAD: f64 = 0.7;
        const SECOND: f64 = 0.3;
        let mut dims_cols: Vec<DimColumns> = Vec::with_capacity(self.dims.len());
        let mut dim_scores: Vec<Vec<f64>> = Vec::with_capacity(self.dims.len());
        let mut fk_effects: Vec<Vec<f64>> = Vec::with_capacity(self.dims.len());
        for (spec, &n_r) in self.dims.iter().zip(&n_rs) {
            let mut columns = Vec::with_capacity(spec.d_r);
            let mut score = vec![0.0f64; n_r];
            // Profile pooling: rows draw their whole X_R tuple from a small
            // pool, so many FKs share a profile (see `DimSpec`).
            let profile_assignment: Option<(usize, Vec<usize>)> = if spec.profile_pool_div > 0 {
                let pool = (n_r / spec.profile_pool_div as usize).max(2);
                let assignment = (0..n_r).map(|_| rng.gen_range(0..pool)).collect();
                Some((pool, assignment))
            } else {
                None
            };
            for j in 0..spec.d_r {
                let card = CARDS[j % CARDS.len()];
                let codes: Vec<u32> = match &profile_assignment {
                    Some((pool, assignment)) => {
                        let pool_codes: Vec<u32> =
                            (0..*pool).map(|_| rng.gen_range(0..card)).collect();
                        assignment.iter().map(|&p| pool_codes[p]).collect()
                    }
                    None => (0..n_r).map(|_| rng.gen_range(0..card)).collect(),
                };
                let w = match j {
                    0 => {
                        if spec.d_r == 1 {
                            1.0
                        } else {
                            LEAD
                        }
                    }
                    1 => SECOND,
                    _ => 0.0,
                };
                if w > 0.0 {
                    for (s, &code) in score.iter_mut().zip(&codes) {
                        *s += w * centred(code, card);
                    }
                }
                columns.push((format!("{}_{j}", spec.name), card, codes));
            }
            dims_cols.push(DimColumns {
                name: spec.name.to_string(),
                columns,
                open_domain: spec.open_domain,
            });
            dim_scores.push(score);
            // Per-FK idiosyncratic effect: a coin flip to ±1 per key, so
            // the effect is sharply learnable by FK memorization.
            fk_effects.push(
                (0..n_r)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect(),
            );
        }

        // Home features: signal spreads geometrically over up to six of
        // them (w_j ∝ 2^{-j}, normalised), which keeps wide fact tables
        // (Flights, d_S = 20) informative for distance-based models too.
        let mut xs = Vec::with_capacity(self.d_s);
        let mut home_score = vec![0.0f64; n_s];
        let n_home_signal = self.d_s.min(6);
        let home_norm: f64 = (0..n_home_signal).map(|j| 0.5f64.powi(j as i32)).sum();
        for j in 0..self.d_s {
            let card = CARDS[j % CARDS.len()];
            let codes: Vec<u32> = (0..n_s).map(|_| rng.gen_range(0..card)).collect();
            if j < n_home_signal {
                let w = 0.5f64.powi(j as i32) / home_norm;
                for (s, &code) in home_score.iter_mut().zip(&codes) {
                    *s += w * centred(code, card);
                }
            }
            xs.push((format!("s_{j}"), card, codes));
        }

        // FK assignment: mild Zipf skew (real key popularity is skewed).
        let samplers: Vec<SkewSampler> = n_rs
            .iter()
            .map(|&n_r| SkewSampler::new(FkSkew::Zipf { s: 0.5 }, n_r as u32))
            .collect();
        let fks: Vec<Vec<u32>> = samplers
            .iter()
            .map(|s| (0..n_s).map(|_| s.sample(&mut rng)).collect())
            .collect();

        // Label scores: weighted sum of dimension signal, FK effects and
        // home signal, squashed through a logistic with sharpness beta.
        let total_weight: f64 = self.home_signal
            + self
                .dims
                .iter()
                .map(|d| d.signal + d.fk_effect)
                .sum::<f64>();
        let mut y = Vec::with_capacity(n_s);
        #[allow(clippy::needless_range_loop)] // row index spans several arrays
        for i in 0..n_s {
            let mut z = self.home_signal * home_score.get(i).copied().unwrap_or(0.0);
            for (k, spec) in self.dims.iter().enumerate() {
                let fk = fks[k][i] as usize;
                z += spec.signal * dim_scores[k][fk] + spec.fk_effect * fk_effects[k][fk];
            }
            let p = sigmoid(self.beta * z / total_weight.max(1e-9));
            y.push(rng.gen_bool(p));
        }

        // dS = 0 datasets still need a fact side: FKs are features, so the
        // fact table is simply y + FKs (CatDataset accepts FK-only rows).
        let star = assemble_star(self.name, FactColumns { y, xs, fks }, dims_cols);
        // 50 / 25 / 25 split of the generated labelled examples (§3.2).
        let n_train = n_s / 2;
        let n_val = n_s / 4;
        GeneratedStar {
            star,
            n_train,
            n_val,
            n_test: n_s - n_train - n_val,
        }
    }
}

/// Centred value of a code spanning the full [−1, 1] range.
#[inline]
fn centred(code: u32, card: u32) -> f64 {
    if card <= 1 {
        return 0.0;
    }
    2.0 * code as f64 / (card - 1) as f64 - 1.0
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_datasets_present_in_table1_order() {
        let names: Vec<&str> = EmulatorSpec::all().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec!["Expedia", "Movies", "Yelp", "Walmart", "LastFM", "Books", "Flights"]
        );
    }

    #[test]
    fn shapes_match_table1() {
        let e = EmulatorSpec::flights();
        assert_eq!(e.d_s, 20);
        assert_eq!(e.dims.len(), 3);
        assert_eq!(e.dims[0].n_r_full, 540);
        let y = EmulatorSpec::yelp();
        assert_eq!(y.dims[1].d_r, 6);
        assert!(EmulatorSpec::expedia().dims[1].open_domain);
    }

    #[test]
    fn tuple_ratios_preserved_under_scaling() {
        let spec = EmulatorSpec::yelp();
        let g = spec.generate_scaled(10_000, 1);
        let stats = g.star.stats(g.n_train);
        // Paper: 9.4 and 2.5 (on the train split).
        assert!(
            (stats[0].tuple_ratio - 9.4).abs() < 1.5,
            "{}",
            stats[0].tuple_ratio
        );
        assert!(
            (stats[1].tuple_ratio - 2.5).abs() < 0.6,
            "{}",
            stats[1].tuple_ratio
        );
    }

    #[test]
    fn generated_star_is_valid_and_split() {
        let g = EmulatorSpec::walmart().generate_scaled(4000, 7);
        assert_eq!(g.n_total(), g.star.fact().n_rows());
        assert_eq!(g.n_train, g.n_total() / 2);
        // Join materializes (validated at construction).
        let joined = g.star.materialize_all().unwrap();
        assert_eq!(
            joined.width(),
            g.star.fact().width() + 9 + 2 // indicators d_r + stores d_r
        );
    }

    #[test]
    fn labels_correlate_with_planted_signal() {
        // The Yelp users dimension carries weight-1.0 signal; labels must
        // correlate with its first feature through the join.
        let g = EmulatorSpec::yelp().generate_scaled(8000, 3);
        let joined = g.star.materialize_all().unwrap();
        let yc = joined.target_as_bool().unwrap();
        let sig = joined.column("users_0").unwrap().codes().to_vec();
        let (mut n0, mut p0, mut n1, mut p1) = (0usize, 0usize, 0usize, 0usize);
        for (code, label) in sig.iter().zip(&yc) {
            if *code == 0 {
                n0 += 1;
                p0 += usize::from(*label);
            } else {
                n1 += 1;
                p1 += usize::from(*label);
            }
        }
        let r0 = p0 as f64 / n0 as f64;
        let r1 = p1 as f64 / n1 as f64;
        assert!(r1 - r0 > 0.1, "positive rate by signal value: {r0} vs {r1}");
    }

    #[test]
    fn small_dimensions_are_raised_to_the_floor_and_named() {
        // Walmart's 45 stores scale to 45 · 8000 / 421,570 ≈ 0.85 rows.
        let walmart = EmulatorSpec::walmart();
        assert_eq!(walmart.floored_dims(8000), vec!["stores"]);
        let g = walmart.generate_scaled(8000, 5);
        let n_rs: Vec<usize> = g.star.stats(g.n_train).iter().map(|d| d.n_rows).collect();
        assert_eq!((g.n_total(), n_rs), (8000, vec![44, MIN_N_R]));
        assert!(walmart.floored_dims(100_000).is_empty());
        assert_eq!(walmart.generate_scaled(1, 5).n_total(), MIN_N_S);
        let none = EmulatorSpec::all()
            .iter()
            .all(|e| e.floored_dims(e.n_s_full).is_empty());
        assert!(none, "no dimension is floored at full scale");
    }

    #[test]
    fn scaling_caps_at_full_size() {
        let spec = EmulatorSpec::flights();
        let g = spec.generate_scaled(100_000_000, 2);
        assert_eq!(g.n_total(), spec.n_s_full);
    }

    #[test]
    fn reproducible_given_seed() {
        let a = EmulatorSpec::books().generate_scaled(2000, 11);
        let b = EmulatorSpec::books().generate_scaled(2000, 11);
        assert_eq!(
            a.star.fact().column("fk_readers").unwrap().codes(),
            b.star.fact().column("fk_readers").unwrap().codes()
        );
    }
}
