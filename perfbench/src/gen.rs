//! The benchmark's load generator: seeded catalogs, VCR-duration laws
//! and viewer traffic, built from `vod-dist` and `vod-workload`
//! primitives. The program under test only ever sees what this module
//! produces; the seed never reaches it.

use std::sync::Arc;

use vod_dist::kinds::{Empirical, Exponential, Gamma, LogNormal, Weibull};
use vod_dist::rng::{exponential, seeded, SeededRng};
use vod_dist::DurationDist;
use vod_model::{Rates, VcrMix};
use vod_sizing::MovieSpec;
use vod_workload::{BehaviorModel, VcrRequest, Zipf};

/// The VCR type mix every generated viewer uses (the paper's Figure 7d:
/// 20% FF, 20% RW, 60% pause).
pub const MIX: (f64, f64, f64) = (0.2, 0.2, 0.6);

/// Mean playback minutes between a viewer's interactions in the paper's
/// behaviour, as every bench bin of the repository uses it (`fig7`,
/// `chaos`, `federation`, `cross_validate`, `catalog_sim`,
/// `backend_compare`). The workloads state their VCR traffic as a
/// multiple of this rate.
pub const PAPER_PLAY_BETWEEN: f64 = 30.0;

/// VCR-duration law families covered by the catalogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Exponential durations (closed-form model kernels).
    Exponential,
    /// Gamma, shape 2.
    Gamma,
    /// Weibull, shape 1.5.
    Weibull,
    /// Lognormal, coefficient of variation 0.8.
    LogNormal,
    /// Piecewise-linear empirical law fitted to a synthetic trace.
    Empirical,
}

impl Family {
    /// All five families, in report order.
    pub const ALL: [Family; 5] = [
        Family::Exponential,
        Family::Gamma,
        Family::Weibull,
        Family::LogNormal,
        Family::Empirical,
    ];

    /// Name used in metric keys.
    pub fn label(self) -> &'static str {
        match self {
            Family::Exponential => "exponential",
            Family::Gamma => "gamma",
            Family::Weibull => "weibull",
            Family::LogNormal => "lognormal",
            Family::Empirical => "empirical",
        }
    }
}

/// Derive an independent stream seed from `seed` and a `salt`
/// (SplitMix64 finaliser), so every consumer of randomness gets its
/// own stream and adding one never shifts another.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One catalog position: its law family, length, QoS targets and mean
/// VCR duration.
#[derive(Debug, Clone, Copy)]
pub struct MovieSlot {
    /// VCR-duration law family.
    pub family: Family,
    /// Length, minutes.
    pub length: u32,
    /// Maximum batching wait `w`, minutes.
    pub max_wait: f64,
    /// Hit-probability target `P*`.
    pub target: f64,
    /// Mean VCR duration, minutes.
    pub vcr_mean: f64,
}

impl MovieSlot {
    /// A slot of `family` for a `length`-minute movie with wait bound
    /// `max_wait`, target `P*` and mean VCR duration `vcr_mean`.
    pub const fn new(
        family: Family,
        length: u32,
        max_wait: f64,
        target: f64,
        vcr_mean: f64,
    ) -> Self {
        Self {
            family,
            length,
            max_wait,
            target,
            vcr_mean,
        }
    }
}

/// The slots of `a` followed by those of `b`, as a constant.
///
/// # Panics
/// At compile time, when `N != A + B` or `a` is empty.
pub const fn concat_slots<const A: usize, const B: usize, const N: usize>(
    a: [MovieSlot; A],
    b: [MovieSlot; B],
) -> [MovieSlot; N] {
    assert!(A > 0 && A + B == N, "N must be A + B");
    let mut out = [a[0]; N];
    let mut i = 0;
    while i < B {
        out[A + i] = b[i];
        i += 1;
    }
    let mut i = 0;
    while i < A {
        out[i] = a[i];
        i += 1;
    }
    out
}

/// A catalog template. The slots are fixed, so the model work of sizing
/// a catalog is the same for every seed; the seed draws the synthetic
/// traces the empirical laws are fitted to.
#[derive(Debug, Clone, Copy)]
pub struct CatalogShape {
    /// Movies in Zipf rank order (slot 0 is the most popular).
    pub slots: &'static [MovieSlot],
    /// Observations in each empirical law's synthetic trace.
    pub trace_samples: usize,
}

/// A generated catalog: sizing specs plus the integer lengths the
/// servers host.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// One sizing spec per movie, rank order.
    pub specs: Vec<MovieSpec>,
    /// Movie lengths in whole minutes (the server's segment count).
    pub lengths: Vec<u32>,
    /// Law family of each movie.
    pub families: Vec<Family>,
}

impl Catalog {
    /// The first movie of `family`, if the catalog has one.
    pub fn first_of(&self, family: Family) -> Option<usize> {
        self.families.iter().position(|&f| f == family)
    }
}

/// Build the catalog for `shape` under `seed`.
///
/// # Errors
/// A slot whose parameters a law or `MovieSpec` rejects.
pub fn catalog(shape: &CatalogShape, seed: u64) -> Result<Catalog, String> {
    let mut specs = Vec::with_capacity(shape.slots.len());
    let mut lengths = Vec::with_capacity(shape.slots.len());
    let mut families = Vec::with_capacity(shape.slots.len());
    for (i, slot) in shape.slots.iter().enumerate() {
        let law = law(
            slot.family,
            slot.vcr_mean,
            shape.trace_samples,
            derive(seed, i as u64),
        )?;
        let spec = MovieSpec::new(
            format!("m{i:02}-{}", slot.family.label()),
            f64::from(slot.length),
            slot.max_wait,
            slot.target,
            VcrMix::new(MIX.0, MIX.1, MIX.2).map_err(|e| e.to_string())?,
            law,
            Rates::paper(),
        )
        .map_err(|e| format!("slot {i}: {e}"))?;
        specs.push(spec);
        lengths.push(slot.length);
        families.push(slot.family);
    }
    Ok(Catalog {
        specs,
        lengths,
        families,
    })
}

/// A duration law of `family` with mean `mean`. The empirical law is
/// fitted to `samples` draws of a gamma(1.5) trace seeded by `seed`.
fn law(
    family: Family,
    mean: f64,
    samples: usize,
    seed: u64,
) -> Result<Arc<dyn DurationDist>, String> {
    let err = |e: vod_dist::DistError| e.to_string();
    Ok(match family {
        Family::Exponential => Arc::new(Exponential::with_mean(mean).map_err(err)?),
        Family::Gamma => Arc::new(Gamma::with_shape_mean(2.0, mean).map_err(err)?),
        // Mean of Weibull(k = 1.5, λ) is λ·Γ(1 + 1/1.5) = 0.902745·λ.
        Family::Weibull => Arc::new(Weibull::new(1.5, mean / 0.902_745_292_950_934).map_err(err)?),
        Family::LogNormal => Arc::new(LogNormal::with_mean_cv(mean, 0.8).map_err(err)?),
        Family::Empirical => {
            let source = Gamma::with_shape_mean(1.5, mean).map_err(err)?;
            let mut rng = seeded(seed);
            let trace: Vec<f64> = (0..samples).map(|_| source.sample(&mut rng)).collect();
            Arc::new(Empirical::from_samples(&trace).map_err(err)?)
        }
    })
}

/// A viewer's interaction behaviour for one movie: the shared mix, the
/// movie's own duration law, `mean_play_between` minutes of playback
/// between interactions.
pub fn behavior(spec: &MovieSpec, mean_play_between: f64) -> BehaviorModel {
    BehaviorModel::uniform_dist(MIX, mean_play_between, Arc::clone(&spec.dist))
}

/// Open-loop viewer traffic: Poisson arrivals, Zipf movie choice whose
/// exponent may drift linearly over the run.
#[derive(Debug, Clone, Copy)]
pub struct LoadShape {
    /// Mean arrivals per virtual minute over the whole catalog.
    pub arrivals_per_min: f64,
    /// Zipf exponent at the first and at the last minute.
    pub skew: (f64, f64),
    /// Mean playback minutes between a viewer's interactions.
    pub mean_play_between: f64,
}

/// One viewer arrival.
#[derive(Debug)]
pub struct Arrival {
    /// Movie index in the catalog.
    pub movie: usize,
    /// 1-based session number, unique over the run.
    pub session: u64,
    /// The viewer's private interaction stream.
    pub rng: SeededRng,
    /// Minutes of playback before the first interaction (≥ 1).
    pub first_gap: u64,
}

/// Seeded arrival generator for one run.
pub struct LoadGen {
    shape: LoadShape,
    behaviors: Vec<BehaviorModel>,
    horizon: u64,
    seed: u64,
    rng: SeededRng,
    next_arrival: f64,
    sessions: u64,
}

impl LoadGen {
    /// Traffic over `behaviors.len()` movies for `horizon` minutes.
    pub fn new(shape: LoadShape, behaviors: Vec<BehaviorModel>, horizon: u64, seed: u64) -> Self {
        let mut rng = seeded(derive(seed, 0xA771));
        let next_arrival = exponential(&mut rng, 1.0 / shape.arrivals_per_min);
        Self {
            shape,
            behaviors,
            horizon,
            seed,
            rng,
            next_arrival,
            sessions: 0,
        }
    }

    /// The arrivals of virtual minute `minute`, appended to `out`.
    pub fn arrivals(&mut self, minute: u64, out: &mut Vec<Arrival>) {
        if self.next_arrival >= (minute + 1) as f64 {
            return;
        }
        let frac = minute as f64 / self.horizon.max(1) as f64;
        let skew = self.shape.skew.0 + (self.shape.skew.1 - self.shape.skew.0) * frac;
        let zipf = Zipf::new(self.behaviors.len(), skew);
        while self.next_arrival < (minute + 1) as f64 {
            let movie = zipf.sample(&mut self.rng);
            self.sessions += 1;
            let mut rng = seeded(derive(self.seed, self.sessions));
            let first_gap = gap(&self.behaviors[movie], &mut rng);
            out.push(Arrival {
                movie,
                session: self.sessions,
                rng,
                first_gap,
            });
            self.next_arrival += exponential(&mut self.rng, 1.0 / self.shape.arrivals_per_min);
        }
    }

    /// The next interaction of a viewer of `movie`: the request and the
    /// playback minutes until the one after it.
    pub fn interaction(&self, movie: usize, rng: &mut SeededRng) -> (VcrRequest, u64) {
        let b = &self.behaviors[movie];
        let req = b.sample_request(rng);
        (req, gap(b, rng))
    }
}

fn gap(b: &BehaviorModel, rng: &mut SeededRng) -> u64 {
    (b.next_interaction_gap(rng).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOTS: &[MovieSlot] = &[
        MovieSlot::new(Family::Exponential, 90, 3.0, 0.6, 5.0),
        MovieSlot::new(Family::Empirical, 100, 4.0, 0.6, 6.0),
    ];

    #[test]
    fn concat_slots_keeps_order() {
        const AB: [MovieSlot; 3] = concat_slots(
            [SLOTS[0], SLOTS[1]],
            [MovieSlot::new(Family::Gamma, 80, 2.0, 0.5, 4.0)],
        );
        let lengths: Vec<u32> = AB.iter().map(|s| s.length).collect();
        assert_eq!(lengths, vec![90, 100, 80]);
    }

    fn shape() -> CatalogShape {
        CatalogShape {
            slots: SLOTS,
            trace_samples: 200,
        }
    }

    #[test]
    fn catalog_is_a_function_of_the_seed() {
        let a = catalog(&shape(), 1).unwrap();
        let b = catalog(&shape(), 1).unwrap();
        let c = catalog(&shape(), 2).unwrap();
        assert_eq!(a.lengths, vec![90, 100]);
        assert_eq!(a.specs[0].dist.mean(), c.specs[0].dist.mean());
        // Only the empirical law's trace depends on the seed.
        assert_eq!(a.specs[1].dist.mean(), b.specs[1].dist.mean());
        assert_ne!(a.specs[1].dist.mean(), c.specs[1].dist.mean());
        assert!((a.specs[1].dist.mean() - 6.0).abs() < 1.0);
        assert_eq!(a.first_of(Family::Empirical), Some(1));
        assert_eq!(a.first_of(Family::Gamma), None);
    }

    #[test]
    fn arrivals_are_a_function_of_the_seed() {
        let cat = catalog(&shape(), 3).unwrap();
        let load = LoadShape {
            arrivals_per_min: 20.0,
            skew: (1.0, 0.5),
            mean_play_between: 10.0,
        };
        let run = |seed| {
            let behaviors = cat.specs.iter().map(|s| behavior(s, 10.0)).collect();
            let mut g = LoadGen::new(load, behaviors, 50, seed);
            let mut out = Vec::new();
            for m in 0..50 {
                g.arrivals(m, &mut out);
            }
            out.iter()
                .map(|a| (a.movie, a.session, a.first_gap))
                .collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
        // About 20 per minute over 50 minutes.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
    }
}
