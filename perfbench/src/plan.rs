//! The `plan` workload: size a Zipf catalog whose VCR laws cover all
//! five families, split it over shards with `split_budget`, and audit
//! the plan in the continuous-time simulator.
//!
//! Also home of the sizing steps the serve workloads share: the stream
//! budget rule, [`size`], the sizing checks and the traced-only probes
//! of `vod-sizing` and `vod-model`.

use std::collections::BTreeMap;
use std::time::Instant;

use vod_model::{p_hit_single_dist, ModelOptions, VcrMix};
use vod_runtime::{BackendKind, FaultPlan, RuntimeMetrics};
use vod_sim::{run_catalog_seeded, CatalogConfig, CatalogReport, MovieLoad};
use vod_sizing::{split_budget, Budgets, HardwareSpec, ResourceCost, ResourcePlan, ShardPlan};
use vod_workload::Zipf;

use crate::checks;
use crate::gen::{self, derive, Catalog, CatalogShape, Family, MovieSlot, PAPER_PLAY_BETWEEN};
use crate::report::Outcome;
use crate::run::{finish, repeat, secs, RepOut, RunOpts};
use crate::trace::{durations_ns, Span, Tracer};

/// How the simulator audits a plan.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Catalog-wide viewer arrivals per minute (Zipf over rank order).
    pub arrivals_per_min: f64,
    /// Zipf exponent of movie choice.
    pub skew: f64,
    /// Mean playback minutes between a viewer's interactions.
    pub mean_play_between: f64,
    /// Simulated minutes, warm-up included.
    pub horizon: f64,
    /// Warm-up minutes left out of the statistics.
    pub warmup: f64,
}

/// The `plan` workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// The catalog template.
    pub catalog: CatalogShape,
    /// Shards the plan is split over.
    pub shards: u32,
    /// The simulator audit.
    pub audit: AuditConfig,
}

/// Ten movies, two of each law family, in Zipf rank order.
const PLAN_SLOTS: &[MovieSlot] = &[
    MovieSlot::new(Family::Exponential, 110, 3.0, 0.60, 5.0),
    MovieSlot::new(Family::Gamma, 95, 2.5, 0.62, 6.0),
    MovieSlot::new(Family::Weibull, 120, 4.0, 0.58, 4.0),
    MovieSlot::new(Family::LogNormal, 90, 3.0, 0.60, 5.0),
    MovieSlot::new(Family::Empirical, 100, 2.5, 0.63, 6.0),
    MovieSlot::new(Family::Exponential, 85, 2.0, 0.55, 8.0),
    MovieSlot::new(Family::Gamma, 105, 3.5, 0.65, 3.0),
    MovieSlot::new(Family::Weibull, 75, 2.5, 0.60, 7.0),
    MovieSlot::new(Family::LogNormal, 115, 5.0, 0.62, 4.0),
    MovieSlot::new(Family::Empirical, 95, 4.0, 0.57, 5.0),
];

/// The `plan` workload. The audit's viewers follow the paper's
/// behaviour: the Fig. 7d mix, one interaction per 30 playback minutes.
pub const PLAN: PlanConfig = PlanConfig {
    catalog: CatalogShape {
        slots: PLAN_SLOTS,
        trace_samples: 400,
    },
    shards: 4,
    audit: AuditConfig {
        arrivals_per_min: 6.0,
        skew: 0.8,
        mean_play_between: PAPER_PLAY_BETWEEN,
        horizon: 4000.0,
        warmup: 200.0,
    },
};

impl PlanConfig {
    /// The configuration as a JSON object, for the run context.
    pub fn describe(&self) -> String {
        format!(
            "{{\"movies\": {}, \"families\": 5, \"trace_samples\": {}, \
             \"shards\": {}, \"budget_rule\": \"ceil(sum ceil(l/w) / 4)\", \
             \"audit\": {{\"arrivals_per_min\": {}, \"skew\": {}, \"mean_play_between\": {}, \
             \"horizon_min\": {}, \"warmup_min\": {}}}}}",
            self.catalog.slots.len(),
            self.catalog.trace_samples,
            self.shards,
            self.audit.arrivals_per_min,
            self.audit.skew,
            self.audit.mean_play_between,
            self.audit.horizon,
            self.audit.warmup
        )
    }
}

/// The stream budget rule, fixed for every workload: a quarter of the
/// streams pure batching would need (`Σ ⌈l/w⌉ / 4`, rounded up), and
/// never fewer than one per movie. Movies with the longest waits fill
/// up to their largest feasible `n`; the rest keep what is left, down
/// to `n = 1`, where the model is least accurate.
pub fn stream_budget(cat: &Catalog) -> u32 {
    let pure: u32 = cat.specs.iter().map(|s| s.pure_batching_streams()).sum();
    pure.div_ceil(4).max(cat.specs.len() as u32)
}

/// Resource prices for `plan_cost`: the paper's Example 2 hardware.
pub fn prices() -> ResourceCost {
    HardwareSpec::paper_example2()
        .resource_cost()
        .expect("Example 2 hardware constants are valid")
}

/// Size `cat` under [`stream_budget`] and split it over `shards`.
///
/// # Errors
/// Whatever `split_budget` refuses.
pub fn size(cat: &Catalog, shards: u32, tracer: &mut Tracer) -> Result<(ShardPlan, u32), String> {
    let budget = stream_budget(cat);
    let budgets = Budgets {
        streams: budget,
        buffer: None,
    };
    let split = tracer
        .span("sizing.split_budget", 0, || {
            split_budget(&cat.specs, budgets, shards, &ModelOptions::default())
        })
        .map_err(|e| format!("split_budget: {e}"))?;
    Ok((split, budget))
}

/// The sizing checks: a feasible plan within budget, split as a
/// partition.
pub fn sizing_checks(cat: &Catalog, split: &ShardPlan, budget: u32, shards: u32) -> Vec<String> {
    let targets: Vec<f64> = cat.specs.iter().map(|s| s.target_hit).collect();
    let mut out = checks::plan_feasible(&split.plan, &targets, budget);
    out.extend(checks::split_partitions(
        &split.shard_movies,
        cat.specs.len(),
        shards as usize,
    ));
    out
}

/// Traced-only probes of the sizing and model layers: one
/// `Catalog::new` over the catalog and one `p_hit_single_dist` at each
/// family's planned point. Their values land in `layers`.
///
/// # Errors
/// A probe the layer refuses.
pub fn probe_layers(
    cat: &Catalog,
    plan: &ResourcePlan,
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let opts = ModelOptions::default();
    let evals = tracer
        .span("sizing.catalog_new", 0, || {
            vod_sizing::Catalog::new(&cat.specs, &opts).map(|c| c.model_evaluations())
        })
        .map_err(|e| format!("Catalog::new: {e}"))?;
    let catalog_s = last_s(tracer.spans(), "sizing.catalog_new");
    layers.insert("sizing.catalog_s", catalog_s);
    layers.insert("sizing.model_evals", evals as f64);
    layers.insert("sizing.us_per_eval", catalog_s * 1e6 / evals.max(1) as f64);
    let mix = VcrMix::new(gen::MIX.0, gen::MIX.1, gen::MIX.2).map_err(|e| e.to_string())?;
    for family in Family::ALL {
        let Some(i) = cat.first_of(family) else {
            continue;
        };
        let spec = &cat.specs[i];
        let params = spec
            .params_for_streams(plan.allocations[i].n_streams)
            .map_err(|e| e.to_string())?;
        let (span, key) = model_names(family);
        tracer.span(span, 0, || {
            std::hint::black_box(p_hit_single_dist(&params, spec.dist.as_ref(), &mix, &opts))
        });
        layers.insert(key, last_s(tracer.spans(), span) * 1e3);
    }
    Ok(())
}

fn model_names(family: Family) -> (&'static str, &'static str) {
    match family {
        Family::Exponential => ("model.p_hit.exponential", "model.p_hit_ms.exponential"),
        Family::Gamma => ("model.p_hit.gamma", "model.p_hit_ms.gamma"),
        Family::Weibull => ("model.p_hit.weibull", "model.p_hit_ms.weibull"),
        Family::LogNormal => ("model.p_hit.lognormal", "model.p_hit_ms.lognormal"),
        Family::Empirical => ("model.p_hit.empirical", "model.p_hit_ms.empirical"),
    }
}

/// Seconds of the last span called `name`; 0 when there is none.
pub fn last_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
}

/// The plan's smallest stream count.
pub fn min_n(plan: &ResourcePlan) -> u32 {
    plan.allocations
        .iter()
        .map(|a| a.n_streams)
        .min()
        .unwrap_or(0)
}

/// One movie's audit line.
#[derive(Debug, Clone, PartialEq)]
pub struct MovieAudit {
    /// Movie name.
    pub name: String,
    /// Planned streams.
    pub n: u32,
    /// Planned buffer minutes.
    pub buffer: f64,
    /// Planned P(hit).
    pub planned: f64,
    /// Simulated resume hit ratio.
    pub simulated: f64,
    /// Simulated resumes behind it.
    pub resumes: u64,
}

/// Virtual-time outcome of one plan pass: a function of the seed only.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanVirtual {
    /// The stream budget the rule gave.
    pub budget: u32,
    /// `ResourcePlan::cost` of the split plan.
    pub plan_cost: f64,
    /// Largest |planned − simulated| P(hit) over movies.
    pub audit_gap: f64,
    /// Simulated catalog-wide resume hit ratio.
    pub hit_ratio: f64,
    /// Smallest planned `n`.
    pub min_n: u32,
    /// Mean simulated batching wait of type-1 viewers, minutes.
    pub startup_wait_min: f64,
    /// Simulated arrivals plus VCR requests.
    pub attempted: u64,
    /// Denied VCR requests and permanent denials.
    pub denied: u64,
    /// Per-movie audit.
    pub movies: Vec<MovieAudit>,
    /// Movies per shard.
    pub shard_movies: Vec<Vec<usize>>,
    /// Viewers that arrived in the measured window.
    pub viewers: u64,
    /// The simulator's catalog-wide counters.
    pub runtime: RuntimeMetrics,
}

/// The simulator configuration auditing `plan` for `cat`.
pub fn audit_config(
    cfg: &PlanConfig,
    cat: &Catalog,
    plan: &ResourcePlan,
) -> Result<CatalogConfig, String> {
    let zipf = Zipf::new(cat.specs.len(), cfg.audit.skew);
    let movies = cat
        .specs
        .iter()
        .zip(&plan.allocations)
        .enumerate()
        .map(|(i, (spec, a))| {
            Ok(MovieLoad {
                params: spec
                    .params_for_streams(a.n_streams)
                    .map_err(|e| e.to_string())?,
                mean_interarrival: 1.0 / (cfg.audit.arrivals_per_min * zipf.pmf(i)),
                behavior: gen::behavior(spec, cfg.audit.mean_play_between),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let sim = CatalogConfig {
        movies,
        horizon: cfg.audit.horizon,
        warmup: cfg.audit.warmup,
        count_ff_end_as_hit: true,
        collect_trace: false,
        dedicated_capacity: None,
        faults: FaultPlan::empty(),
        backend: BackendKind::BatchingBuffering,
    };
    sim.validate()?;
    Ok(sim)
}

/// Reduce a pass to its virtual-time outcome.
pub fn summarize(split: &ShardPlan, budget: u32, report: &CatalogReport) -> PlanVirtual {
    let movies: Vec<MovieAudit> = split
        .plan
        .allocations
        .iter()
        .zip(&report.per_movie)
        .map(|(a, r)| MovieAudit {
            name: a.movie.clone(),
            n: a.n_streams,
            buffer: a.buffer,
            planned: a.p_hit,
            simulated: r.runtime.resumes.value(),
            resumes: r.runtime.resumes.trials(),
        })
        .collect();
    let audit_gap = movies
        .iter()
        .map(|m| (m.planned - m.simulated).abs())
        .fold(0.0, f64::max);
    let (wait_sum, wait_n) = report.per_movie.iter().fold((0.0, 0u64), |(s, n), r| {
        (
            s + r.wait.mean() * r.wait.count() as f64,
            n + r.wait.count(),
        )
    });
    let viewers: u64 = report.per_movie.iter().map(|r| r.viewers_arrived).sum();
    let rt = &report.runtime;
    PlanVirtual {
        budget,
        plan_cost: split.plan.cost(&prices()),
        audit_gap,
        hit_ratio: report.overall_hit_ratio(),
        min_n: min_n(&split.plan),
        startup_wait_min: if wait_n == 0 {
            0.0
        } else {
            wait_sum / wait_n as f64
        },
        movies,
        attempted: viewers + rt.resumes.trials() + rt.vcr_denied,
        denied: rt.vcr_denied + rt.denied_permanent,
        shard_movies: split.shard_movies.clone(),
        viewers,
        runtime: report.runtime.clone(),
    }
}

/// One repetition: set up (generate the catalog), then one timed plan
/// pass (split and audit).
///
/// # Errors
/// A layer that refuses its input.
pub fn pass(
    cfg: &PlanConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(f64, RepOut<PlanVirtual>), String> {
    let t0 = Instant::now();
    let setup = tracer.enter("setup");
    let cat = tracer.span("workload.catalog", 0, || gen::catalog(&cfg.catalog, seed))?;
    tracer.exit(setup);
    let setup_s = secs(t0);
    let t1 = Instant::now();
    let window = tracer.enter("window");
    let (split, budget) = size(&cat, cfg.shards, tracer)?;
    let sim = audit_config(cfg, &cat, &split.plan)?;
    let report = tracer.span("sim.run_catalog_seeded", 0, || {
        run_catalog_seeded(&sim, derive(seed, 0xA0D1))
    });
    tracer.exit(window);
    let plan_s = secs(t1);
    let wall_s = secs(t0);
    let virt = summarize(&split, budget, &report);
    let failures = sizing_checks(&cat, &split, budget, cfg.shards);
    let layers = if tracer.enabled() {
        let mut l = BTreeMap::new();
        probe_layers(&cat, &split.plan, tracer, &mut l)?;
        let spans = tracer.spans();
        let audit_s = last_s(spans, "sim.run_catalog_seeded");
        l.insert("sizing.split_s", last_s(spans, "sizing.split_budget"));
        l.insert("plan.min_n", f64::from(virt.min_n));
        l.insert("sim.audit_s", audit_s);
        l.insert("sim.viewers", virt.viewers as f64);
        l.insert("sim.resumes", virt.runtime.resumes.trials() as f64);
        l.insert(
            "sim.resumes_per_s",
            virt.runtime.resumes.trials() as f64 / audit_s.max(1e-9),
        );
        l.insert(
            "workload.gen_s",
            durations_ns(spans, "workload.catalog", "setup")
                .iter()
                .sum::<u64>() as f64
                / 1e9,
        );
        crate::serve::runtime_layers(&virt.runtime, &mut l);
        Some(l)
    } else {
        None
    };
    Ok((
        wall_s,
        RepOut {
            setup_s,
            steps_ms: vec![plan_s * 1e3],
            work: cat.specs.len() as f64,
            attempted: 2,
            failed: 0,
            failures,
            virt,
            layers,
        },
    ))
}

/// Run the `plan` workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let cfg = &PLAN;
    let mut outcome = Outcome::default();
    let setup_alone = || {
        let t0 = Instant::now();
        let cat = gen::catalog(&cfg.catalog, opts.seed)?;
        let setup_s = secs(t0);
        drop(cat);
        Ok(setup_s)
    };
    let reps = match repeat(opts, |tracer| pass(cfg, opts.seed, tracer), setup_alone) {
        Ok(r) => r,
        Err(e) => {
            outcome.failures.push(e);
            return outcome;
        }
    };
    let Some(virt) = finish("plan", &reps, opts, &mut outcome) else {
        return outcome;
    };
    let denial_rate = virt.denied as f64 / virt.attempted.max(1) as f64;
    outcome.metrics.insert("plan_cost", virt.plan_cost);
    outcome.metrics.insert("hit_ratio", virt.hit_ratio);
    outcome.metrics.insert("served_ratio", 1.0 - denial_rate);
    let plan_s = outcome
        .figures
        .iter()
        .find(|f| f.0 == "step_p50_ms")
        .map_or(0.0, |f| f.1 / 1e3);
    outcome.figure("plan_s", plan_s, "s");
    outcome.figure("plan_cost", virt.plan_cost, "USD");
    outcome.figure("audit_gap", virt.audit_gap, "ratio");
    outcome.figure("hit_ratio", virt.hit_ratio, "ratio");
    outcome.figure("startup_wait_min", virt.startup_wait_min, "min");
    outcome.figure("denial_rate", denial_rate, "ratio");
    outcome.figure("denial_rate.attempted", virt.attempted as f64, "count");
    outcome.figure("denial_rate.failed", virt.denied as f64, "count");
    outcome.figure("plan.min_n", f64::from(virt.min_n), "count");
    outcome.figure("stream_budget", f64::from(virt.budget), "count");
    for (i, m) in virt.movies.iter().enumerate() {
        let shard = virt
            .shard_movies
            .iter()
            .position(|ms| ms.contains(&i))
            .unwrap_or(usize::MAX);
        outcome.figure(
            format!(
                "audit.{} (n={}, B={:.2}, shard {shard}, {} resumes) planned {:.4} simulated",
                m.name, m.n, m.buffer, m.resumes, m.planned
            ),
            m.simulated,
            "ratio",
        );
    }
    outcome
}
