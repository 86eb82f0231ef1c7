//! The serve workloads: open-loop viewer traffic against one batching
//! server (`serve-steady`) or a four-shard federation under a seeded
//! fault plan (`serve-churn`).
//!
//! Each virtual minute has two phases. The generator phase draws the
//! minute's arrivals and the interactions of the viewers due to act;
//! its time is the load generator's, never the system's. The system
//! phase issues them — `open_session` per arrival, `session_status` and
//! `request_vcr` per due viewer — and then calls `tick()`; its host time
//! is one step. Invariant audits run after the step, outside it.

use std::collections::BTreeMap;
use std::time::Instant;

use vod_dist::rng::SeededRng;
use vod_federation::{shards_from_split, FedSessionId, Federation, FederationConfig};
use vod_runtime::{
    BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan, FederationMetrics, RuntimeMetrics,
};
use vod_server::{
    config_from_plan, make_backend, vcr_reserve_estimate, DeliveryBackend, MovieId, ServerError,
    SessionId, SessionStatus,
};
use vod_sizing::{ResourcePlan, ShardPlan};
use vod_workload::{VcrKind, VcrRequest, Zipf};

use crate::checks;
use crate::gen::{
    self, concat_slots, Catalog, CatalogShape, Family, LoadGen, LoadShape, MovieSlot,
    PAPER_PLAY_BETWEEN,
};
use crate::plan::{self, last_s};
use crate::report::Outcome;
use crate::run::{finish, repeat, secs, RepOut, RunOpts};
use crate::stats::{mean, ns_to_ms, quantile};
use crate::trace::{durations_ns, Tracer};

/// A serve workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Workload name.
    pub name: &'static str,
    /// The catalog template.
    pub catalog: CatalogShape,
    /// Viewer traffic.
    pub load: LoadShape,
    /// Shards: 1 serves from one `VodServer`, more from a `Federation`.
    pub shards: u32,
    /// The most popular movies that get a second replica, on the shard
    /// after their home shard (federation only).
    pub replicas: usize,
    /// Warm-up minutes before measuring.
    pub warmup: u64,
    /// Measured minutes.
    pub measure: u64,
    /// Fault events in the plan (0: no faults), all inside the measured
    /// window.
    pub fault_events: u32,
    /// Seed of the fault plan. The fault scenario is part of the
    /// workload, like its catalog: the benchmark seed varies the
    /// traffic, not the faults.
    pub fault_seed: u64,
    /// `check_invariants()` runs after every `audit_every`-th measured
    /// tick and after the last.
    pub audit_every: u64,
}

const STEADY_SLOTS: [MovieSlot; 8] = [
    MovieSlot::new(Family::Exponential, 110, 2.0, 0.60, 5.0),
    MovieSlot::new(Family::Gamma, 100, 2.5, 0.62, 6.0),
    MovieSlot::new(Family::Weibull, 120, 3.0, 0.58, 4.0),
    MovieSlot::new(Family::Empirical, 95, 2.0, 0.60, 5.0),
    MovieSlot::new(Family::Exponential, 105, 3.0, 0.63, 6.0),
    MovieSlot::new(Family::Gamma, 90, 2.0, 0.55, 8.0),
    MovieSlot::new(Family::Weibull, 115, 2.5, 0.60, 5.0),
    MovieSlot::new(Family::Empirical, 100, 3.0, 0.60, 7.0),
];

/// `serve-steady`: one batching server, 10^5 concurrent viewers, sparse
/// VCR, no faults.
///
/// By Little's law the population is the arrival rate times the mean
/// session (about 107 minutes of catalog length, plus VCR time), so 930
/// arrivals a minute keep about 10^5 viewers live. VCR is sparse: a
/// quarter of the paper's interaction rate, one interaction per 120
/// playback minutes, about one per movie. Most viewers still interact
/// (`workload.vcr_viewer_share`), yet the delivery read path, not VCR
/// planning and dedicated streams, dominates a minute.
pub const STEADY: ServeConfig = ServeConfig {
    name: "serve-steady",
    catalog: CatalogShape {
        slots: &STEADY_SLOTS,
        trace_samples: 400,
    },
    load: LoadShape {
        arrivals_per_min: 930.0,
        skew: (0.8, 0.8),
        mean_play_between: 4.0 * PAPER_PLAY_BETWEEN,
    },
    shards: 1,
    replicas: 0,
    warmup: 130,
    measure: 400,
    fault_events: 0,
    fault_seed: 0,
    audit_every: 200,
};

/// The steady catalog plus four movies, so each of the four shards
/// hosts three.
const CHURN_SLOTS: [MovieSlot; 12] = concat_slots(
    STEADY_SLOTS,
    [
        MovieSlot::new(Family::Exponential, 80, 2.0, 0.60, 4.0),
        MovieSlot::new(Family::Gamma, 95, 3.0, 0.57, 5.0),
        MovieSlot::new(Family::Weibull, 85, 2.5, 0.62, 6.0),
        MovieSlot::new(Family::Empirical, 110, 2.5, 0.60, 5.0),
    ],
);

/// `serve-churn`: four shards, the two hottest movies replicated,
/// VCR-heavy viewers, drifting Zipf skew, and a seeded plan of shard
/// outages and recoveries, disk stream loss, slowdown and buffer
/// shrink.
///
/// VCR is heavy: four times the paper's interaction rate, so admission,
/// VCR planning and the dedicated reserve dominate a minute.
pub const CHURN: ServeConfig = ServeConfig {
    name: "serve-churn",
    catalog: CatalogShape {
        slots: &CHURN_SLOTS,
        trace_samples: 400,
    },
    load: LoadShape {
        arrivals_per_min: 100.0,
        skew: (1.2, 0.4),
        mean_play_between: PAPER_PLAY_BETWEEN / 4.0,
    },
    shards: 4,
    replicas: 2,
    warmup: 130,
    measure: 500,
    fault_events: 14,
    fault_seed: 2026,
    audit_every: 4,
};

impl ServeConfig {
    /// The configuration as a JSON object, for the run context.
    pub fn describe(&self) -> String {
        format!(
            "{{\"movies\": {}, \"trace_samples\": {}, \"arrivals_per_min\": {}, \"skew\": [{}, {}], \
             \"mean_play_between\": {}, \"shards\": {}, \"replicated_hot_movies\": {}, \
             \"warmup_min\": {}, \"measure_min\": {}, \"fault_events\": {}, \"fault_seed\": {}, \
             \"audit_every\": {}, \
             \"budget_rule\": \"ceil(sum ceil(l/w) / 4)\"}}",
            self.catalog.slots.len(),
            self.catalog.trace_samples,
            self.load.arrivals_per_min,
            self.load.skew.0,
            self.load.skew.1,
            self.load.mean_play_between,
            self.shards,
            self.replicas,
            self.warmup,
            self.measure,
            self.fault_events,
            self.fault_seed,
            self.audit_every
        )
    }

    fn horizon(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// The dedicated-stream reserve rule: `vcr_reserve_estimate` at the
/// offered VCR rate (concurrent viewers ÷ mean playback between
/// interactions), the mean VCR duration as phase 1, and half the mean
/// movie length as the residual a miss holds. A federation splits it
/// evenly over its shards.
pub fn vcr_reserve(cfg: &ServeConfig, cat: &Catalog, plan: &ResourcePlan) -> u32 {
    let zipf = Zipf::new(cat.specs.len(), cfg.load.skew.0);
    let mean_len: f64 = (0..cat.specs.len())
        .map(|i| zipf.pmf(i) * f64::from(cat.lengths[i]))
        .sum();
    let ops_per_min = cfg.load.arrivals_per_min * mean_len / cfg.load.mean_play_between;
    let phase1 = mean(&cat.specs.iter().map(|s| s.dist.mean()).collect::<Vec<_>>());
    let total = vcr_reserve_estimate(plan, ops_per_min, phase1, mean_len / 2.0);
    total.div_ceil(cfg.shards.max(1))
}

/// The system under test, as [`drive`] sees it.
trait Target {
    type Id: Copy;
    const OPEN: &'static str;
    const STATUS: &'static str;
    const VCR: &'static str;
    const TICK: &'static str;
    const AUDIT: &'static str;

    /// `Ok(None)`: admission refused.
    fn open(&mut self, movie: usize) -> Result<Option<Self::Id>, String>;
    fn status(&self, id: Self::Id) -> Result<SessionStatus, String>;
    fn vcr(&mut self, id: Self::Id, kind: VcrKind, magnitude: u32) -> Result<(), ServerError>;
    fn tick(&mut self);
    fn reset(&mut self);
    fn audit(&self) -> Vec<String>;
    fn finished(&self) -> u64;
}

/// One batching server built by `make_backend`.
struct Single(Box<dyn DeliveryBackend>);

impl Target for Single {
    type Id = SessionId;
    const OPEN: &'static str = "server.open_session";
    const STATUS: &'static str = "server.session_status";
    const VCR: &'static str = "server.request_vcr";
    const TICK: &'static str = "server.tick";
    const AUDIT: &'static str = "server.check_invariants";

    fn open(&mut self, movie: usize) -> Result<Option<SessionId>, String> {
        self.0
            .open_session(MovieId(movie as u32))
            .map(Some)
            .map_err(|e| format!("open_session: {e}"))
    }
    fn status(&self, id: SessionId) -> Result<SessionStatus, String> {
        self.0
            .session_status(id)
            .map_err(|e| format!("session_status: {e}"))
    }
    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) -> Result<(), ServerError> {
        self.0.request_vcr(id, kind, magnitude)
    }
    fn tick(&mut self) {
        self.0.tick();
    }
    fn reset(&mut self) {
        self.0.reset_metrics();
    }
    fn audit(&self) -> Vec<String> {
        self.0.check_invariants()
    }
    fn finished(&self) -> u64 {
        self.0.sessions_finished()
    }
}

/// A federation, plus the counters of shard incarnations an outage
/// retired (their live metrics vanish with them).
struct Fed {
    fed: Federation,
    outages: Vec<u64>,
    retired: RuntimeMetrics,
}

impl Fed {
    fn runtime(&self) -> RuntimeMetrics {
        let mut total = self.retired.clone();
        for m in self.fed.per_shard_metrics().into_iter().flatten() {
            total.merge(&m);
        }
        total
    }
}

impl Target for Fed {
    type Id = FedSessionId;
    const OPEN: &'static str = "federation.open_session";
    const STATUS: &'static str = "federation.session_status";
    const VCR: &'static str = "federation.request_vcr";
    const TICK: &'static str = "federation.tick";
    const AUDIT: &'static str = "federation.check_invariants";

    fn open(&mut self, movie: usize) -> Result<Option<FedSessionId>, String> {
        Ok(self.fed.open_session(movie))
    }
    fn status(&self, id: FedSessionId) -> Result<SessionStatus, String> {
        Ok(self.fed.session_status(id))
    }
    fn vcr(&mut self, id: FedSessionId, kind: VcrKind, magnitude: u32) -> Result<(), ServerError> {
        self.fed.request_vcr(id, kind, magnitude)
    }
    fn tick(&mut self) {
        let before = self
            .outages
            .binary_search(&self.fed.now())
            .is_ok()
            .then(|| self.fed.per_shard_metrics());
        self.fed.tick();
        for (s, m) in before.into_iter().flatten().enumerate() {
            if let Some(m) = m.filter(|_| !self.fed.shard_up(s)) {
                self.retired.merge(&m);
            }
        }
    }
    fn reset(&mut self) {
        self.fed.reset_metrics();
        self.retired = RuntimeMetrics::new();
    }
    fn audit(&self) -> Vec<String> {
        self.fed.check_invariants()
    }
    fn finished(&self) -> u64 {
        self.fed.sessions_finished()
    }
}

struct Viewer<I> {
    id: I,
    movie: usize,
    session: u64,
    rng: SeededRng,
    next: Option<(VcrRequest, u64)>,
    /// Counts towards the share of viewers that interact.
    tallied: bool,
    /// Has issued a VCR request.
    acted: bool,
}

/// What [`drive`] counted over the measured window.
#[derive(Debug, Default)]
struct Drive {
    steps_ms: Vec<f64>,
    opens: u64,
    refused: u64,
    vcr_issued: u64,
    vcr_denied: u64,
    vcr_other_errors: u64,
    /// Viewers admitted in the window early enough to finish in it.
    tallied: u64,
    /// Of those, viewers that issued at least one VCR request.
    acted: u64,
    unexpected: Vec<String>,
    violations: Vec<String>,
    live_at_end: u64,
}

/// Drive `target` through warm-up and the measured window.
fn drive<T: Target>(
    t: &mut T,
    load: &mut LoadGen,
    cfg: &ServeConfig,
    tracer: &mut Tracer,
) -> Drive {
    let horizon = cfg.horizon();
    // A viewer admitted this long before the end has finished its movie
    // by then, VCR time included.
    let tail = 2 * cfg
        .catalog
        .slots
        .iter()
        .map(|s| u64::from(s.length))
        .max()
        .unwrap_or(0);
    let mut buckets: Vec<Vec<Viewer<T::Id>>> = (0..horizon).map(|_| Vec::new()).collect();
    let mut arrivals = Vec::new();
    let mut d = Drive::default();
    let mut finished_before = 0u64;
    let mut opened_total = 0u64;
    let mut phase = tracer.enter("warmup");
    for minute in 0..horizon {
        let measuring = minute >= cfg.warmup;
        if minute == cfg.warmup {
            tracer.exit(phase);
            finished_before = t.finished();
            t.reset();
            phase = tracer.enter("window");
        }
        let minute_span = tracer.enter("minute");
        // Generator phase.
        let mut due = std::mem::take(&mut buckets[minute as usize]);
        tracer.span("workload.gen", 0, || {
            load.arrivals(minute, &mut arrivals);
            for v in &mut due {
                if v.next.is_none() {
                    v.next = Some(load.interaction(v.movie, &mut v.rng));
                }
            }
        });
        // System phase: one step.
        let step = Instant::now();
        let mut schedule = |v: Viewer<T::Id>, at: u64| {
            if let Some(b) = buckets.get_mut(at as usize) {
                b.push(v);
            }
        };
        for a in arrivals.drain(..) {
            opened_total += 1;
            match tracer.span(T::OPEN, a.session, || t.open(a.movie)) {
                Ok(Some(id)) => {
                    if measuring {
                        d.opens += 1;
                    }
                    let v = Viewer {
                        id,
                        movie: a.movie,
                        session: a.session,
                        rng: a.rng,
                        next: None,
                        tallied: measuring && minute + tail <= horizon,
                        acted: false,
                    };
                    d.tallied += u64::from(v.tallied);
                    schedule(v, minute + a.first_gap);
                }
                Ok(None) => {
                    opened_total -= 1;
                    if measuring {
                        d.opens += 1;
                        d.refused += 1;
                    }
                }
                Err(e) => {
                    opened_total -= 1;
                    if measuring {
                        d.opens += 1;
                        d.unexpected.push(e);
                    }
                }
            }
        }
        for mut v in due {
            let status = match tracer.span(T::STATUS, v.session, || t.status(v.id)) {
                Ok(s) => s,
                Err(e) => {
                    if measuring {
                        d.unexpected.push(e);
                    }
                    continue;
                }
            };
            match status {
                SessionStatus::Done => {}
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let Some((req, gap)) = v.next.take() else {
                        continue;
                    };
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    let r = tracer.span(T::VCR, v.session, || t.vcr(v.id, req.kind, magnitude));
                    if v.tallied && !v.acted {
                        v.acted = true;
                        d.acted += 1;
                    }
                    if measuring {
                        d.vcr_issued += 1;
                        match r {
                            Ok(()) => {}
                            Err(ServerError::VcrDenied) => d.vcr_denied += 1,
                            Err(e) => {
                                d.vcr_other_errors += 1;
                                d.unexpected.push(format!("request_vcr: {e}"));
                            }
                        }
                    }
                    schedule(v, minute + gap);
                }
                // Waiting for a batch, mid-VCR or degraded: the
                // interaction clock runs only during playback.
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    schedule(v, minute + 1);
                }
            }
        }
        tracer.span(T::TICK, 0, || t.tick());
        let step_ms = step.elapsed().as_secs_f64() * 1e3;
        tracer.exit(minute_span);
        if measuring {
            d.steps_ms.push(step_ms);
            if (minute - cfg.warmup).is_multiple_of(cfg.audit_every) || minute + 1 == horizon {
                for v in tracer.span(T::AUDIT, 0, || t.audit()) {
                    d.violations.push(format!("t={minute}: {v}"));
                }
            }
        }
    }
    tracer.exit(phase);
    d.live_at_end = opened_total.saturating_sub(finished_before + t.finished());
    d.unexpected.truncate(16);
    d
}

/// Virtual-time outcome of one serve repetition: a function of the
/// seed only.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeVirtual {
    /// Stream budget the rule gave.
    pub budget: u32,
    /// Dedicated-stream reserve (per shard).
    pub reserve: u32,
    /// `ResourcePlan::cost` of everything provisioned (replicas included).
    pub plan_cost: f64,
    /// Smallest planned `n`.
    pub min_n: u32,
    /// Delivered resume hit ratio.
    pub hit_ratio: f64,
    /// Mean batching wait, minutes (`None` where the API hides it).
    pub startup_wait_min: Option<f64>,
    /// Session opens plus VCR requests.
    pub attempted: u64,
    /// Refused admissions, VCR errors and permanent denials, once each.
    pub denied: u64,
    /// Viewers live at the end of the window.
    pub live_at_end: u64,
    /// Viewers admitted early enough in the window to finish in it, and
    /// how many of them issued at least one VCR request.
    pub vcr_viewers: (u64, u64),
    /// Byte-verified segments delivered.
    pub segments: u64,
    /// Byte-verification failures (`None` where the API hides them).
    pub verify_failures: Option<u64>,
    /// Measured counters, all shards and incarnations.
    pub runtime: RuntimeMetrics,
    /// Federation ledger (federation only).
    pub fed: Option<FederationMetrics>,
}

/// Everything one repetition's set-up built.
enum Built {
    Single(Single),
    Fed(Box<Fed>),
}

fn build(
    cfg: &ServeConfig,
    cat: &Catalog,
    split: &ShardPlan,
    tracer: &mut Tracer,
) -> (Built, u32, ResourcePlan) {
    let reserve = vcr_reserve(cfg, cat, &split.plan);
    if cfg.shards == 1 {
        let config = config_from_plan(&split.plan, &cat.lengths, reserve);
        let backend = tracer.span("server.make_backend", 0, || {
            make_backend(BackendKind::BatchingBuffering, &config)
        });
        return (Built::Single(Single(backend)), reserve, split.plan.clone());
    }
    let (mut shards, mut placement) =
        shards_from_split(split, &cat.lengths, reserve, BackendKind::BatchingBuffering);
    let mut provisioned = split.plan.clone();
    // Second replicas for the hottest movies, on the next shard over.
    let n = split.shards();
    let mut extra: Vec<Vec<usize>> = vec![Vec::new(); n];
    for m in 0..cfg.replicas.min(cat.specs.len()) {
        extra[(split.shard_of(m) + 1) % n].push(m);
    }
    for (s, movies) in extra.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
        let mut local = split.shard_plan(s);
        let mut lengths: Vec<u32> = split.shard_movies[s]
            .iter()
            .map(|&i| cat.lengths[i])
            .collect();
        for &m in movies {
            placement[m].push((s, MovieId(local.allocations.len() as u32)));
            local.allocations.push(split.plan.allocations[m].clone());
            provisioned
                .allocations
                .push(split.plan.allocations[m].clone());
            lengths.push(cat.lengths[m]);
        }
        shards[s].server = config_from_plan(&local, &lengths, reserve);
    }
    let faults = tracer.span("workload.faults", 0, || {
        let raw = FaultPlan::generate_federation(
            cfg.fault_seed,
            cfg.measure,
            cfg.fault_events,
            cfg.shards,
        );
        FaultPlan::new(
            raw.events()
                .iter()
                .map(|e| FaultEvent {
                    at: e.at + cfg.warmup,
                    kind: e.kind,
                })
                .collect(),
        )
    });
    let outages = faults
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::ShardOutage { .. }))
        .map(|e| e.at)
        .collect();
    let config = FederationConfig {
        shards,
        placement,
        policy: DegradePolicy::default(),
    };
    let fed = tracer.span("federation.new", 0, || Federation::new(config, faults));
    (
        Built::Fed(Box::new(Fed {
            fed,
            outages,
            retired: RuntimeMetrics::new(),
        })),
        reserve,
        provisioned,
    )
}

/// What set-up builds: the sized catalog, the system under test and
/// the load generator.
struct Setup {
    cat: Catalog,
    split: ShardPlan,
    budget: u32,
    reserve: u32,
    provisioned: ResourcePlan,
    built: Built,
    load: LoadGen,
}

fn setup(cfg: &ServeConfig, seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let span = tracer.enter("setup");
    let cat = tracer.span("workload.catalog", 0, || gen::catalog(&cfg.catalog, seed))?;
    let (split, budget) = plan::size(&cat, cfg.shards, tracer)?;
    let (built, reserve, provisioned) = build(cfg, &cat, &split, tracer);
    let behaviors = cat
        .specs
        .iter()
        .map(|s| gen::behavior(s, cfg.load.mean_play_between))
        .collect();
    let load = LoadGen::new(cfg.load, behaviors, cfg.horizon(), seed);
    tracer.exit(span);
    Ok(Setup {
        cat,
        split,
        budget,
        reserve,
        provisioned,
        built,
        load,
    })
}

/// One repetition: set up, then warm up and measure.
///
/// # Errors
/// A layer that refuses its input during set-up.
pub fn rep(
    cfg: &ServeConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(f64, RepOut<ServeVirtual>), String> {
    let t0 = Instant::now();
    let Setup {
        cat,
        split,
        budget,
        reserve,
        provisioned,
        mut built,
        mut load,
    } = setup(cfg, seed, tracer)?;
    let setup_s = secs(t0);
    let mut failures = plan::sizing_checks(&cat, &split, budget, cfg.shards);

    let (d, runtime, startup_wait_min, verify_failures, fed) = match &mut built {
        Built::Single(t) => {
            let d = drive(t, &mut load, cfg, tracer);
            let waits = t.0.startup_waits();
            let wait = (waits.count() > 0).then(|| waits.mean());
            (
                d,
                t.0.runtime_metrics(),
                wait,
                Some(t.0.verify_failures()),
                None,
            )
        }
        Built::Fed(t) => {
            let d = drive(t.as_mut(), &mut load, cfg, tracer);
            let rt = t.runtime();
            (d, rt, None, None, Some(t.fed.federation_metrics()))
        }
    };
    let wall_s = secs(t0);

    failures.extend(checks::invariants_hold(&d.violations));
    failures.extend(
        d.unexpected
            .iter()
            .map(|e| format!("unexpected error: {e}")),
    );
    failures.extend(checks::delivery_clean(
        verify_failures.unwrap_or(0),
        runtime.restart_failures,
        cfg.fault_events,
    ));

    let degraded_permanent = runtime.denied_permanent.saturating_sub(runtime.vcr_denied);
    let denied = d.refused
        + d.vcr_denied
        + d.vcr_other_errors
        + degraded_permanent
        + fed.map_or(0, |f| f.denied_permanent);
    let segments = (runtime.buffer_minutes + runtime.disk_minutes) as u64;
    let virt = ServeVirtual {
        budget,
        reserve,
        plan_cost: provisioned.cost(&plan::prices()),
        min_n: plan::min_n(&split.plan),
        hit_ratio: runtime.hit_ratio(),
        startup_wait_min,
        attempted: d.opens + d.vcr_issued,
        denied,
        live_at_end: d.live_at_end,
        vcr_viewers: (d.tallied, d.acted),
        segments,
        verify_failures,
        runtime,
        fed,
    };
    let layers = if tracer.enabled() {
        let mut l = BTreeMap::new();
        plan::probe_layers(&cat, &split.plan, tracer, &mut l)?;
        serve_layers(&virt, &d, tracer, &mut l);
        Some(l)
    } else {
        None
    };
    Ok((
        wall_s,
        RepOut {
            setup_s,
            attempted: virt.attempted,
            failed: d.unexpected.len() as u64,
            steps_ms: d.steps_ms,
            work: segments as f64,
            failures,
            virt,
            layers,
        },
    ))
}

/// The `vod-runtime` counters every workload reports.
pub fn runtime_layers(rt: &RuntimeMetrics, l: &mut BTreeMap<&'static str, f64>) {
    l.insert("runtime.resumes", rt.resumes.trials() as f64);
    l.insert(
        "runtime.hit_ratio.ff",
        rt.resume_ratio(VcrKind::FastForward).value(),
    );
    l.insert(
        "runtime.hit_ratio.rw",
        rt.resume_ratio(VcrKind::Rewind).value(),
    );
    l.insert(
        "runtime.hit_ratio.pau",
        rt.resume_ratio(VcrKind::Pause).value(),
    );
    l.insert("runtime.vcr_denied", rt.vcr_denied as f64);
    l.insert("runtime.denied_transient", rt.denied_transient as f64);
    l.insert("runtime.denied_permanent", rt.denied_permanent as f64);
    l.insert(
        "runtime.acquisition_attempts",
        rt.acquisition_attempts as f64,
    );
    l.insert("runtime.degraded_entries", rt.degraded_entries as f64);
    l.insert("runtime.rewait_minutes", rt.rewait_minutes);
    l.insert("runtime.stall_minutes", rt.stall_minutes);
}

fn serve_layers(v: &ServeVirtual, d: &Drive, tracer: &Tracer, l: &mut BTreeMap<&'static str, f64>) {
    let spans = tracer.spans();
    let window_ms = |name: &str| ns_to_ms(&durations_ns(spans, name, "window"));
    let q = |xs: &[f64], p: f64| quantile(xs, p).unwrap_or(0.0);
    l.insert("sizing.split_s", last_s(spans, "sizing.split_budget"));
    l.insert("plan.min_n", f64::from(v.min_n));
    let rt = &v.runtime;
    l.insert("server.segments", v.segments as f64);
    l.insert("server.buffer_share", rt.buffer_service_fraction());
    l.insert(
        "server.verify_failures",
        v.verify_failures.unwrap_or(0) as f64,
    );
    l.insert("server.restart_failures", rt.restart_failures as f64);
    l.insert("server.dedicated_peak", rt.dedicated_peak);
    runtime_layers(rt, l);
    let (layer, tick, open, vcr) = match v.fed {
        None => ("server", Single::TICK, Single::OPEN, Single::VCR),
        Some(_) => ("federation", Fed::TICK, Fed::OPEN, Fed::VCR),
    };
    let ticks = window_ms(tick);
    let (p50, p99, open_us, vcr_us) = (
        q(&ticks, 0.5),
        q(&ticks, 0.99),
        mean(&window_ms(open)) * 1e3,
        mean(&window_ms(vcr)) * 1e3,
    );
    if layer == "server" {
        l.insert("server.tick_ms_p50", p50);
        l.insert("server.tick_ms_p99", p99);
        l.insert("server.open_us", open_us);
        l.insert("server.vcr_us", vcr_us);
    } else {
        l.insert("federation.tick_ms_p50", p50);
        l.insert("federation.tick_ms_p99", p99);
        l.insert("federation.open_us", open_us);
        l.insert("federation.vcr_us", vcr_us);
        l.insert("federation.audit_us", mean(&window_ms(Fed::AUDIT)) * 1e3);
    }
    if let Some(f) = v.fed {
        l.insert("federation.admissions_routed", f.admissions_routed as f64);
        l.insert(
            "federation.admissions_rerouted",
            f.admissions_rerouted as f64,
        );
        l.insert("federation.admissions_denied", f.admissions_denied as f64);
        l.insert("federation.displaced_total", f.displaced_total as f64);
        let readmitted = f.readmitted_cohort + f.readmitted_dedicated;
        l.insert(
            "federation.readmit_ratio",
            readmitted as f64 / f.displaced_total.max(1) as f64,
        );
        l.insert("federation.readmit_base", f.displaced_total as f64);
        l.insert("federation.rewait_ticks", f.rewait_ticks as f64);
    }
    let gen_ns: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("workload."))
        .map(|s| s.duration_ns())
        .sum();
    l.insert("workload.gen_s", gen_ns as f64 / 1e9);
    l.insert("workload.arrivals", d.opens as f64);
    l.insert("workload.vcr_requests", d.vcr_issued as f64);
}

/// Run a serve workload.
pub fn run(cfg: &ServeConfig, opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    let setup_alone = || {
        let t0 = Instant::now();
        let built = setup(cfg, opts.seed, &mut Tracer::new(false))?;
        let setup_s = secs(t0);
        drop(built);
        Ok(setup_s)
    };
    let reps = match repeat(opts, |tracer| rep(cfg, opts.seed, tracer), setup_alone) {
        Ok(r) => r,
        Err(e) => {
            outcome.failures.push(e);
            return outcome;
        }
    };
    let Some(v) = finish(cfg.name, &reps, opts, &mut outcome) else {
        return outcome;
    };
    let denial_rate = v.denied as f64 / v.attempted.max(1) as f64;
    outcome.metrics.insert("plan_cost", v.plan_cost);
    outcome.metrics.insert("hit_ratio", v.hit_ratio);
    outcome.metrics.insert("served_ratio", 1.0 - denial_rate);
    let figure = |k: &str| {
        outcome
            .figures
            .iter()
            .find(|f| f.0 == k)
            .map_or(0.0, |f| f.1)
    };
    let (tput, p50) = (figure("throughput_per_s"), figure("step_p50_ms"));
    let p99 = outcome.metrics.get("step_p99_ms").copied().unwrap_or(0.0);
    outcome.figure("segments_per_s", tput, "1/s");
    outcome.figure("tick_p50_ms", p50, "ms");
    outcome.figure("tick_p99_ms", p99, "ms");
    outcome.figure("hit_ratio", v.hit_ratio, "ratio");
    if let Some(w) = v.startup_wait_min {
        outcome.figure("startup_wait_min", w, "min");
    }
    outcome.figure("denial_rate", denial_rate, "ratio");
    outcome.figure("denial_rate.attempted", v.attempted as f64, "count");
    outcome.figure("denial_rate.failed", v.denied as f64, "count");
    outcome.figure("plan_cost", v.plan_cost, "USD");
    outcome.figure("plan.min_n", f64::from(v.min_n), "count");
    outcome.figure("stream_budget", f64::from(v.budget), "count");
    outcome.figure("vcr_reserve_per_shard", f64::from(v.reserve), "count");
    outcome.figure("sessions_live_at_end", v.live_at_end as f64, "count");
    let (tallied, acted) = v.vcr_viewers;
    outcome.figure(
        "workload.vcr_viewer_share",
        acted as f64 / tallied.max(1) as f64,
        "ratio",
    );
    outcome.figure("workload.vcr_viewer_base", tallied as f64, "count");
    outcome.figure("segments", v.segments as f64, "count");
    if let Some(f) = v.fed {
        outcome.figure(
            "federation.displaced_total",
            f.displaced_total as f64,
            "count",
        );
        outcome.figure(
            "federation.readmitted",
            (f.readmitted_cohort + f.readmitted_dedicated) as f64,
            "count",
        );
    }
    outcome
}
