//! The benchmark's own tests, on scaled-down configurations: same seed
//! ⇒ bitwise-identical virtual-time outputs; another seed ⇒ different
//! ones; each correctness check fires on a deliberately broken input;
//! `BENCHMARK.json` declares exactly the metrics the command reports.

use std::collections::BTreeMap;

use perfbench::checks;
use perfbench::gen::{CatalogShape, Family, LoadShape, MovieSlot};
use perfbench::plan::{self, AuditConfig, PlanConfig, PlanVirtual};
use perfbench::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use perfbench::run::{finish, Rep, RepOut, Reps, RunOpts};
use perfbench::serve::{self, ServeConfig, ServeVirtual};
use perfbench::trace::Tracer;
use vod_sizing::{MovieAllocation, ResourcePlan};

const SLOTS: &[MovieSlot] = &[
    MovieSlot::new(Family::Exponential, 40, 4.0, 0.6, 5.0),
    MovieSlot::new(Family::Gamma, 45, 5.0, 0.6, 4.0),
    MovieSlot::new(Family::Weibull, 30, 3.0, 0.6, 6.0),
    MovieSlot::new(Family::LogNormal, 24, 4.0, 0.6, 3.0),
    MovieSlot::new(Family::Empirical, 50, 5.0, 0.6, 5.0),
];

const TINY_PLAN: PlanConfig = PlanConfig {
    catalog: CatalogShape {
        slots: SLOTS,
        trace_samples: 60,
    },
    shards: 2,
    audit: AuditConfig {
        arrivals_per_min: 2.0,
        skew: 0.8,
        mean_play_between: 10.0,
        horizon: 600.0,
        warmup: 60.0,
    },
};

const TINY_STEADY: ServeConfig = ServeConfig {
    name: "tiny-steady",
    catalog: CatalogShape {
        slots: SLOTS,
        trace_samples: 60,
    },
    load: LoadShape {
        arrivals_per_min: 20.0,
        skew: (0.8, 0.8),
        mean_play_between: 20.0,
    },
    shards: 1,
    replicas: 0,
    warmup: 50,
    measure: 100,
    fault_events: 0,
    fault_seed: 0,
    audit_every: 10,
};

const TINY_CHURN: ServeConfig = ServeConfig {
    name: "tiny-churn",
    catalog: CatalogShape {
        slots: SLOTS,
        trace_samples: 60,
    },
    load: LoadShape {
        arrivals_per_min: 15.0,
        skew: (1.2, 0.4),
        mean_play_between: 5.0,
    },
    shards: 4,
    replicas: 2,
    warmup: 50,
    measure: 200,
    fault_events: 14,
    fault_seed: 2026,
    audit_every: 1,
};

fn plan_rep(seed: u64, traced: bool) -> RepOut<PlanVirtual> {
    plan::pass(&TINY_PLAN, seed, &mut Tracer::new(traced))
        .expect("tiny plan runs")
        .1
}

fn serve_rep(cfg: &ServeConfig, seed: u64, traced: bool) -> RepOut<ServeVirtual> {
    serve::rep(cfg, seed, &mut Tracer::new(traced))
        .expect("tiny serve runs")
        .1
}

/// Per-layer values that are functions of the seed: everything but
/// host times.
fn virtual_layers(layers: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, u64)> {
    PER_LAYER
        .iter()
        .filter(|d| matches!(d.unit, "count" | "ratio" | "min") && d.name != "trace.overhead")
        .map(|d| (d.name, layers.get(d.name).copied().unwrap_or(0.0).to_bits()))
        .collect()
}

#[test]
fn plan_same_seed_is_bitwise_identical_and_seed_sensitive() {
    let a = plan_rep(5, true);
    let b = plan_rep(5, true);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.virt, b.virt);
    for (x, y) in [
        (a.virt.plan_cost, b.virt.plan_cost),
        (a.virt.audit_gap, b.virt.audit_gap),
        (a.virt.hit_ratio, b.virt.hit_ratio),
        (a.virt.startup_wait_min, b.virt.startup_wait_min),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    let (la, lb) = (a.layers.expect("traced"), b.layers.expect("traced"));
    assert_eq!(virtual_layers(&la), virtual_layers(&lb));
    assert!(la["sim.resumes"] > 0.0 && la["sizing.model_evals"] > 0.0);
    for family in Family::ALL {
        let key = format!("model.p_hit_ms.{}", family.label());
        assert!(la[key.as_str()] > 0.0, "{key} was not probed");
    }

    let c = plan_rep(6, false);
    assert_ne!(a.virt.audit_gap.to_bits(), c.virt.audit_gap.to_bits());
    assert_ne!(a.virt.hit_ratio.to_bits(), c.virt.hit_ratio.to_bits());
}

fn denial_rate(v: &ServeVirtual) -> f64 {
    v.denied as f64 / v.attempted.max(1) as f64
}

#[test]
fn steady_same_seed_is_bitwise_identical_and_seed_sensitive() {
    let a = serve_rep(&TINY_STEADY, 3, true);
    let b = serve_rep(&TINY_STEADY, 3, true);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.virt, b.virt);
    assert_eq!(a.virt.hit_ratio.to_bits(), b.virt.hit_ratio.to_bits());
    assert_eq!(
        denial_rate(&a.virt).to_bits(),
        denial_rate(&b.virt).to_bits()
    );
    let wait = |v: &ServeVirtual| v.startup_wait_min.expect("a single server exposes waits");
    assert_eq!(wait(&a.virt).to_bits(), wait(&b.virt).to_bits());
    let (la, lb) = (a.layers.expect("traced"), b.layers.expect("traced"));
    assert_eq!(virtual_layers(&la), virtual_layers(&lb));
    assert!(la["server.segments"] > 0.0 && la["workload.arrivals"] > 0.0);
    assert!(la["server.tick_ms_p50"] > 0.0);
    assert_eq!(la.get("federation.tick_ms_p50"), None, "no federation here");

    let c = serve_rep(&TINY_STEADY, 4, false);
    assert_ne!(a.virt.segments, c.virt.segments);
    assert_ne!(a.virt.hit_ratio.to_bits(), c.virt.hit_ratio.to_bits());
}

#[test]
fn churn_is_deterministic_and_failover_readmits() {
    let a = serve_rep(&TINY_CHURN, 8, true);
    let b = serve_rep(&TINY_CHURN, 8, true);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.virt, b.virt);
    assert_eq!(
        denial_rate(&a.virt).to_bits(),
        denial_rate(&b.virt).to_bits()
    );
    let (la, lb) = (a.layers.expect("traced"), b.layers.expect("traced"));
    assert_eq!(virtual_layers(&la), virtual_layers(&lb));
    let fed = a.virt.fed.expect("federation metrics");
    assert!(fed.displaced_total > 0, "no shard outage displaced anyone");
    assert!(
        fed.readmitted_cohort + fed.readmitted_dedicated > 0,
        "failover re-admission never ran"
    );
    assert!(la["federation.readmit_base"] > 0.0);

    let c = serve_rep(&TINY_CHURN, 9, false);
    assert_ne!(a.virt, c.virt);
}

fn plan_of(p_hits: &[f64], streams: &[u32]) -> ResourcePlan {
    ResourcePlan {
        allocations: p_hits
            .iter()
            .zip(streams)
            .enumerate()
            .map(|(i, (&p_hit, &n_streams))| MovieAllocation {
                movie: format!("m{i}"),
                n_streams,
                buffer: 10.0,
                p_hit,
            })
            .collect(),
    }
}

#[test]
fn each_check_fires_on_a_broken_input() {
    let ok = plan_of(&[0.7, 0.65], &[3, 4]);
    assert!(checks::plan_feasible(&ok, &[0.6, 0.6], 7).is_empty());
    let below = plan_of(&[0.7, 0.55], &[3, 4]);
    assert_eq!(checks::plan_feasible(&below, &[0.6, 0.6], 7).len(), 1);
    assert_eq!(
        checks::plan_feasible(&ok, &[0.6, 0.6], 6).len(),
        1,
        "over budget"
    );

    assert!(checks::split_partitions(&[vec![0, 2], vec![1]], 3, 2).is_empty());
    assert!(
        !checks::split_partitions(&[vec![0, 1], vec![1]], 3, 2).is_empty(),
        "movie on two shards, one on none"
    );
    assert!(
        !checks::split_partitions(&[vec![0, 1, 2], vec![]], 3, 2).is_empty(),
        "empty shard"
    );
    assert!(
        !checks::split_partitions(&[vec![0, 1, 2]], 3, 2).is_empty(),
        "wrong shard count"
    );

    assert!(checks::delivery_clean(0, 0, 0).is_empty());
    assert_eq!(checks::delivery_clean(1, 0, 0).len(), 1);
    assert_eq!(checks::delivery_clean(0, 2, 0).len(), 1);
    // Under injected faults a restart may find its streams held down;
    // byte verification must still never fail.
    assert!(checks::delivery_clean(0, 2, 14).is_empty());
    assert_eq!(checks::delivery_clean(1, 2, 14).len(), 1);

    assert!(checks::invariants_hold(&[]).is_empty());
    assert_eq!(
        checks::invariants_hold(&["t=3: drift".to_string()]).len(),
        1
    );
}

#[test]
fn sizing_checks_fire_on_a_broken_split() {
    let mut tracer = Tracer::new(false);
    let cat = perfbench::gen::catalog(&TINY_PLAN.catalog, 1).expect("catalog");
    let (mut split, budget) = plan::size(&cat, 2, &mut tracer).expect("sizes");
    assert!(plan::sizing_checks(&cat, &split, budget, 2).is_empty());
    let used = split.plan.total_streams();
    assert!(
        !plan::sizing_checks(&cat, &split, used - 1, 2).is_empty(),
        "over budget"
    );
    let moved = split.shard_movies[1].pop().expect("shard 1 hosts a movie");
    split.shard_movies[0].push(moved);
    split.shard_movies[0].push(moved);
    assert!(
        !plan::sizing_checks(&cat, &split, budget, 2).is_empty(),
        "duplicate placement"
    );
}

/// Names, units and order of the metrics listed under `key` in
/// `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the repository root");
    let as_pairs = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), as_pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), as_pairs(PER_LAYER));
    let workloads: Vec<String> = declared_names(&json, "workloads");
    assert_eq!(workloads, perfbench::WORKLOADS);
}

fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        })
        .collect()
}

fn rep_out(virt: u32, failures: &[&str]) -> Rep<RepOut<u32>> {
    Rep {
        traced: false,
        wall_s: 0.5,
        out: RepOut {
            setup_s: 0.1,
            steps_ms: vec![1.0, 2.0],
            work: 10.0,
            attempted: 4,
            failed: 0,
            failures: failures.iter().map(|f| f.to_string()).collect(),
            virt,
            layers: None,
        },
    }
}

fn finished(reps: Vec<Rep<RepOut<u32>>>) -> Outcome {
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        trace_dir: std::env::temp_dir(),
    };
    let mut outcome = Outcome::default();
    finish(
        "test",
        &Reps {
            reps,
            extra_setups: Vec::new(),
            last_trace: None,
        },
        &opts,
        &mut outcome,
    );
    outcome
}

#[test]
fn finish_fails_a_run_whose_repetitions_disagree_or_fail() {
    let agree = finished(vec![rep_out(7, &[]), rep_out(7, &[])]);
    assert!(agree.correct(END_TO_END), "{:?}", agree.failures);

    let disagree = finished(vec![rep_out(7, &[]), rep_out(8, &[])]);
    assert!(!disagree.correct(END_TO_END));
    assert!(disagree.failures[0].contains("disagree"));

    // A violation found in any repetition (here the second) reaches the
    // outcome once, however many repetitions report it.
    let violation = checks::invariants_hold(&["t=3: drift".to_string()]);
    let v: Vec<&str> = violation.iter().map(String::as_str).collect();
    let failed = finished(vec![rep_out(7, &[]), rep_out(7, &v), rep_out(7, &v)]);
    assert!(!failed.correct(END_TO_END));
    assert_eq!(failed.failures, violation);
}
