//! Three-way cross-validation of the shared `vod-runtime` semantics:
//! run the same `(l, B, n, VCR mix)` configuration through
//!
//! 1. the analytic model (`p_hit_single_dist`, continuous time),
//! 2. the discrete-event simulator (`vod-sim`, continuous time),
//! 3. the tick server (`vod-server` + its load harness, integer minutes),
//!
//! and tabulate the hit probabilities side by side. Writes the full
//! [`vod_runtime::RuntimeMetrics`] of the sim and server legs to
//! `results/CROSS_VALIDATION.json` — the two legs share one metric
//! vocabulary, so the JSON objects are field-for-field comparable.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin cross_validate
//! ```

use std::sync::Arc;

use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_server::{
    HarnessConfig, HostedMovie, MovieId, ServerConfig, WorkloadConfig, WorkloadShape,
};
use vod_sim::{run_seeded, SimConfig};
use vod_workload::BehaviorModel;

/// One validated configuration: Figure 7(d)'s mixed workload along the
/// `w = 1` column.
struct Case {
    n: u32,
    wait: f64,
}

const MOVIE_LEN: f64 = 120.0;
const SEED: u64 = 2026;

fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

fn main() {
    let cases = [
        Case { n: 20, wait: 1.0 },
        Case { n: 40, wait: 1.0 },
        Case { n: 60, wait: 1.0 },
    ];
    let mut t = Table::new(vec![
        "n",
        "B",
        "model",
        "sim",
        "server",
        "sim-model",
        "srv-model",
        "srv-sim",
    ]);
    let mut json_cases = Vec::new();
    for case in &cases {
        let params = SystemParams::from_wait(MOVIE_LEN, case.wait, case.n, Rates::paper())
            .expect("valid configuration");
        let model = p_hit_single_dist(
            &params,
            &Gamma::paper_fig7(),
            &VcrMix::paper_fig7d(),
            &ModelOptions::default(),
        )
        .total;

        let mut sim_cfg = SimConfig::new(params, behavior());
        sim_cfg.horizon = 40.0 * MOVIE_LEN;
        sim_cfg.warmup = 2.0 * MOVIE_LEN;
        let sim = run_seeded(&sim_cfg, SEED);

        let movie =
            HostedMovie::from_allocation(MovieId(0), MOVIE_LEN as u32, case.n, params.buffer());
        let harness = HarnessConfig {
            server: ServerConfig {
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 80)
            },
            workload: WorkloadConfig {
                movies: vec![0],
                behavior: behavior(),
                mean_interarrival: sim_cfg.mean_interarrival,
                warmup: sim_cfg.warmup as u64,
                measure: (sim_cfg.horizon - sim_cfg.warmup) as u64,
                shape: WorkloadShape::RoundRobin,
            },
        };
        let server = vod_server::run_harness(&harness, SEED);

        let sim_hit = sim.runtime.hit_ratio();
        let srv_hit = server.hit_ratio();
        t.row(vec![
            case.n.to_string(),
            num(params.buffer(), 0),
            num(model, 3),
            num(sim_hit, 3),
            num(srv_hit, 3),
            num(sim_hit - model, 3),
            num(srv_hit - model, 3),
            num(srv_hit - sim_hit, 3),
        ]);
        json_cases.push(format!(
            "    {{\"n\": {}, \"buffer\": {}, \"wait\": {}, \"model_p_hit\": {:.6}, \
             \"sim\": {}, \"server\": {}}}",
            case.n,
            params.buffer(),
            case.wait,
            model,
            sim.runtime.to_json(),
            server.to_json()
        ));
    }
    println!("# Three-way cross-validation (l = 120, w = 1, mix 0.2/0.2/0.6, seed {SEED})");
    print!("{}", t.render());
    println!("(model: continuous time; sim: continuous time, one seed; server: integer ticks)");

    let json = format!(
        "{{\n  \"seed\": {SEED},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_cases.join(",\n")
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/CROSS_VALIDATION.json", json).expect("write json");
    println!("\nwrote results/CROSS_VALIDATION.json");
}
