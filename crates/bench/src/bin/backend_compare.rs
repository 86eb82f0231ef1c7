//! Backend comparison sweep: the same seeded workload, catalog, and
//! startup-wait promise through all three delivery backends
//! ([`vod_server::DeliveryBackend`]) —
//! batching+buffering (the paper's scheme), pyramid fast broadcasting,
//! and the pure-unicast dedicated-stream baseline — across a catalog
//! size × offered load grid.
//!
//! Each cell reports the Eq. 23 provisioning cost `C = C_n(φ·ΣB + Σn)`
//! at the paper's Example 2 prices (φ ≈ 10.7), the resume hit
//! probability `P(hit)`, and the mean startup wait. Identical seeds per
//! cell make the columns directly comparable. Writes
//! `results/BENCH_backend_compare.json`; `--smoke` runs a reduced grid
//! with hard assertions and writes nothing (CI gate).
//!
//! ```sh
//! cargo run --release -p vod-bench --bin backend_compare [-- --smoke]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_runtime::BackendKind;
use vod_server::{
    run_harness_backend, BackendRun, HarnessConfig, HostedMovie, MovieId, ServerConfig,
    WorkloadConfig, WorkloadShape,
};
use vod_sizing::HardwareSpec;
use vod_workload::BehaviorModel;

const MOVIE_LEN: u32 = 120;
const STREAMS_PER_MOVIE: u32 = 20;
const BUFFER_PER_MOVIE: f64 = 100.0;
const VCR_RESERVE: u32 = 40;

struct Grid {
    catalogs: Vec<u32>,
    interarrivals: Vec<f64>,
    seeds: Vec<u64>,
    warmup: u64,
    measure: u64,
}

fn grid(smoke: bool) -> Grid {
    if smoke {
        Grid {
            catalogs: vec![1],
            interarrivals: vec![2.0],
            seeds: vec![11],
            warmup: 120,
            measure: 360,
        }
    } else {
        Grid {
            catalogs: vec![1, 3],
            interarrivals: vec![4.0, 2.0, 1.0],
            seeds: vec![11, 2026],
            warmup: 240,
            measure: 1200,
        }
    }
}

fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

/// The shared provisioning for a `catalog`-movie cell: every movie gets
/// the harness geometry `(l = 120, n = 20, B = 100)`, one pool, one VCR
/// reserve. `make_backend` re-derives each scheme's own envelope from
/// this config, holding the catalog and wait promise fixed.
fn harness_config(catalog: u32, interarrival: f64, g: &Grid) -> HarnessConfig {
    let movies: Vec<HostedMovie> = (0..catalog)
        .map(|m| {
            HostedMovie::from_allocation(MovieId(m), MOVIE_LEN, STREAMS_PER_MOVIE, BUFFER_PER_MOVIE)
        })
        .collect();
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(movies, VCR_RESERVE)
        },
        workload: WorkloadConfig {
            movies: (0..catalog as usize).collect(),
            behavior: behavior(),
            mean_interarrival: interarrival,
            warmup: g.warmup,
            measure: g.measure,
            shape: WorkloadShape::RoundRobin,
        },
    }
}

fn json_cell(catalog: u32, interarrival: f64, seed: u64, run: &BackendRun, cost: f64) -> String {
    format!(
        "    {{\"catalog\": {catalog}, \"interarrival\": {interarrival}, \"seed\": {seed}, \
         \"backend\": \"{}\", \"io_streams\": {}, \"buffer_segments\": {}, \
         \"cost\": {cost:.3}, \"hit_ratio\": {:.6}, \
         \"startup_wait_mean\": {:.6}, \"startup_wait_samples\": {}, \
         \"sessions_opened\": {}, \"sessions_done\": {}, \"violations\": {}, \
         \"metrics\": {}}}",
        run.kind.name(),
        run.io_streams,
        run.buffer_segments,
        run.outcome.metrics.hit_ratio(),
        run.startup_wait_mean,
        run.startup_wait_samples,
        run.outcome.sessions_opened,
        run.outcome.sessions_done,
        run.outcome.violation_count,
        run.outcome.metrics.to_json(),
    )
}

fn main() -> ExitCode {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("backend_compare: unknown argument `{other}` (expected --smoke)");
                return ExitCode::from(2);
            }
        }
    }
    let g = grid(smoke);
    let prices = HardwareSpec::paper_example2()
        .resource_cost()
        .expect("paper prices are valid");
    let mut failures: Vec<String> = Vec::new();
    let mut cells: Vec<String> = Vec::new();
    let mut t = Table::new(vec![
        "catalog", "1/λ", "seed", "backend", "Σn", "ΣB", "cost $", "P(hit)", "wait μ", "opened",
        "done", "violat.",
    ]);
    for &catalog in &g.catalogs {
        for &interarrival in &g.interarrivals {
            let cfg = harness_config(catalog, interarrival, &g);
            for &seed in &g.seeds {
                for backend in BackendKind::ALL {
                    let run = run_harness_backend(&cfg, backend, seed);
                    let cost = prices.total(run.buffer_segments as f64, run.io_streams);
                    if run.outcome.violation_count > 0 {
                        failures.push(format!(
                            "{backend} catalog {catalog} 1/λ {interarrival} seed {seed}: \
                             {} invariant violation(s), first: {}",
                            run.outcome.violation_count,
                            run.outcome.violations.first().map_or("?", |v| v.as_str()),
                        ));
                    }
                    if run.startup_wait_samples == 0 {
                        failures.push(format!(
                            "{backend} catalog {catalog} 1/λ {interarrival} seed {seed}: \
                             no startup waits sampled"
                        ));
                    }
                    t.row(vec![
                        catalog.to_string(),
                        interarrival.to_string(),
                        seed.to_string(),
                        backend.name().to_string(),
                        run.io_streams.to_string(),
                        run.buffer_segments.to_string(),
                        num(cost, 0),
                        num(run.outcome.metrics.hit_ratio(), 3),
                        num(run.startup_wait_mean, 2),
                        run.outcome.sessions_opened.to_string(),
                        run.outcome.sessions_done.to_string(),
                        run.outcome.violation_count.to_string(),
                    ]);
                    cells.push(json_cell(catalog, interarrival, seed, &run, cost));
                }
            }
        }
    }
    println!(
        "# Backend comparison (l = {MOVIE_LEN}, n = {STREAMS_PER_MOVIE}, B = {BUFFER_PER_MOVIE} \
         per movie, reserve {VCR_RESERVE}, φ = {:.2}, warmup {}, measure {}{})",
        prices.phi(),
        g.warmup,
        g.measure,
        if smoke { ", SMOKE" } else { "" }
    );
    print!("{}", t.render());
    println!(
        "(cost = C_n(φ·ΣB + Σn) at Example 2 prices; wait μ = mean minutes from open to \
         scheduled start; pyramid's client-side buffer is not priced)"
    );

    let ok = failures.is_empty();
    if smoke {
        // CI gate: assert, print, and leave the canonical JSON alone.
        if !ok {
            for f in &failures {
                eprintln!("BACKEND_COMPARE FAILURE: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("smoke sweep passed (canonical JSON untouched)");
        return ExitCode::SUCCESS;
    }
    let json = format!(
        "{{\n  \"ok\": {ok},\n  \"phi\": {:.6},\n  \"failures\": [{}],\n  \"cells\": [\n{}\n  ]\n}}\n",
        prices.phi(),
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
        cells.join(",\n")
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_backend_compare.json", json).expect("write json");
    println!("\nwrote results/BENCH_backend_compare.json");
    if !ok {
        for f in &failures {
            eprintln!("BACKEND_COMPARE FAILURE: {f}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
