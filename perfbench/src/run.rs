//! Run options, run context and the repetition loop shared by every
//! workload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::report::Outcome;
use crate::stats::{beyond, mean, median, quantile};
use crate::trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning, for re-checking a claim made on other seeds.
pub const HELD_OUT_SEED: u64 = 2_718_281;

/// Repetitions every run makes, at least: enough set-up samples for a
/// median, and on the serve workloads at least 1200 steps.
pub const MIN_REPS: usize = 3;

/// Set-up samples an untraced run takes, at least: when its
/// repetitions stop short of this, set-ups alone top them up, so that
/// `setup_s` is a median of at least this many.
pub const MIN_SETUPS: usize = 9;

/// Hard cap on repetitions, so a very fast repetition cannot spin.
const MAX_REPS: usize = 10_000;

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Seconds of measurement to aim for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// One repetition's result: whether it was traced, its wall time
/// (set-up plus measured work, seconds) and what the workload kept.
#[derive(Debug)]
pub struct Rep<T> {
    /// Spans were recorded.
    pub traced: bool,
    /// Wall seconds of set-up and measured work.
    pub wall_s: f64,
    /// Workload-specific result.
    pub out: T,
}

/// Every repetition of a run, plus the spans of the last traced one.
#[derive(Debug)]
pub struct Reps<T> {
    /// In run order.
    pub reps: Vec<Rep<T>>,
    /// Seconds of the set-ups made alone, after the repetitions.
    pub extra_setups: Vec<f64>,
    /// Tracer of the last traced repetition.
    pub last_trace: Option<Tracer>,
}

/// Repeat `rep` (set up, then measure) until `opts.seconds` have passed
/// and at least [`MIN_REPS`] repetitions ran. A traced run alternates
/// untraced and traced repetitions, starting untraced, so the two can
/// be compared for tracing overhead. `rep` returns its own wall time so
/// traced-only probes it makes afterwards stay out of it. An untraced
/// run then calls `setup` (set up alone, return its seconds) until it
/// has [`MIN_SETUPS`] set-up samples.
///
/// # Errors
/// The first error a repetition or set-up returns.
pub fn repeat<T>(
    opts: &RunOpts,
    mut rep: impl FnMut(&mut Tracer) -> Result<(f64, T), String>,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<Reps<T>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last_trace = None;
    while reps.len() < MAX_REPS {
        let traced = opts.trace && reps.len() % 2 == 1;
        let mut tracer = Tracer::new(traced);
        let (wall_s, out) = rep(&mut tracer)?;
        reps.push(Rep {
            traced,
            wall_s,
            out,
        });
        if traced {
            last_trace = Some(tracer);
        }
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut extra_setups = Vec::new();
    while !opts.trace && reps.len() + extra_setups.len() < MIN_SETUPS {
        extra_setups.push(setup()?);
    }
    Ok(Reps {
        reps,
        extra_setups,
        last_trace,
    })
}

/// What a workload keeps from one repetition.
#[derive(Debug)]
pub struct RepOut<V> {
    /// Set-up seconds: everything before the first timed operation.
    pub setup_s: f64,
    /// Host milliseconds of each measured step, in step order. Every
    /// repetition of a seed replays the same steps.
    pub steps_ms: Vec<f64>,
    /// Units of work the measured steps completed.
    pub work: f64,
    /// Operations issued to the program.
    pub attempted: u64,
    /// Operations that returned an error no correct run gives.
    pub failed: u64,
    /// Correctness failures found.
    pub failures: Vec<String>,
    /// Virtual-time outcome; identical for every repetition of a seed.
    pub virt: V,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

/// Fold the repetitions of workload `name` into `outcome`: correctness
/// failures, the host-time end-to-end metrics, and on a traced run the
/// per-layer metrics of the last traced repetition plus
/// `trace.overhead`; the spans are written to `opts.trace_dir`. Returns
/// the virtual-time outcome, which the repetitions must agree on
/// exactly.
///
/// Host-time metrics come from the untraced repetitions: `setup_s` is
/// the median set-up (extra set-ups included), and `step_mean_ms` and `step_p99_ms` the mean and
/// 99th percentile of every step of every repetition. The mean, not the
/// median, is gated: on a shared host whose contention comes and goes,
/// the mean moves in proportion to the contended share of the run, while
/// the median jumps between the quiet and the contended level.
pub fn finish<'a, V: PartialEq>(
    name: &str,
    reps: &'a Reps<RepOut<V>>,
    opts: &RunOpts,
    outcome: &mut Outcome,
) -> Option<&'a V> {
    let first = &reps.reps.first()?.out;
    outcome.attempted = first.attempted;
    outcome.failed = first.failed;
    for f in reps.reps.iter().flat_map(|r| &r.out.failures) {
        if !outcome.failures.contains(f) {
            outcome.failures.push(f.clone());
        }
    }
    if reps.reps.iter().any(|r| r.out.virt != first.virt) {
        outcome
            .failures
            .push("repetitions of one seed disagree on virtual-time outputs".to_string());
    }
    let plain: Vec<&RepOut<V>> = reps
        .reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| &r.out)
        .collect();
    let setups: Vec<f64> = plain
        .iter()
        .map(|r| r.setup_s)
        .chain(reps.extra_setups.iter().copied())
        .collect();
    let pooled: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.steps_ms.iter().copied())
        .collect();
    let step_s: f64 = pooled.iter().sum::<f64>() / 1e3;
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("step_mean_ms", mean(&pooled));
    m.insert("step_p99_ms", quantile(&pooled, 0.99).unwrap_or(0.0));
    m.insert("peak_rss_mib", peak_rss_mib());
    let work: f64 = plain.iter().map(|r| r.work).sum();
    outcome.figure(
        "throughput_per_s",
        if step_s > 0.0 { work / step_s } else { 0.0 },
        "1/s",
    );
    outcome.figure("step_p50_ms", quantile(&pooled, 0.5).unwrap_or(0.0), "ms");
    outcome.figure("repetitions", reps.reps.len() as f64, "count");
    outcome.figure("setup_samples", setups.len() as f64, "count");
    outcome.figure("step_samples", pooled.len() as f64, "count");
    outcome.figure(
        "step_samples_beyond_p99",
        beyond(&pooled, 0.99) as f64,
        "count",
    );
    if opts.trace {
        if let Some(layers) = reps.reps.iter().rev().find_map(|r| r.out.layers.as_ref()) {
            outcome.metrics.extend(layers.iter().map(|(k, v)| (*k, *v)));
        }
        let wall = |traced: bool| {
            median(
                &reps
                    .reps
                    .iter()
                    .filter(|r| r.traced == traced)
                    .map(|r| r.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        let (on, off) = (wall(true), wall(false));
        outcome
            .metrics
            .insert("trace.overhead", if off > 0.0 { on / off } else { 0.0 });
        if let Some(tracer) = &reps.last_trace {
            let dir = &opts.trace_dir;
            let path = dir.join(format!("{name}.csv"));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| tracer.write_csv(f));
            match written {
                Ok(()) => outcome.figure(
                    format!("trace.spans ({})", path.display()),
                    tracer.spans().len() as f64,
                    "count",
                ),
                Err(e) => outcome
                    .failures
                    .push(format!("writing {}: {e}", path.display())),
            }
        }
    }
    Some(&first.virt)
}

/// Logical cores available to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the working directory, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next())
                            .map(str::to_string)
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
