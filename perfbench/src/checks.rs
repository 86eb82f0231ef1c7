//! Correctness checks. Each returns the failures it found, one line
//! each; an empty list means the check passed. They take plain data so
//! the tests can feed them deliberately broken inputs.

use vod_sizing::ResourcePlan;

/// A plan is feasible when every movie meets its hit-probability target
/// (`targets[i]` for allocation `i`) and the plan stays within the
/// stream budget.
pub fn plan_feasible(plan: &ResourcePlan, targets: &[f64], stream_budget: u32) -> Vec<String> {
    let mut out = Vec::new();
    if plan.allocations.len() != targets.len() {
        out.push(format!(
            "plan has {} allocations for {} movies",
            plan.allocations.len(),
            targets.len()
        ));
    }
    for (a, &target) in plan.allocations.iter().zip(targets) {
        if a.p_hit.is_nan() || a.p_hit < target {
            out.push(format!(
                "{}: planned P(hit) {} below its target {target}",
                a.movie, a.p_hit
            ));
        }
    }
    if plan.total_streams() > stream_budget {
        out.push(format!(
            "plan uses {} streams, over the budget of {stream_budget}",
            plan.total_streams()
        ));
    }
    out
}

/// A split places every one of `movies` movies on exactly one of
/// `shards` shards, and leaves no shard empty.
pub fn split_partitions(shard_movies: &[Vec<usize>], movies: usize, shards: usize) -> Vec<String> {
    let mut out = Vec::new();
    if shard_movies.len() != shards {
        out.push(format!(
            "split has {} shards, asked for {shards}",
            shard_movies.len()
        ));
    }
    let mut seen = vec![0u32; movies];
    for (s, ms) in shard_movies.iter().enumerate() {
        if ms.is_empty() {
            out.push(format!("shard {s} hosts no movie"));
        }
        for &i in ms {
            match seen.get_mut(i) {
                Some(c) => *c += 1,
                None => out.push(format!("shard {s} hosts unknown movie {i}")),
            }
        }
    }
    for (i, &c) in seen.iter().enumerate() {
        if c != 1 {
            out.push(format!("movie {i} placed on {c} shards"));
        }
    }
    out
}

/// Byte verification must never fail. Scheduled restarts must never
/// fail either, unless the workload injects faults (`fault_events > 0`):
/// a restart may then legitimately find its streams held down.
pub fn delivery_clean(
    verify_failures: u64,
    restart_failures: u64,
    fault_events: u32,
) -> Vec<String> {
    let mut out = Vec::new();
    if verify_failures > 0 {
        out.push(format!(
            "{verify_failures} segments failed byte verification"
        ));
    }
    if restart_failures > 0 && fault_events == 0 {
        out.push(format!(
            "{restart_failures} scheduled restarts found no stream"
        ));
    }
    out
}

/// Every audited tick's `check_invariants()` must come back empty;
/// `violations` holds what the audits returned, tagged with the tick.
pub fn invariants_hold(violations: &[String]) -> Vec<String> {
    violations
        .iter()
        .take(8)
        .map(|v| format!("invariant violated: {v}"))
        .chain(
            (violations.len() > 8).then(|| format!("... {} violations in all", violations.len())),
        )
        .collect()
}
