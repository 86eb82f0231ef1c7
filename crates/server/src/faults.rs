//! Disk-fault and dedicated-lease bookkeeping shared by the three
//! delivery backends.
//!
//! Every backend enforces the paper's split the same way: playback
//! (restart streams, broadcast channels) is pre-allocated on the
//! [`DiskSubsystem`], and VCR or dedicated service draws only on the
//! [`StreamReserve`] carved out of the rest. [`DiskFaults`] owns that
//! pair together with the injected [`FaultPlan`], the [`DegradePolicy`],
//! the slowdown window and the outage-recovery schedule, so a lease, a
//! fault and a recovery move both ledgers in lockstep in one place.
//! Degraded sessions retry through a [`RetryLedger`] stepped by
//! [`DiskFaults::retry`]; what a revocation, a rejoin or a timeout does
//! to a session stays in the backend.

use std::collections::BTreeMap;

use vod_runtime::{
    DegradePolicy, FaultKind, FaultPlan, RetryLedger, RetryStep, RuntimeMetrics, StreamReserve,
};

use crate::disk::{DiskSubsystem, StreamLease};

/// The stream pool, its dedicated reserve, and the fault state acting on
/// both. See the module docs.
pub(crate) struct DiskFaults {
    /// The provisioned stream pool.
    pub(crate) disk: DiskSubsystem,
    /// Accountant of the streams VCR and dedicated service may hold.
    pub(crate) reserve: StreamReserve,
    /// Injected fault schedule (empty unless armed).
    plan: FaultPlan,
    /// Degradation policy applied to sessions that lose their stream.
    pub(crate) policy: DegradePolicy,
    /// True once a non-empty plan is injected; gates the fault-only
    /// paths, so a fault-free run stays bitwise identical.
    pub(crate) fault_mode: bool,
    /// Active disk slowdown `(period, until)`: streams serve only on
    /// ticks divisible by `period`, through tick `until` exclusive.
    slowdown: Option<(u32, u64)>,
    /// Outage recoveries by tick: streams to return to service.
    recovery_due: BTreeMap<u64, u32>,
    /// Tick of the latest recovery that returned streams; a retry
    /// timeout expiring on that tick may get one last attempt.
    recovered_at: Option<u64>,
    /// Sessions currently holding an open [`RetryLedger`].
    pub(crate) degraded_count: u32,
}

/// How a backend's reaction to revoked leases settled them (see
/// [`DiskFaults::fail_streams`]).
pub(crate) struct Revoked {
    /// Revoked leases that held a reserve slot.
    pub(crate) reserve_holds: u32,
    /// Revoked streams whose loss the reserve does not absorb (pyramid
    /// channels re-acquire from the disk directly).
    pub(crate) outside_reserve: u32,
}

/// Take one stream from reserve and disk in lockstep, counting the
/// attempt; `None` when either is exhausted.
fn lease(
    disk: &mut DiskSubsystem,
    reserve: &mut StreamReserve,
    now: u64,
    rt: &mut RuntimeMetrics,
) -> Option<StreamLease> {
    rt.acquisition_attempts += 1;
    let t = now as f64;
    if !reserve.try_acquire(t) {
        return None;
    }
    match disk.acquire() {
        Ok(lease) => Some(lease),
        Err(_) => {
            reserve.release(t);
            None
        }
    }
}

impl DiskFaults {
    /// Bookkeeping over `disk` and its dedicated `reserve`, unarmed.
    pub(crate) fn new(disk: DiskSubsystem, reserve: StreamReserve) -> Self {
        Self {
            disk,
            reserve,
            plan: FaultPlan::empty(),
            policy: DegradePolicy::default(),
            fault_mode: false,
            slowdown: None,
            recovery_due: BTreeMap::new(),
            recovered_at: None,
            degraded_count: 0,
        }
    }

    /// Arm a fault schedule and degradation policy. An empty plan leaves
    /// behavior bitwise identical to never arming.
    pub(crate) fn inject(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        self.fault_mode = !plan.is_empty();
        self.plan = plan;
        self.policy = policy;
    }

    /// Lease one dedicated stream, counting the attempt.
    pub(crate) fn acquire(&mut self, now: u64, rt: &mut RuntimeMetrics) -> Option<StreamLease> {
        lease(&mut self.disk, &mut self.reserve, now, rt)
    }

    /// Return a dedicated lease to disk and reserve.
    pub(crate) fn release(&mut self, now: u64, lease: StreamLease) {
        self.disk.release(lease);
        self.reserve.release(now as f64);
    }

    /// Start tick `now`: return the streams of outages ending now to
    /// service (disk and reserve in lockstep), then hand back the fault
    /// events scheduled for the tick. Recoveries land first, so an outage
    /// ending as a new fault strikes frees capacity before it is lost.
    pub(crate) fn begin_tick(&mut self, now: u64) -> Vec<FaultKind> {
        if let Some(count) = self.recovery_due.remove(&now) {
            let recovered = self.disk.recover_streams(count);
            self.reserve.recover_streams(recovered);
            if recovered > 0 {
                self.recovered_at = Some(now);
            }
        }
        self.plan.events_at(now).iter().map(|e| e.kind).collect()
    }

    /// Schedule `streams` lost to an outage at `now` to return
    /// `recover_after` ticks later — at least one tick later, since this
    /// tick's recoveries are already drained.
    pub(crate) fn recover_later(&mut self, now: u64, recover_after: u64, streams: u32) {
        if streams > 0 {
            let due = now.saturating_add(recover_after.max(1));
            *self.recovery_due.entry(due).or_insert(0) += streams;
        }
    }

    /// Start a slowdown at `now`: for `duration` ticks streams serve only
    /// every `period`-th tick (`period ≤ 1` is a no-op).
    pub(crate) fn slow_down(&mut self, now: u64, period: u32, duration: u64) {
        if period > 1 {
            self.slowdown = Some((period, now.saturating_add(duration)));
        }
    }

    /// Is the disk serving at tick `now` (false only on the off-period
    /// ticks of an active slowdown)?
    pub(crate) fn serving(&self, now: u64) -> bool {
        match self.slowdown {
            Some((period, until)) if now < until => now.is_multiple_of(u64::from(period)),
            _ => true,
        }
    }

    /// Remove `count` streams of `backend`'s disk from service at `now`;
    /// returns how many actually failed. Free streams fail first, then
    /// the newest leases are revoked and `react` strips them from their
    /// holders. The reserve slots of revoked holders are released
    /// *before* the reserve marks its share of the loss failed: the
    /// reserve only fails free slots, so failing first would leave it
    /// claiming capacity the disk no longer has.
    pub(crate) fn fail_streams<B>(
        backend: &mut B,
        faults: fn(&mut B) -> &mut DiskFaults,
        now: u64,
        count: u32,
        react: impl FnOnce(&mut B, &[u64]) -> Revoked,
    ) -> u32 {
        let f = faults(backend);
        let before = f.disk.failed();
        let revoked = f.disk.fail_streams(count);
        let newly_failed = f.disk.failed().saturating_sub(before);
        let settled = react(backend, &revoked);
        let f = faults(backend);
        for _ in 0..settled.reserve_holds {
            f.reserve.release(now as f64);
        }
        f.reserve
            .fail_streams(newly_failed.saturating_sub(settled.outside_reserve));
        newly_failed
    }

    /// Open a retry ledger for a session degraded at `now` with `pending`
    /// refusals, counting it into the degraded census.
    pub(crate) fn degrade(
        &mut self,
        now: u64,
        pending: u64,
        rt: &mut RuntimeMetrics,
    ) -> RetryLedger {
        self.degraded_count += 1;
        rt.degraded_entries += 1;
        RetryLedger::new(now, &self.policy, pending)
    }

    /// One retry step of a degraded session's `ledger` at `now`, leasing
    /// from reserve and disk (see [`RetryLedger::step`]).
    pub(crate) fn retry(
        &mut self,
        ledger: &mut RetryLedger,
        now: u64,
        rt: &mut RuntimeMetrics,
    ) -> RetryStep<StreamLease> {
        let recovered_now = self.recovered_at == Some(now);
        let disk = &mut self.disk;
        ledger.step(
            now,
            &self.policy,
            recovered_now,
            &mut self.reserve,
            |reserve| lease(disk, reserve, now, rt),
        )
    }

    /// Take a session out of the degraded census. Refusals its ledger
    /// still holds resolve permanent; a grant or a timeout has already
    /// resolved them.
    pub(crate) fn exit_degraded(&mut self, ledger: &RetryLedger) {
        ledger.close(&mut self.reserve);
        debug_assert!(
            self.degraded_count > 0,
            "degraded session outside the census"
        );
        self.degraded_count -= 1;
    }

    /// `base` with the reserve's occupancy and denial tallies at `now`.
    pub(crate) fn runtime_metrics(&self, base: &RuntimeMetrics, now: u64) -> RuntimeMetrics {
        let mut rt = base.clone();
        rt.dedicated_avg = self.reserve.average(now as f64);
        rt.dedicated_peak = self.reserve.peak();
        rt.denied_transient = self.reserve.denied_transient();
        rt.denied_permanent = self.reserve.denied_permanent();
        rt
    }

    /// Conservation audit of the stream ledgers, given what the backend
    /// counts: `playback` leases held outside the reserve, `dedicated`
    /// leases held by sessions, and `degraded` sessions. Checks
    /// `in_use + free + failed == provisioned` on the disk, that every
    /// in-use stream is one of those leases, that the reserve's holds are
    /// exactly the dedicated ones, that the reserve never fails more
    /// streams than the disk (exactly as many when it spans the whole
    /// pool), and the degraded census.
    pub(crate) fn check_invariants(
        &self,
        playback: u32,
        dedicated: u32,
        degraded: u32,
    ) -> Vec<String> {
        let mut v = Vec::new();
        let disk = &self.disk;
        if disk.in_use() + disk.available() + disk.failed() != disk.capacity() {
            v.push(format!(
                "disk conservation broken: in_use {} + free {} + failed {} != provisioned {}",
                disk.in_use(),
                disk.available(),
                disk.failed(),
                disk.capacity()
            ));
        }
        if playback + dedicated != disk.in_use() {
            v.push(format!(
                "lease conservation broken: playback holds {playback}, sessions hold \
                 {dedicated}, disk says {} in use",
                disk.in_use()
            ));
        }
        if dedicated != self.reserve.in_use() {
            v.push(format!(
                "reserve drift: sessions hold {dedicated} dedicated leases, reserve says {}",
                self.reserve.in_use()
            ));
        }
        let whole_pool = self.reserve.capacity() == Some(disk.capacity());
        if self.reserve.failed() > disk.failed()
            || (whole_pool && self.reserve.failed() != disk.failed())
        {
            v.push(format!(
                "reserve failure accounting drifted from the disk: reserve {} vs disk {}",
                self.reserve.failed(),
                disk.failed()
            ));
        }
        if degraded != self.degraded_count {
            v.push(format!(
                "degraded population drift: {degraded} sessions vs census {}",
                self.degraded_count
            ));
        }
        v
    }
}
