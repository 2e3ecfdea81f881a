//! Admission-controlled priority queue for the serving layer.
//!
//! Jobs are ordered by `(priority desc, arrival seq asc)`: a higher
//! priority always runs first, and within one priority the queue is
//! FIFO — arrival order is a total tiebreak, so scheduling order is a
//! deterministic function of the submitted sequence. Admission is
//! bounded (`SERVE_MAX_INFLIGHT`): once `queued + running` reaches the
//! limit, submissions are rejected typed (`overloaded`) instead of
//! growing without bound.
//!
//! The queue holds only searches (`segment`, `codesign`), which the
//! scheduler workers (`server.rs`) pop one at a time. An `eval_pu` is
//! answered on its connection's reader thread and never enters it, so
//! the cap never answers one `overloaded`.

use std::collections::BinaryHeap;

/// One queued unit of work, as the scheduler sees it.
#[derive(Debug)]
pub struct Queued<J> {
    /// Scheduling priority (higher first).
    pub priority: i64,
    /// Admission sequence number (FIFO tiebreak, unique).
    pub seq: u64,
    /// The job payload.
    pub job: J,
}

impl<J> PartialEq for Queued<J> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<J> Eq for Queued<J> {}

impl<J> Ord for Queued<J> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; earlier seq wins inside one
        // priority (seq compared reversed).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<J> PartialOrd for Queued<J> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Why [`Admission::push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// `queued + running` reached the inflight cap.
    Overloaded,
    /// The server is shutting down; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded => write!(f, "inflight limit reached"),
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// The admission-controlled queue. Callers hold it behind one mutex.
#[derive(Debug)]
pub struct Admission<J> {
    heap: BinaryHeap<Queued<J>>,
    seq: u64,
    running: usize,
    max_inflight: usize,
    closed: bool,
    high_water: usize,
}

impl<J> Admission<J> {
    /// An empty queue admitting at most `max_inflight` jobs (clamped ≥ 1)
    /// across the queued and running states combined.
    pub fn new(max_inflight: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            running: 0,
            max_inflight: max_inflight.max(1),
            closed: false,
            high_water: 0,
        }
    }

    /// Queued (not yet running) jobs.
    pub fn depth(&self) -> usize {
        self.heap.len()
    }

    /// Largest queue depth ever observed (after a push) — how close the
    /// service has come to its admission cap over its lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.running
    }

    /// The admission cap.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// `true` once [`Admission::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Stops admitting new jobs (graceful shutdown). Already-queued jobs
    /// can still be drained by the scheduler.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Admits `job`, returning its sequence number.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Overloaded`] at the inflight cap,
    /// [`AdmitError::ShuttingDown`] after [`Admission::close`].
    pub fn push(&mut self, priority: i64, job: J) -> Result<u64, AdmitError> {
        if self.closed {
            return Err(AdmitError::ShuttingDown);
        }
        if self.heap.len() + self.running >= self.max_inflight {
            return Err(AdmitError::Overloaded);
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Queued { priority, seq, job });
        self.high_water = self.high_water.max(self.heap.len());
        obs::record("serve.queue.depth", pucost::util::u64_of(self.heap.len()));
        Ok(seq)
    }

    /// Removes and returns the highest-priority job, marking it running.
    /// The scheduler must pair every `pop` with [`Admission::finish`].
    pub fn pop(&mut self) -> Option<Queued<J>> {
        let q = self.heap.pop()?;
        self.running += 1;
        Some(q)
    }

    /// Marks one previously popped job finished.
    pub fn finish(&mut self) {
        self.running = self.running.saturating_sub(1);
    }

    /// Drains every queued job (shutdown: they are answered `partial`
    /// with reason `cancelled` without running).
    pub fn drain(&mut self) -> Vec<Queued<J>> {
        let mut out: Vec<Queued<J>> = std::mem::take(&mut self.heap).into_vec();
        // BinaryHeap::into_vec is heap order, not sorted; restore the
        // scheduling order so drained responses are deterministic.
        out.sort_by(|a, b| b.cmp(a));
        out
    }
}

/// Priority-aware load-shedding policy for the fleet router.
///
/// Two watermarks over the router's global in-flight count: between the
/// soft and hard caps only background work (priority ≤ 0) is shed, so
/// interactive requests keep flowing through a congested fleet; at the
/// hard cap (2× soft) everything is shed. Shedding is typed
/// (`overloaded`) — the client sees backpressure, never a hang.
#[derive(Debug, Clone, Copy)]
pub struct ShedPolicy {
    /// In-flight count at which priority ≤ 0 work is shed.
    pub soft: usize,
    /// In-flight count at which all work is shed.
    pub hard: usize,
}

/// The policy's verdict for one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedDecision {
    /// Forward to a shard.
    Admit,
    /// Shed: between the watermarks and the request is background work.
    ShedSoft,
    /// Shed: the fleet is at the hard cap.
    ShedHard,
}

impl ShedPolicy {
    /// A policy with the given soft cap; the hard cap is 2× (min 1/2).
    pub fn new(soft: usize) -> ShedPolicy {
        let soft = soft.max(1);
        ShedPolicy {
            soft,
            hard: soft.saturating_mul(2),
        }
    }

    /// Decides admission for a request of `priority` with `inflight`
    /// requests already accepted and unresolved.
    pub fn decide(&self, priority: i64, inflight: usize) -> ShedDecision {
        if inflight >= self.hard {
            ShedDecision::ShedHard
        } else if inflight >= self.soft && priority <= 0 {
            ShedDecision::ShedSoft
        } else {
            ShedDecision::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_then_fifo_order() {
        let mut q: Admission<&str> = Admission::new(16);
        q.push(0, "a").expect("admit");
        q.push(5, "b").expect("admit");
        q.push(0, "c").expect("admit");
        q.push(5, "d").expect("admit");
        q.push(-1, "e").expect("admit");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|j| j.job)).collect();
        assert_eq!(order, ["b", "d", "a", "c", "e"]);
    }

    #[test]
    fn admission_counts_running_jobs() {
        let mut q: Admission<u32> = Admission::new(2);
        q.push(0, 1).expect("admit");
        q.push(0, 2).expect("admit");
        assert_eq!(q.push(0, 3), Err(AdmitError::Overloaded));
        let _job = q.pop().expect("pop");
        assert_eq!((q.depth(), q.running()), (1, 1));
        // Still at the cap: 1 queued + 1 running.
        assert_eq!(q.push(0, 3), Err(AdmitError::Overloaded));
        q.finish();
        q.push(0, 3).expect("slot freed");
    }

    #[test]
    fn close_rejects_but_drains() {
        let mut q: Admission<u32> = Admission::new(8);
        q.push(1, 10).expect("admit");
        q.push(9, 11).expect("admit");
        q.close();
        assert_eq!(q.push(0, 12), Err(AdmitError::ShuttingDown));
        assert!(q.is_closed());
        let drained: Vec<u32> = q.drain().into_iter().map(|j| j.job).collect();
        assert_eq!(drained, [11, 10], "drain preserves scheduling order");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q: Admission<u32> = Admission::new(8);
        assert_eq!(q.high_water(), 0);
        q.push(0, 1).expect("admit");
        q.push(0, 2).expect("admit");
        q.push(0, 3).expect("admit");
        assert_eq!(q.high_water(), 3);
        let _ = q.pop();
        let _ = q.pop();
        q.finish();
        q.finish();
        assert_eq!(q.depth(), 1);
        assert_eq!(q.high_water(), 3, "high water never recedes");
        q.push(0, 4).expect("admit");
        assert_eq!(q.high_water(), 3, "still below the peak");
    }

    #[test]
    fn shed_policy_watermarks() {
        let p = ShedPolicy::new(4);
        assert_eq!(p.hard, 8);
        // Below soft: everything admits.
        assert_eq!(p.decide(0, 3), ShedDecision::Admit);
        assert_eq!(p.decide(-5, 0), ShedDecision::Admit);
        // Between soft and hard: only positive priority admits.
        assert_eq!(p.decide(0, 4), ShedDecision::ShedSoft);
        assert_eq!(p.decide(-1, 7), ShedDecision::ShedSoft);
        assert_eq!(p.decide(1, 4), ShedDecision::Admit);
        assert_eq!(p.decide(3, 7), ShedDecision::Admit);
        // At or past hard: nothing admits.
        assert_eq!(p.decide(9, 8), ShedDecision::ShedHard);
        assert_eq!(p.decide(0, 100), ShedDecision::ShedHard);
        // Degenerate soft cap clamps to 1.
        let tiny = ShedPolicy::new(0);
        assert_eq!((tiny.soft, tiny.hard), (1, 2));
        assert_eq!(tiny.decide(0, 0), ShedDecision::Admit);
        assert_eq!(tiny.decide(0, 1), ShedDecision::ShedSoft);
        assert_eq!(tiny.decide(5, 2), ShedDecision::ShedHard);
    }
}
