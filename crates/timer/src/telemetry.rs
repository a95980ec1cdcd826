//! Per-run accept-gate and phase telemetry, summarized into
//! [`crate::TimerResult`].
//!
//! The driver already computes an exact `ΔCoco` per hierarchy round (the
//! incidence-limited scan feeding the accept gate), so recording the gate's
//! evidence here adds no full-graph recomputes — the telemetry rides the
//! existing delta scan. Collection is unconditional: it is a
//! handful of integer ops per round, and having the summary always present
//! lets `bench_timer` embed the gate histogram into `BENCH_timer.json` without
//! turning tracing on.

use tie_trace::{LogHistogram, PhaseTimes};

use crate::error::StopReason;

/// Summary of one `Timer::enhance` run: accept-gate verdict counts, the
/// distribution of the per-round `ΔCoco`, and a per-phase
/// wall-clock breakdown.
///
/// The gate-side fields (`accepted`, `rejected`, `ties`, the histogram) are
/// part of the deterministic trajectory and therefore byte-identical from
/// run to run. `phases` is wall-clock and is not.
#[derive(Clone, Debug, Default)]
pub struct RoundTelemetry {
    /// Rounds the gate kept (including equal-objective ties). Mirrors
    /// `TimerResult::hierarchies_accepted`.
    pub accepted: usize,
    /// Rounds the gate rejected.
    pub rejected: usize,
    /// Kept rounds whose `ΔCoco` was zero: the tie-keeps that replace the
    /// labeling without improving `Coco`.
    pub ties: usize,
    /// Distribution of the per-round `ΔCoco` the gate ruled on.
    pub delta_coco: LogHistogram,
    /// Accumulated wall-clock per pipeline phase across the whole run.
    pub phases: PhaseTimes,
    /// Round panics absorbed by the quarantine re-run (see `docs/RESILIENCE.md`). Zero on every healthy run; like
    /// `phases` it reports what *happened*, not the trajectory, so it is
    /// excluded from [`RoundTelemetry::same_gate_trajectory`].
    pub worker_panics: usize,
    /// Why the run stopped offering rounds ([`StopReason::Completed`] unless
    /// a deadline, cancellation, or the adaptive stopping rule cut it short).
    pub stop_reason: StopReason,
}

impl RoundTelemetry {
    /// Records one gate verdict. `tie` implies `accepted`.
    pub fn record_gate(&mut self, coco_delta: i64, accepted: bool, tie: bool) {
        debug_assert!(accepted || !tie, "a tie is by definition kept");
        if accepted {
            self.accepted += 1;
            if tie {
                self.ties += 1;
            }
        } else {
            self.rejected += 1;
        }
        self.delta_coco.record(coco_delta);
    }

    /// Total rounds the gate ruled on (`accepted + rejected`).
    pub fn rounds(&self) -> usize {
        self.accepted + self.rejected
    }

    /// Whether the gate-side telemetry of two runs agrees (phase wall-clock
    /// excluded — timing is never deterministic). This is the
    /// telemetry-level statement of the byte-identity guarantee.
    pub fn same_gate_trajectory(&self, other: &RoundTelemetry) -> bool {
        self.accepted == other.accepted
            && self.rejected == other.rejected
            && self.ties == other.ties
            && self.delta_coco == other.delta_coco
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_recording_counts_and_histograms() {
        let mut t = RoundTelemetry::default();
        t.record_gate(-5, true, false);
        t.record_gate(0, true, true);
        t.record_gate(3, false, false);
        t.record_gate(0, true, true);
        assert_eq!(t.accepted, 3);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.ties, 2);
        assert_eq!(t.rounds(), 4);
        assert_eq!(t.delta_coco.count(), 4);
        assert_eq!(t.delta_coco.min(), Some(-5));
        assert_eq!(t.delta_coco.max(), Some(3));
    }

    #[test]
    fn gate_trajectory_comparison_ignores_phases() {
        let mut a = RoundTelemetry::default();
        let mut b = RoundTelemetry::default();
        a.record_gate(-1, true, false);
        b.record_gate(-1, true, false);
        a.phases.add(tie_trace::Phase::Sweep, 123);
        b.phases.add(tie_trace::Phase::Sweep, 456);
        assert!(a.same_gate_trajectory(&b));
        b.record_gate(0, true, true);
        assert!(!a.same_gate_trajectory(&b));
    }
}
