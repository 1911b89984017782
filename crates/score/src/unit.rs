//! The four unit scores (Box 2), each bounded to `[0, 1]`.

/// Parameters of the real-time score sigmoid (Definition 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtParams {
    /// Deadline-sensitivity constant `k`, in units of 1/millisecond.
    ///
    /// The paper's default is `k = 15`: the score is effectively 1
    /// when the inference finishes ~0.5 ms inside its slack window and
    /// effectively 0 when it overruns by ~0.5 ms (§B.1's "±0.5 ms for
    /// a deadline of 10 ms" design point), with a smooth transition in
    /// between. `k = 0` makes the score deadline-insensitive (always
    /// 0.5); `k → ∞` makes it a step function at the deadline.
    pub k_per_ms: f64,
}

impl Default for RtParams {
    fn default() -> Self {
        Self { k_per_ms: 15.0 }
    }
}

/// Real-time score (Definition 10):
/// `RtScore = 1 / (1 + exp(k · (Linf − Tsl)))`,
/// with the latency and slack supplied in **seconds**.
///
/// A latency well inside the slack window scores ~1; a latency well
/// beyond it scores ~0; at exactly the deadline the score is 0.5.
///
/// Negative slack (the input itself arrived after the deadline) is
/// handled naturally: any positive latency then scores below 0.5.
pub fn rt_score(latency_s: f64, slack_s: f64, params: RtParams) -> f64 {
    debug_assert!(latency_s >= 0.0, "latency must be non-negative");
    let x_ms = (latency_s - slack_s) * 1e3;
    // Guard against exp overflow for large overruns.
    let exponent = (params.k_per_ms * x_ms).clamp(-700.0, 700.0);
    // Every report scores through this `exp`.
    // lint:allow(libm): kept until a host-independent `exp` replaces it.
    1.0 / (1.0 + exponent.exp())
}

/// Parameters of the energy score (Definition 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// The maximum energy allowed per inference, `Emax`, in joules.
    /// Paper default: 1500 mJ.
    pub emax_j: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self { emax_j: 1.5 }
    }
}

/// Energy score (Definition 11): `(Emax − E) / Emax`, clamped to
/// `[0, 1]` so inferences that exceed `Emax` score zero rather than
/// going negative.
pub fn energy_score(energy_j: f64, params: EnergyParams) -> f64 {
    debug_assert!(energy_j >= 0.0, "energy must be non-negative");
    ((params.emax_j - energy_j) / params.emax_j).clamp(0.0, 1.0)
}

/// Whether a model quality metric is higher- or lower-is-better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Accuracy-like metrics.
    HigherIsBetter,
    /// Error-like metrics.
    LowerIsBetter,
}

/// Parameters of the accuracy score (Definition 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyParams {
    /// Numerical-stability epsilon for lower-is-better ratios.
    /// Paper default: 1e-6.
    pub epsilon: f64,
}

impl Default for AccuracyParams {
    fn default() -> Self {
        Self { epsilon: 1e-6 }
    }
}

/// Accuracy score (Definition 12): the ratio of measured to target
/// model quality, capped at 1.
///
/// For higher-is-better metrics the raw score is `measured / target`;
/// for lower-is-better metrics it is `target / (measured + ε)`.
/// The paper's Box 2 writes `max(1, raw)`, which would make the score
/// unbounded-below-useless; the accompanying text and the `[0, 1]`
/// range requirement make clear the intent is `min(1, raw)`, which is
/// what we implement (also clamped at 0).
pub fn accuracy_score(measured: f64, target: f64, kind: MetricKind, params: AccuracyParams) -> f64 {
    debug_assert!(target > 0.0, "quality target must be positive");
    let raw = match kind {
        MetricKind::HigherIsBetter => measured / target,
        MetricKind::LowerIsBetter => target / (measured + params.epsilon),
    };
    raw.clamp(0.0, 1.0)
}

/// QoE score (Definition 13): the fraction of streamed frames a model
/// actually processed, `NumFrm_exec / NumFrm`.
///
/// # Panics
///
/// Panics if `executed > total`.
pub fn qoe_score(executed_frames: u64, total_frames: u64) -> f64 {
    assert!(
        executed_frames <= total_frames,
        "executed ({executed_frames}) cannot exceed streamed ({total_frames}) frames"
    );
    if total_frames == 0 {
        return 0.0;
    }
    executed_frames as f64 / total_frames as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rt_score_is_half_at_deadline() {
        let s = rt_score(0.010, 0.010, RtParams::default());
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rt_score_saturates_half_ms_around_deadline() {
        // §B.1 design point: ±0.5 ms around a 10 ms deadline.
        let early = rt_score(0.0095, 0.010, RtParams::default());
        let late = rt_score(0.0105, 0.010, RtParams::default());
        assert!(early > 0.999, "0.5 ms inside: {early}");
        assert!(late < 0.001, "0.5 ms beyond: {late}");
    }

    #[test]
    fn rt_score_k_zero_is_flat_half() {
        for lat in [0.0, 0.005, 0.02, 1.0] {
            let s = rt_score(lat, 0.010, RtParams { k_per_ms: 0.0 });
            assert!((s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn rt_score_monotone_decreasing_in_latency() {
        let mut prev = 1.1;
        for i in 0..100 {
            let lat = i as f64 * 0.0005;
            let s = rt_score(lat, 0.015, RtParams::default());
            assert!(s <= prev);
            prev = s;
        }
    }

    #[test]
    fn rt_score_no_overflow_on_huge_overrun() {
        let s = rt_score(10.0, 0.001, RtParams::default());
        assert!((0.0..1e-10).contains(&s));
        assert!(s.is_finite());
    }

    #[test]
    fn rt_score_negative_slack_penalized() {
        let s = rt_score(0.001, -0.005, RtParams::default());
        assert!(s < 0.5);
    }

    #[test]
    fn energy_score_linear_and_clamped() {
        let p = EnergyParams::default();
        assert!((energy_score(0.0, p) - 1.0).abs() < 1e-12);
        assert!((energy_score(0.75, p) - 0.5).abs() < 1e-12);
        assert!((energy_score(1.5, p) - 0.0).abs() < 1e-12);
        // Over Emax clamps to 0 instead of going negative.
        assert_eq!(energy_score(3.0, p), 0.0);
    }

    #[test]
    fn accuracy_hib_caps_at_one() {
        let p = AccuracyParams::default();
        let s = accuracy_score(95.0, 90.0, MetricKind::HigherIsBetter, p);
        assert_eq!(s, 1.0);
        let s2 = accuracy_score(45.0, 90.0, MetricKind::HigherIsBetter, p);
        assert!((s2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_lib_uses_inverse_ratio() {
        let p = AccuracyParams::default();
        // Error twice the target → score 0.5.
        let s = accuracy_score(17.58, 8.79, MetricKind::LowerIsBetter, p);
        assert!((s - 0.5).abs() < 1e-4);
        // Error at target → 1.
        let s2 = accuracy_score(8.79, 8.79, MetricKind::LowerIsBetter, p);
        assert!((s2 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn accuracy_lib_epsilon_prevents_div_by_zero() {
        let p = AccuracyParams::default();
        let s = accuracy_score(0.0, 3.39, MetricKind::LowerIsBetter, p);
        assert!(s.is_finite());
        assert_eq!(s, 1.0); // zero error is perfect (capped at 1)
    }

    #[test]
    fn qoe_is_fraction_processed() {
        assert!((qoe_score(27, 30) - 0.9).abs() < 1e-12);
        assert_eq!(qoe_score(0, 30), 0.0);
        assert_eq!(qoe_score(30, 30), 1.0);
        assert_eq!(qoe_score(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn qoe_rejects_excess_executed() {
        let _ = qoe_score(31, 30);
    }
}
