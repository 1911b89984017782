//! Pareto-frontier analysis over benchmark results.
//!
//! §3.7: "XRBench reveals all individual scores to users to facilitate
//! Pareto frontier analysis, in addition to XRBench Score." This
//! module finds the designs that are not dominated on a chosen set of
//! axes (e.g. real-time score vs energy score, or score vs total
//! energy).

/// One candidate design with named objective values.
///
/// All objectives are treated as **higher-is-better**; negate or
/// invert lower-is-better quantities (e.g. pass `-energy_mj`).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Design label (e.g. `"J @ 8192 PEs"`).
    pub label: String,
    /// Objective values, higher is better.
    pub objectives: Vec<f64>,
}

impl ParetoPoint {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty or contains non-finite values.
    pub fn new(label: impl Into<String>, objectives: Vec<f64>) -> Self {
        assert!(!objectives.is_empty(), "need at least one objective");
        assert!(
            objectives.iter().all(|v| v.is_finite()),
            "objectives must be finite"
        );
        Self {
            label: label.into(),
            objectives,
        }
    }

    /// Whether `self` dominates `other`: at least as good on every
    /// objective and strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        assert_eq!(
            self.objectives.len(),
            other.objectives.len(),
            "objective dimensionality mismatch"
        );
        let ge = self
            .objectives
            .iter()
            .zip(&other.objectives)
            .all(|(a, b)| a >= b);
        let gt = self
            .objectives
            .iter()
            .zip(&other.objectives)
            .any(|(a, b)| a > b);
        ge && gt
    }
}

/// Returns the indices of the non-dominated points, in input order.
///
/// Points are visited in descending lexicographic order of their
/// objectives and each is tested only against the frontier found so
/// far. That is exact: a dominator is lexicographically greater, so it
/// is visited first, and by transitivity some frontier member
/// dominates whatever a dropped point dominates. Objectives compare
/// with `partial_cmp`, so `-0.0` and `0.0` tie here exactly as they do
/// in [`ParetoPoint::dominates`].
///
/// # Panics
///
/// Panics if points have inconsistent objective counts, or if an
/// objective is NaN (which [`ParetoPoint::new`] rejects).
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<usize> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    assert!(
        points
            .iter()
            .all(|p| p.objectives.len() == first.objectives.len()),
        "objective dimensionality mismatch"
    );
    let descending = |&a: &usize, &b: &usize| {
        points[b]
            .objectives
            .iter()
            .zip(&points[a].objectives)
            .map(|(x, y)| x.partial_cmp(y).expect("objectives are not NaN"))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by(descending);
    let mut frontier: Vec<usize> = Vec::new();
    for i in order {
        if !frontier.iter().any(|&f| points[f].dominates(&points[i])) {
            frontier.push(i);
        }
    }
    frontier.sort_unstable();
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(label: &str, objs: &[f64]) -> ParetoPoint {
        ParetoPoint::new(label, objs.to_vec())
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = p("a", &[1.0, 1.0]);
        let b = p("b", &[1.0, 1.0]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        let c = p("c", &[1.0, 2.0]);
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let points = vec![
            p("best-rt", &[0.9, 0.3]),
            p("best-energy", &[0.3, 0.9]),
            p("balanced", &[0.7, 0.7]),
            p("dominated", &[0.6, 0.6]),
            p("worst", &[0.1, 0.1]),
        ];
        let frontier = pareto_frontier(&points);
        assert_eq!(frontier, vec![0, 1, 2]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let points = vec![p("only", &[0.5])];
        assert_eq!(pareto_frontier(&points), vec![0]);
    }

    #[test]
    fn identical_points_all_survive() {
        let points = vec![p("x", &[0.5, 0.5]), p("y", &[0.5, 0.5])];
        assert_eq!(pareto_frontier(&points), vec![0, 1]);
    }

    #[test]
    fn signed_zeros_tie_and_duplicates_all_survive() {
        // -0.0 == 0.0, so `z` dominates `q` (equal first objective,
        // better second); a total order would sort `q` ahead of `z`
        // and keep it.
        let signed = vec![p("q", &[0.0, 0.0]), p("z", &[-0.0, 1.0])];
        assert!(signed[1].dominates(&signed[0]));
        assert_eq!(pareto_frontier(&signed), vec![1]);
        let ties = vec![
            p("z", &[-0.0, 1.0]),
            p("dup", &[0.5, 0.5]),
            p("z-twin", &[0.0, 1.0]),
            p("dup-twin", &[0.5, 0.5]),
            p("low", &[-0.5, 0.5]),
        ];
        assert_eq!(pareto_frontier(&ties), vec![0, 1, 2, 3]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mixed_objective_counts_rejected() {
        let _ = pareto_frontier(&[p("a", &[1.0]), p("b", &[1.0, 2.0])]);
    }

    #[test]
    #[should_panic(expected = "at least one objective")]
    fn empty_objectives_rejected() {
        let _ = ParetoPoint::new("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        let _ = ParetoPoint::new("bad", vec![f64::NAN]);
    }

    #[test]
    fn frontier_over_real_benchmark_axes() {
        // rt vs energy from a tiny synthetic sweep.
        let designs = [("A", 0.92, 0.91), ("B", 0.90, 0.92), ("C", 0.85, 0.85)];
        let points: Vec<ParetoPoint> = designs
            .iter()
            .map(|(l, rt, en)| p(l, &[*rt, *en]))
            .collect();
        let frontier = pareto_frontier(&points);
        let labels: Vec<&str> = frontier.iter().map(|&i| points[i].label.as_str()).collect();
        assert_eq!(labels, vec!["A", "B"]);
    }
}
