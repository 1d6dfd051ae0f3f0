//! Hard work budgets for the analyzer.
//!
//! Crystal's promise is that switch-level analysis stays cheap; a
//! pathological pass-transistor mesh must not be able to silently turn
//! it expensive. An [`AnalysisBudget`] caps the stage evaluations, the
//! extracted paths per node, and the wall-clock time of one analysis.
//! When a cap is hit the analyzer stops immediately and returns
//! [`TimingError::BudgetExhausted`](crate::error::TimingError::BudgetExhausted)
//! carrying a [`PartialTiming`] — every arrival computed so far plus
//! which cap fired — instead of an all-or-nothing abort.
//!
//! Partial results are a *prefix* of the unbudgeted analysis: arrivals
//! are only ever added or refined during propagation, never removed, so
//! every node present in the partial result also switches in the full
//! result.

use crate::analyzer::TimingResult;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag.
///
/// Cloning yields a handle to the **same** flag; once [`CancelToken::cancel`]
/// is called every holder observes it. The analyzer polls the token at the
/// same points it polls the wall-clock deadline, so a cancelled analysis
/// stops with [`BudgetExceeded::Cancelled`] and a usable
/// [`PartialTiming`] prefix — exactly the budget-exhaustion contract.
/// The durable batch layer's watchdog uses this to impose per-scenario
/// deadlines from *outside* the analysis.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Caps on the work one analysis may perform. `None` means unlimited;
/// the default budget is fully unlimited, matching historical behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisBudget {
    /// Maximum stage (model) evaluations across all propagation rounds.
    pub max_stage_evals: Option<usize>,
    /// Maximum extracted driving paths tolerated for any single node.
    pub max_paths_per_node: Option<usize>,
    /// Wall-clock deadline for the whole analysis.
    pub deadline: Option<Duration>,
}

impl AnalysisBudget {
    /// No caps at all (the default).
    pub fn unlimited() -> AnalysisBudget {
        AnalysisBudget::default()
    }

    /// `true` when no cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_stage_evals.is_none()
            && self.max_paths_per_node.is_none()
            && self.deadline.is_none()
    }
}

/// Which budget cap fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetExceeded {
    /// The stage-evaluation cap was reached.
    StageEvals {
        /// The configured cap.
        limit: usize,
    },
    /// One node's extracted path count exceeded the cap.
    PathsPerNode {
        /// The configured cap.
        limit: usize,
        /// Paths actually extracted for the offending node.
        found: usize,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        limit: Duration,
    },
    /// An external [`CancelToken`] was fired (watchdog timeout or
    /// shutdown) and the analysis stopped cooperatively.
    Cancelled,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::StageEvals { limit } => {
                write!(f, "stage-evaluation cap of {limit} reached")
            }
            BudgetExceeded::PathsPerNode { limit, found } => {
                write!(
                    f,
                    "a node has {found} driving paths, over the cap of {limit}"
                )
            }
            BudgetExceeded::Deadline { limit } => {
                write!(f, "wall-clock deadline of {limit:?} passed")
            }
            BudgetExceeded::Cancelled => {
                write!(f, "analysis cancelled by an external request")
            }
        }
    }
}

/// A budget-limited analysis outcome: everything computed before the cap
/// fired.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialTiming {
    /// Arrivals computed so far; a prefix (node-subset) of the result an
    /// unbudgeted run would produce.
    pub result: TimingResult,
    /// The cap that stopped the analysis.
    pub exceeded: BudgetExceeded,
    /// Completed propagation rounds before the stop.
    pub rounds_completed: usize,
}

/// Run-scoped enforcement state: the budget plus the start instant and
/// the evaluation counter. The counter is atomic, so one tracker can be
/// shared by reference across threads; every charge is observed exactly
/// once no matter which thread makes it.
#[derive(Debug)]
pub(crate) struct BudgetTracker {
    budget: AnalysisBudget,
    started: Instant,
    stage_evals: AtomicUsize,
    cancel: Option<CancelToken>,
}

impl BudgetTracker {
    pub(crate) fn new(budget: AnalysisBudget, cancel: Option<CancelToken>) -> BudgetTracker {
        BudgetTracker {
            budget,
            started: Instant::now(),
            stage_evals: AtomicUsize::new(0),
            cancel,
        }
    }

    /// Errors once the wall-clock deadline has passed or the external
    /// cancel token (if any) has fired. Cancellation is checked first so
    /// a watchdog-initiated stop is reported as such even when the
    /// in-analysis deadline would also have expired.
    pub(crate) fn check_deadline(&self) -> Result<(), BudgetExceeded> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(BudgetExceeded::Cancelled);
            }
        }
        match self.budget.deadline {
            Some(limit) if self.started.elapsed() >= limit => {
                Err(BudgetExceeded::Deadline { limit })
            }
            _ => Ok(()),
        }
    }

    /// Charges `n` stage evaluations, erroring when the cap is crossed.
    /// Shared-reference so concurrent workers can charge the same
    /// tracker; the saturating fetch-add makes every unit of work count
    /// exactly once even under contention.
    pub(crate) fn charge_stage_evals(&self, n: usize) -> Result<(), BudgetExceeded> {
        let total = self
            .stage_evals
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            })
            .expect("fetch_update closure never returns None")
            .saturating_add(n);
        match self.budget.max_stage_evals {
            Some(limit) if total > limit => Err(BudgetExceeded::StageEvals { limit }),
            _ => Ok(()),
        }
    }

    /// Errors when one node's path count exceeds the per-node cap.
    pub(crate) fn check_paths(&self, found: usize) -> Result<(), BudgetExceeded> {
        match self.budget.max_paths_per_node {
            Some(limit) if found > limit => Err(BudgetExceeded::PathsPerNode { limit, found }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BudgetTracker {
        /// Test shorthand: a tracker with no external cancel token.
        fn new_t(budget: AnalysisBudget) -> BudgetTracker {
            BudgetTracker::new(budget, None)
        }
    }

    #[test]
    fn default_budget_is_unlimited() {
        assert!(AnalysisBudget::default().is_unlimited());
        assert!(AnalysisBudget::unlimited().is_unlimited());
        let capped = AnalysisBudget {
            max_stage_evals: Some(10),
            ..AnalysisBudget::default()
        };
        assert!(!capped.is_unlimited());
    }

    #[test]
    fn tracker_charges_stage_evals() {
        let t = BudgetTracker::new_t(AnalysisBudget {
            max_stage_evals: Some(5),
            ..AnalysisBudget::default()
        });
        assert!(t.charge_stage_evals(3).is_ok());
        assert!(t.charge_stage_evals(2).is_ok()); // exactly at the cap
        assert_eq!(
            t.charge_stage_evals(1),
            Err(BudgetExceeded::StageEvals { limit: 5 })
        );
    }

    #[test]
    fn concurrent_charges_count_each_unit_exactly_once() {
        let t = BudgetTracker::new_t(AnalysisBudget {
            max_stage_evals: Some(1000),
            ..AnalysisBudget::default()
        });
        let rejected: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..300)
                            .filter(|_| t.charge_stage_evals(1).is_err())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // 1200 single-unit charges against a cap of 1000: exactly 200
        // must be rejected, regardless of interleaving.
        assert_eq!(rejected, 200);
    }

    #[test]
    fn tracker_checks_paths_per_node() {
        let t = BudgetTracker::new_t(AnalysisBudget {
            max_paths_per_node: Some(4),
            ..AnalysisBudget::default()
        });
        assert!(t.check_paths(4).is_ok());
        assert_eq!(
            t.check_paths(5),
            Err(BudgetExceeded::PathsPerNode { limit: 4, found: 5 })
        );
    }

    #[test]
    fn tracker_enforces_deadline() {
        let t = BudgetTracker::new_t(AnalysisBudget {
            deadline: Some(Duration::ZERO),
            ..AnalysisBudget::default()
        });
        assert!(matches!(
            t.check_deadline(),
            Err(BudgetExceeded::Deadline { .. })
        ));
        let unlimited = BudgetTracker::new(AnalysisBudget::default(), None);
        assert!(unlimited.check_deadline().is_ok());
    }

    #[test]
    fn exceeded_displays_name_the_cap() {
        assert!(BudgetExceeded::StageEvals { limit: 9 }
            .to_string()
            .contains("9"));
        assert!(BudgetExceeded::PathsPerNode { limit: 2, found: 7 }
            .to_string()
            .contains("7"));
        assert!(BudgetExceeded::Deadline {
            limit: Duration::from_millis(50)
        }
        .to_string()
        .contains("deadline"));
        assert!(BudgetExceeded::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn tracker_reports_cancellation_before_deadline() {
        let token = CancelToken::new();
        let t = BudgetTracker::new(
            AnalysisBudget {
                deadline: Some(Duration::ZERO),
                ..AnalysisBudget::default()
            },
            Some(token.clone()),
        );
        // Deadline already expired, but an explicit cancel wins the race
        // so the caller can tell a watchdog stop from a budget stop.
        token.cancel();
        assert_eq!(t.check_deadline(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn uncancelled_token_does_not_trip_tracker() {
        let t = BudgetTracker::new(AnalysisBudget::default(), Some(CancelToken::new()));
        assert!(t.check_deadline().is_ok());
    }
}
