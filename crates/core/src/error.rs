//! Error type for PSO runs.

use crate::gpu::UpdateStrategy;
use gpu_sim::GpuError;
use std::fmt;

/// Errors raised while configuring or running a PSO optimization.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so the resilience layer can grow new failure classes without a breaking
/// release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PsoError {
    /// Invalid configuration (zero particles, zero dimensions, bad
    /// coefficients, inverted domain bounds, ...).
    InvalidConfig(String),
    /// An execution plan that cannot run as built (a node before one it
    /// consumes, an op its algorithm does not emit, an exchange reduction
    /// without a device group, a resilient state with no checkpoint).
    InvalidPlan(String),
    /// A device operation failed.
    Gpu(GpuError),
    /// A permanent launch failure could not be degraded: the active update
    /// strategy has no lower rung in its algorithm's fault ladder (see
    /// [`crate::SwarmAlgorithm::fallback_strategy`] and the per-algorithm
    /// ladder table in DESIGN.md). Carries the device failure that
    /// exhausted the ladder.
    NoFallback {
        /// The strategy the job was on when the ladder ran out.
        strategy: UpdateStrategy,
        /// The permanent device failure that could not be absorbed.
        cause: GpuError,
    },
}

impl PsoError {
    /// Whether the underlying failure is transient — retrying the same
    /// operation can succeed (see [`GpuError::is_transient`]). Config
    /// errors and permanent device failures are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, PsoError::Gpu(g) if g.is_transient())
    }

    /// The device index a permanent device-loss failure names, if this is
    /// one ([`GpuError::DeviceLost`]).
    pub fn lost_device(&self) -> Option<usize> {
        match self {
            PsoError::Gpu(GpuError::DeviceLost(i)) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for PsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsoError::InvalidConfig(msg) => write!(f, "invalid PSO configuration: {msg}"),
            PsoError::InvalidPlan(msg) => write!(f, "invalid execution plan: {msg}"),
            PsoError::Gpu(e) => write!(f, "GPU error: {e}"),
            PsoError::NoFallback { strategy, cause } => write!(
                f,
                "no fallback rung below update strategy '{strategy}': {cause}"
            ),
        }
    }
}

impl std::error::Error for PsoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PsoError::Gpu(e) => Some(e),
            PsoError::NoFallback { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<GpuError> for PsoError {
    fn from(e: GpuError) -> Self {
        PsoError::Gpu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = PsoError::InvalidConfig("n must be > 0".into());
        assert!(e.to_string().contains("n must be > 0"));
        let g: PsoError = GpuError::Empty("x").into();
        assert!(matches!(g, PsoError::Gpu(_)));
        assert!(g.to_string().contains("GPU error"));
    }

    #[test]
    fn transient_and_loss_classification() {
        let t: PsoError = GpuError::TransientLaunch {
            device: 0,
            launch: 3,
        }
        .into();
        assert!(t.is_transient());
        assert_eq!(t.lost_device(), None);
        let l: PsoError = GpuError::DeviceLost(2).into();
        assert!(!l.is_transient());
        assert_eq!(l.lost_device(), Some(2));
        let c = PsoError::InvalidConfig("x".into());
        assert!(!c.is_transient());
        assert_eq!(c.lost_device(), None);
    }

    #[test]
    fn no_fallback_is_permanent_and_keeps_its_cause() {
        let e = PsoError::NoFallback {
            strategy: UpdateStrategy::LowComplexity,
            cause: GpuError::InvalidLaunch("block too large".into()),
        };
        assert!(!e.is_transient(), "an exhausted ladder is not retryable");
        assert_eq!(e.lost_device(), None);
        let msg = e.to_string();
        assert!(msg.contains("no fallback rung"), "{msg}");
        assert!(msg.contains("lowcomp"), "{msg}");
        assert!(
            std::error::Error::source(&e).is_some(),
            "the device failure stays reachable as the source"
        );
    }
}
