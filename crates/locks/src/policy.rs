//! Retry policy for speculative execution.

/// How many times a critical section is attempted in hardware before the
/// pessimistic fallback.
///
/// The paper uses 10 attempts and an *immediate* fallback on capacity
/// aborts ("except upon capacity aborts, in which case the fallback path
/// is immediately activated"), and a 5-attempt budget for RW-LE's ROTs.
/// A capacity abort never retries, whatever the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum speculative attempts before falling back.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The paper's default: 10 attempts.
    pub const PAPER_DEFAULT: RetryPolicy = RetryPolicy { max_attempts: 10 };

    /// The paper's RW-LE ROT budget: 5 attempts.
    pub const RWLE_ROT: RetryPolicy = RetryPolicy { max_attempts: 5 };

    /// Decides whether to keep retrying after `attempts` tries, the last of
    /// which aborted with `abort`.
    pub fn should_retry(&self, attempts: u32, abort: htm_sim::Abort) -> bool {
        !abort.is_capacity() && attempts < self.max_attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::PAPER_DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::Abort;

    #[test]
    fn capacity_falls_back_immediately() {
        let p = RetryPolicy::PAPER_DEFAULT;
        assert!(!p.should_retry(1, Abort::CapacityRead));
        assert!(!p.should_retry(1, Abort::CapacityWrite));
        assert!(p.should_retry(1, Abort::Conflict));
    }

    #[test]
    fn budget_is_exhausted_at_max_attempts() {
        let p = RetryPolicy::PAPER_DEFAULT;
        assert!(p.should_retry(9, Abort::Conflict));
        assert!(!p.should_retry(10, Abort::Conflict));
    }
}
