//! Simulated time: nanosecond units and periodic-deadline helpers.
//!
//! The whole simulation is single-threaded and deterministic; "time" only
//! advances when simulated work (CPU bursts, memory stalls, daemon
//! budgets) consumes it.

/// Nanoseconds per microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const SEC: u64 = 1_000_000_000;
/// Nanoseconds per minute.
pub const MINUTE: u64 = 60 * SEC;

/// Tracks a periodic deadline (daemon wakeups, stat sampling).
///
/// # Examples
///
/// ```
/// use tiered_sim::{Periodic, MS};
///
/// let mut timer = Periodic::new(10 * MS);
/// assert_eq!(timer.fire(5 * MS), 0);
/// assert_eq!(timer.fire(10 * MS), 1);
/// assert_eq!(timer.fire(45 * MS), 3); // catches up across 20, 30, 40 ms
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Periodic {
    period_ns: u64,
    next_ns: u64,
}

impl Periodic {
    /// A timer that first fires at `period_ns` and every `period_ns`
    /// thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `period_ns` is zero.
    pub fn new(period_ns: u64) -> Periodic {
        assert!(period_ns > 0, "period must be positive");
        Periodic {
            period_ns,
            next_ns: period_ns,
        }
    }

    /// The configured period.
    #[inline]
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Returns how many periods elapsed up to `now_ns` and advances the
    /// deadline past `now_ns`. Returns 0 if the deadline has not arrived.
    #[inline]
    pub fn fire(&mut self, now_ns: u64) -> u32 {
        if now_ns < self.next_ns {
            return 0;
        }
        let elapsed = now_ns - self.next_ns;
        let fires = 1 + (elapsed / self.period_ns) as u32;
        self.next_ns += fires as u64 * self.period_ns;
        fires
    }

    /// Resets the timer so the next fire is one period after `now_ns`.
    pub fn reset(&mut self, now_ns: u64) {
        self.next_ns = now_ns + self.period_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_fires_exactly_on_deadline() {
        let mut p = Periodic::new(100);
        assert_eq!(p.fire(99), 0);
        assert_eq!(p.fire(100), 1);
        assert_eq!(p.fire(150), 0);
        assert_eq!(p.fire(200), 1);
    }

    #[test]
    fn periodic_catches_up_after_long_gap() {
        let mut p = Periodic::new(100);
        assert_eq!(p.fire(1000), 10);
        assert_eq!(p.fire(1000), 0);
    }

    #[test]
    fn periodic_reset_pushes_deadline_out() {
        let mut p = Periodic::new(100);
        p.reset(450);
        assert_eq!(p.fire(500), 0);
        assert_eq!(p.fire(550), 1);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        Periodic::new(0);
    }

    #[test]
    fn unit_constants_consistent() {
        assert_eq!(MS, 1000 * US);
        assert_eq!(SEC, 1000 * MS);
        assert_eq!(MINUTE, 60 * SEC);
    }
}
