//! Counters and accumulators shared by the simulation layers.
//!
//! All statistics the paper reports reduce to three shapes: event counts
//! (e.g. *Diffs Created*), running sums (e.g. *Outstanding Faults*, which
//! accumulates the number of already-outstanding requests each time a new
//! request is initiated), and time accumulators (e.g. non-overlapped lock
//! wait). [`Counter`] and [`TimeAccum`] cover these; distributions live
//! in [`Log2Hist`](crate::Log2Hist).

use std::fmt;

use crate::time::SimDuration;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use cvm_sim::stats::Counter;
/// let mut faults = Counter::default();
/// faults.add(3);
/// faults.incr();
/// assert_eq!(faults.get(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates virtual-time durations.
///
/// # Example
///
/// ```
/// use cvm_sim::stats::TimeAccum;
/// use cvm_sim::SimDuration;
/// let mut wait = TimeAccum::default();
/// wait.add(SimDuration::from_us(10));
/// wait.add(SimDuration::from_us(5));
/// assert_eq!(wait.total(), SimDuration::from_us(15));
/// assert_eq!(wait.count(), 2);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimeAccum {
    total: SimDuration,
    count: u64,
}

impl TimeAccum {
    /// Records one duration sample.
    pub fn add(&mut self, d: SimDuration) {
        self.total += d;
        self.count += 1;
    }

    /// Sum of all samples.
    pub fn total(self) -> SimDuration {
        self.total
    }

    /// Number of samples.
    pub fn count(self) -> u64 {
        self.count
    }

    /// Mean sample, or zero when empty.
    pub fn mean(self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }
}

impl fmt::Display for TimeAccum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over {} samples", self.total, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        for _ in 0..10 {
            c.incr();
        }
        c.add(5);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn time_accum_mean() {
        let mut t = TimeAccum::default();
        assert_eq!(t.mean(), SimDuration::ZERO);
        t.add(SimDuration::from_us(4));
        t.add(SimDuration::from_us(8));
        assert_eq!(t.mean(), SimDuration::from_us(6));
    }
}
