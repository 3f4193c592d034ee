//! Open-loop arrival schedule and the timing of each scheduled request.
//!
//! Independent devices send whether or not the server keeps up, so the
//! open-loop generator follows a seeded Poisson schedule and every request
//! is timed from when it was *due*. A stall that delays the generator
//! itself (a blocked write, an oversleep) therefore still counts against
//! the requests it delayed, and the lateness is reported on its own so a
//! run that measured the generator rather than the server shows as such.

use std::time::Duration;

use hpnn_tensor::Rng;

/// Due times (offsets from the start of the window) of a Poisson arrival
/// process at `rate` requests per second over `window`, conditioned on
/// its expected count: `rate · window` (rounded) arrivals placed uniformly
/// at random and sorted, which is exactly how a Poisson process spreads a
/// given number of arrivals. The gaps stay exponential, but every run
/// offers the same number of requests, so the offered load does not vary
/// from seed to seed. The same `rng` state always yields the same schedule.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let end = window.as_secs_f64();
    let count = (rate * end).round() as usize;
    let mut due: Vec<Duration> = (0..count)
        .map(|_| Duration::from_secs_f64(rng.next_f64() * end))
        .collect();
    due.sort_unstable();
    due
}

/// Due times of bursts of `size` requests due together, one burst every
/// `period`, covering `window`.
pub fn burst_arrivals(size: usize, period: Duration, window: Duration) -> Vec<Duration> {
    assert!(!period.is_zero(), "burst period must be positive");
    let bursts = (window.as_secs_f64() / period.as_secs_f64()).ceil() as u32;
    (0..bursts)
        .flat_map(|b| std::iter::repeat_n(period * b, size))
        .collect()
}

/// How one scheduled request went, as offsets from the window start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    /// From when the request was due to when its reply arrived.
    pub latency: Duration,
    /// How late the generator sent it.
    pub lag: Duration,
}

/// Times a request that was due at `due`, sent at `sent` and answered at
/// `received` (all offsets from the same window start).
pub fn open_loop_timing(due: Duration, sent: Duration, received: Duration) -> OpenLoopTiming {
    OpenLoopTiming {
        latency: received.saturating_sub(due),
        lag: sent.saturating_sub(due),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let window = Duration::from_secs(5);
        let a = poisson_arrivals(&mut Rng::new(11), 200.0, window);
        let b = poisson_arrivals(&mut Rng::new(11), 200.0, window);
        let c = poisson_arrivals(&mut Rng::new(12), 200.0, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Sorted, inside the window, exactly the expected count.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < window));
        assert_eq!(a.len(), 1000);
        // Gaps are exponential: their mean is 1/rate and about 1 in e of
        // them exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((0.0045..0.0055).contains(&mean), "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 0.005).count() as f64 / gaps.len() as f64;
        assert!((0.32..0.42).contains(&long), "share of long gaps {long}");
    }

    #[test]
    fn bursts_cover_the_window() {
        let ms = Duration::from_millis;
        let due = burst_arrivals(3, ms(40), ms(100));
        assert_eq!(due, [0, 0, 0, 40, 40, 40, 80, 80, 80].map(ms).to_vec());
    }

    #[test]
    fn latency_runs_from_the_due_time_and_includes_generator_lag() {
        let ms = Duration::from_millis;
        // Sent on time, answered 3 ms later.
        let on_time = open_loop_timing(ms(10), ms(10), ms(13));
        assert_eq!((on_time.latency, on_time.lag), (ms(3), ms(0)));
        // The generator ran 5 ms late: the same 3 ms of service shows as
        // 8 ms of latency, and the lag is reported.
        let late = open_loop_timing(ms(10), ms(15), ms(18));
        assert_eq!((late.latency, late.lag), (ms(8), ms(5)));
    }
}
