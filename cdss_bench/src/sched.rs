//! Open-loop request schedule: request `i` is due at `start + i * interval`
//! whether or not earlier requests have completed, and its latency counts
//! from the due time, so a stall is charged to every request queued
//! behind it. The clock is a parameter so the accounting can be tested
//! without sleeping.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return at or after `deadline_ns`.
    fn wait_until(&self, deadline_ns: u64);
}

/// Wall clock counting from an epoch. Sleeps most of a wait and spins the
/// last stretch: a bare `sleep` overshoots by the kernel's timer slack,
/// which would be charged to every request as latency.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    pub epoch: Instant,
}

const SPIN_NS: u64 = 150_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Timing of one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    pub due_ns: u64,
    /// When the request could first have gone out: its due time, or the
    /// completion of the request before it on this blocking connection.
    pub ready_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sent {
    /// What the user waited: completion minus the time the request was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator itself ran: the delay between the moment
    /// the request could go out and the moment it did. Waiting for the
    /// connection is the system's doing and counts in the latency instead.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.ready_ns
    }
}

/// Send `count` requests, one every `interval_ns` from `start_ns`. A
/// request that comes due while an earlier one is still in flight (this is
/// one blocking connection) is sent as soon as the connection frees up.
pub fn run_open_loop(
    clock: &impl Clock,
    start_ns: u64,
    interval_ns: u64,
    count: usize,
    mut send: impl FnMut(usize),
) -> Vec<Sent> {
    let mut out: Vec<Sent> = Vec::with_capacity(count);
    for i in 0..count {
        let due_ns = start_ns + i as u64 * interval_ns;
        let ready_ns = out.last().map_or(due_ns, |prev| prev.done_ns.max(due_ns));
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        send(i);
        out.push(Sent {
            due_ns,
            ready_ns,
            sent_ns,
            done_ns: clock.now_ns(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, and wakes 7 ns late.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, deadline_ns: u64) {
            if self.0.get() < deadline_ns {
                self.0.set(deadline_ns + 7);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        let clock = FakeClock(Cell::new(500));
        // Every request takes 100 ns of service, except request 1, which
        // stalls for 2500 ns; requests are due every 1000 ns.
        let sent = run_open_loop(&clock, 1_000, 1_000, 5, |i| {
            let service = if i == 1 { 2_500 } else { 100 };
            clock.0.set(clock.0.get() + service);
        });
        let latencies: Vec<u64> = sent.iter().map(Sent::latency_ns).collect();
        let lags: Vec<u64> = sent.iter().map(Sent::lag_ns).collect();
        // 0: due 1000, sent 1007, done 1107. 1: due 2000, sent 2007, done
        // 4507. 2: due 3000 but the connection frees at 4507; done 4607.
        // 3: due 4000, sent 4607, done 4707. 4: due 5000, on time again.
        assert_eq!(latencies, vec![107, 2_507, 1_607, 707, 107]);
        // Only the late wake-ups are the generator's own lag.
        assert_eq!(lags, vec![7, 7, 0, 0, 7]);
        assert_eq!(sent[2].ready_ns, 4_507);
        assert_eq!(sent[4].due_ns, 5_000);
    }

    #[test]
    fn the_wall_clock_waits_until_the_deadline() {
        let clock = WallClock {
            epoch: Instant::now(),
        };
        let deadline = clock.now_ns() + 400_000;
        clock.wait_until(deadline);
        assert!(clock.now_ns() >= deadline);
    }
}
