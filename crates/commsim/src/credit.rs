//! A bounded hand-off between two rank worlds, charged in virtual time.
//!
//! A producer in one world may have at most `depth` items outstanding at a
//! consumer in another. The consumer releases each item's slot, in order,
//! with its own virtual time when it is done with the item; the producer's
//! k-th reservation takes the slot its (k − depth)-th item released and
//! advances the producer's clock to that release time. Which release that
//! is follows from the counts alone: whether the release was already
//! waiting or the producer blocked for it in real time, the charge is the
//! same, so the producer's clock never depends on how the two worlds'
//! threads interleave. It is SST's `QueueLimit` with the blocking full-queue
//! policy, kept per producer.

use crate::Comm;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// The producer half of a credit window.
pub struct CreditWindow {
    releases: Receiver<f64>,
    depth: usize,
    in_flight: usize,
}

/// The consumer half of a credit window.
pub struct CreditRelease(Sender<f64>);

/// A window of `depth` slots (at least one).
pub fn credit_window(depth: usize) -> (CreditWindow, CreditRelease) {
    let (tx, rx) = mpsc::channel();
    let window = CreditWindow {
        releases: rx,
        depth: depth.max(1),
        in_flight: 0,
    };
    (window, CreditRelease(tx))
}

impl CreditWindow {
    /// Take a slot for the next item. With `depth` items outstanding, take
    /// the oldest one's release inside a `span` span and advance the clock
    /// to its release time; the wait for it runs off the event scheduler's
    /// run token ([`Comm::external_wait`]), bounded by `bound` of real time
    /// (`Duration::MAX` waits as long as it takes). Returns the virtual
    /// seconds the slot cost: 0 when one was free.
    ///
    /// # Errors
    /// No release within `bound` (`Timeout`), or the consumer half is gone
    /// (`Disconnected`). No slot is taken then.
    pub fn reserve(
        &mut self,
        comm: &mut Comm,
        span: &str,
        bound: Duration,
    ) -> Result<f64, RecvTimeoutError> {
        let mut waited = 0.0;
        if self.in_flight >= self.depth {
            let _sp = comm.span(span);
            let released_at = comm.external_wait(|| self.releases.recv_timeout(bound))?;
            let before = comm.now();
            comm.advance_to(released_at);
            waited = comm.now() - before;
            self.in_flight -= 1;
        }
        self.in_flight += 1;
        Ok(waited)
    }

    /// Wait for every outstanding item's release without charging the
    /// clock: the producer is done, and the consumer finishes on its own
    /// time. Returns early if the consumer half is gone.
    pub fn finish(&mut self, comm: &Comm) {
        while self.in_flight > 0 && comm.external_wait(|| self.releases.recv()).is_ok() {
            self.in_flight -= 1;
        }
    }
}

impl CreditRelease {
    /// Free the oldest outstanding slot at virtual time `t`. A producer
    /// that is gone is not an error.
    pub fn release(&self, t: f64) {
        let _ = self.0.send(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_ranks_with_state, MachineModel};

    /// One producer rank taking `n` slots of a depth-2 window; returns the
    /// cost of each reservation and the final clock.
    fn reserve_n(window: CreditWindow, n: usize) -> (Vec<f64>, f64) {
        run_ranks_with_state(
            MachineModel::test_tiny(),
            vec![window],
            move |comm, mut w| {
                let costs = (0..n)
                    .map(|_| {
                        comm.advance(1.0);
                        w.reserve(comm, "test/wait", Duration::from_secs(5))
                            .unwrap()
                    })
                    .collect();
                w.finish(comm);
                (costs, comm.now())
            },
        )
        .remove(0)
    }

    #[test]
    fn the_kth_slot_costs_the_release_of_item_k_minus_depth_whenever_it_came() {
        let releases = [10.0, 2.5, 30.0, 0.0];
        // Every release sent before the producer starts...
        let (window, release) = credit_window(2);
        for t in releases {
            release.release(t);
        }
        let early = reserve_n(window, 4);
        // ...and each one sent late, from another thread.
        let (window, release) = credit_window(2);
        let consumer = std::thread::spawn(move || {
            for t in releases {
                std::thread::sleep(Duration::from_millis(5));
                release.release(t);
            }
        });
        let late = reserve_n(window, 4);
        consumer.join().unwrap();
        // Items 0 and 1 take free slots at t = 1, 2; item 2 waits for
        // release 0 (t = 3 → 10), item 3 for release 1 (2.5 < 11: free).
        assert_eq!(early.0, vec![0.0, 0.0, 7.0, 0.0]);
        assert_eq!(early.1, 11.0);
        assert_eq!(late, early);
    }

    #[test]
    fn a_gone_consumer_or_a_missing_release_takes_no_slot() {
        let errors = run_ranks_with_state(
            MachineModel::test_tiny(),
            vec![credit_window(0)],
            |comm, (mut w, release)| {
                assert_eq!(w.reserve(comm, "test/wait", Duration::ZERO), Ok(0.0));
                let timeout = w.reserve(comm, "test/wait", Duration::from_millis(1));
                drop(release);
                let gone = w.reserve(comm, "test/wait", Duration::from_secs(5));
                (timeout, gone, comm.now())
            },
        );
        assert_eq!(
            errors[0],
            (
                Err(RecvTimeoutError::Timeout),
                Err(RecvTimeoutError::Disconnected),
                0.0
            )
        );
    }
}
