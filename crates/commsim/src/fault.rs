//! Deterministic fault injection for the virtual-clock world.
//!
//! A [`FaultPlan`] is a *seeded, pure* description of every fault a run
//! will experience: per-packet link faults (drops, payload corruption,
//! delay spikes), endpoint crashes at a chosen step, and slow-consumer
//! stalls. Every decision is a hash of `(seed, producer, step, attempt)` —
//! never a sequential RNG stream — so outcomes are identical across runs
//! and independent of thread scheduling. Faults cost virtual time like any
//! other operation (retries, backoff, stalls all advance the clock), so
//! figures produced under fault injection stay reproducible.
//!
//! The plan is deliberately transport-agnostic: `commsim` defines the
//! vocabulary, the `transport` crate consults it on its send/receive
//! paths, and harnesses sweep its parameters.

/// Per-packet link fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaultSpec {
    /// Probability that a data frame is lost in flight.
    pub drop_prob: f64,
    /// Probability that a data frame arrives with flipped bytes.
    pub corrupt_prob: f64,
    /// Probability that a delivered frame suffers a delay spike.
    pub delay_prob: f64,
    /// Size of a delay spike in virtual seconds.
    pub delay_secs: f64,
}

/// Kill one endpoint (reader) when it is about to deliver `at_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointCrash {
    /// Endpoint (reader) index.
    pub endpoint: usize,
    /// First step the crashed endpoint fails to deliver.
    pub at_step: u64,
}

/// Stall one endpoint for a fixed virtual duration at one step — the
/// "slow consumer" fault that exercises staging back-pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerStall {
    /// Endpoint (reader) index.
    pub endpoint: usize,
    /// Step whose delivery is slowed.
    pub at_step: u64,
    /// Extra virtual seconds spent on that delivery.
    pub seconds: f64,
}

/// Kill one *simulation* rank right after it completes `at_step` — the
/// node-failure fault a run supervisor must recover from. The rank raises
/// an [`InjectedCrash`] panic, poisoning its world; the supervisor
/// classifies the payload and restarts from the newest valid checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRankCrash {
    /// Simulation rank that dies.
    pub rank: usize,
    /// Last step the rank completes before dying.
    pub at_step: u64,
}

/// Flip bytes of one rank's checkpoint file *after* it has been written
/// and renamed into place — silent on-disk bit rot. The generation's
/// manifest CRC no longer matches, so a later restore must quarantine the
/// generation instead of loading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCorruption {
    /// Rank whose dump file is damaged.
    pub rank: usize,
    /// Checkpoint generation (step) to damage.
    pub at_step: u64,
}

/// Panic payload raised by a rank whose scheduled [`SimRankCrash`] fired.
/// Supervisors downcast the payload to classify the failure precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Rank that crashed.
    pub rank: usize,
    /// Step it crashed at.
    pub step: u64,
}

/// Panic payload raised when a producer's pipeline-backpressure wait
/// exceeds the configured watchdog deadline (a stalled consumer that
/// would otherwise wedge the run indefinitely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogTimeout {
    /// Producer rank that tripped the watchdog.
    pub rank: usize,
    /// Step the producer was publishing when it gave up.
    pub step: u64,
    /// Virtual seconds it waited before tripping.
    pub waited: f64,
}

/// The fate of one data-frame transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptFate {
    /// Frame arrives intact, `extra_delay` virtual seconds late.
    Deliver {
        /// Delay spike beyond the modeled transfer time (0 for none).
        extra_delay: f64,
    },
    /// Frame lost in flight; the sender times out and retries.
    Drop,
    /// Frame arrives with flipped bytes; the receiver's CRC rejects it.
    Corrupt,
}

/// A complete, seeded fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every per-packet decision.
    pub seed: u64,
    /// Link-level fault probabilities.
    pub link: LinkFaultSpec,
    /// Endpoint crashes.
    pub crashes: Vec<EndpointCrash>,
    /// Slow-consumer stalls.
    pub stalls: Vec<ConsumerStall>,
    /// Simulation-rank crashes (recoverable only under a supervisor).
    pub sim_crashes: Vec<SimRankCrash>,
    /// On-disk checkpoint corruption (silent bit rot after the write).
    pub disk_corruptions: Vec<CheckpointCorruption>,
}

const SALT_FATE: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_DELAY: u64 = 0xC2B2_AE3D_27D4_EB4F;
const SALT_FLIP: u64 = 0x1656_67B1_9E37_79F9;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing (every helper is a cheap no-op).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with link faults only.
    pub fn with_link(seed: u64, link: LinkFaultSpec) -> Self {
        Self {
            seed,
            link,
            ..Self::default()
        }
    }

    /// Uniform draw in `[0, 1)` keyed by `(seed, producer, step, attempt,
    /// salt)`. Pure: the same key always rolls the same value.
    fn roll(&self, producer: usize, step: u64, attempt: u32, salt: u64) -> f64 {
        let key = self.seed.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (producer as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ step.wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
            ^ (u64::from(attempt)).wrapping_mul(0x5895_59F2_B269_6AED)
            ^ salt;
        (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide the fate of transmission `attempt` of `(producer, step)`.
    pub fn attempt_fate(&self, producer: usize, step: u64, attempt: u32) -> AttemptFate {
        let l = &self.link;
        if l.drop_prob <= 0.0 && l.corrupt_prob <= 0.0 && l.delay_prob <= 0.0 {
            return AttemptFate::Deliver { extra_delay: 0.0 };
        }
        let u = self.roll(producer, step, attempt, SALT_FATE);
        if u < l.drop_prob {
            return AttemptFate::Drop;
        }
        if u < l.drop_prob + l.corrupt_prob {
            return AttemptFate::Corrupt;
        }
        let extra_delay = if l.delay_prob > 0.0
            && self.roll(producer, step, attempt, SALT_DELAY) < l.delay_prob
        {
            l.delay_secs
        } else {
            0.0
        };
        AttemptFate::Deliver { extra_delay }
    }

    /// The step at which `endpoint` crashes, if any.
    pub fn crash_step(&self, endpoint: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.endpoint == endpoint)
            .map(|c| c.at_step)
            .min()
    }

    /// The step at which simulation rank `rank` crashes, if any.
    pub fn sim_crash_step(&self, rank: usize) -> Option<u64> {
        self.sim_crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at_step)
            .min()
    }

    /// True when `rank`'s checkpoint file for generation `step` is
    /// scheduled to rot on disk after the write.
    pub fn corrupts_checkpoint(&self, rank: usize, step: u64) -> bool {
        self.disk_corruptions
            .iter()
            .any(|c| c.rank == rank && c.at_step == step)
    }

    /// Drop every scheduled one-shot fault that already fired at or
    /// before `step` — the supervisor calls this before a restart so a
    /// transient crash/stall does not re-fire while the run replays the
    /// steps since the restored checkpoint. Link-fault probabilities and
    /// disk corruptions (already materialized on disk) are left alone.
    #[must_use]
    pub fn without_fired(&self, step: u64) -> Self {
        let mut plan = self.clone();
        plan.sim_crashes.retain(|c| c.at_step > step);
        plan.crashes.retain(|c| c.at_step > step);
        plan.stalls.retain(|s| s.at_step > step);
        plan.disk_corruptions.retain(|c| c.at_step > step);
        plan
    }

    /// Extra virtual seconds `endpoint` spends delivering `step`.
    pub fn stall_secs(&self, endpoint: usize, step: u64) -> f64 {
        self.stalls
            .iter()
            .filter(|s| s.endpoint == endpoint && s.at_step == step)
            .map(|s| s.seconds)
            .sum()
    }

    /// Deterministically flip a few bytes of `payload` (the on-wire damage
    /// behind [`AttemptFate::Corrupt`]). Guaranteed to change the payload
    /// whenever it is non-empty.
    pub fn corrupt_payload(&self, payload: &mut [u8], producer: usize, step: u64, attempt: u32) {
        if payload.is_empty() {
            return;
        }
        for flip in 0..3u64 {
            let h = splitmix64(
                self.seed
                    ^ (producer as u64).rotate_left(17)
                    ^ step.rotate_left(33)
                    ^ u64::from(attempt).rotate_left(47)
                    ^ SALT_FLIP.wrapping_add(flip),
            );
            let idx = (h as usize) % payload.len();
            // XOR with a non-zero mask so the byte always changes.
            payload[idx] ^= 0x5A | ((h >> 32) as u8 & 0xA5) | 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultPlan {
        FaultPlan::with_link(
            42,
            LinkFaultSpec {
                drop_prob: 0.3,
                corrupt_prob: 0.2,
                delay_prob: 0.25,
                delay_secs: 1e-3,
            },
        )
    }

    #[test]
    fn quiet_plan_delivers_everything() {
        let p = FaultPlan::none();
        for step in 0..100 {
            assert_eq!(
                p.attempt_fate(3, step, 0),
                AttemptFate::Deliver { extra_delay: 0.0 }
            );
        }
        assert_eq!(p.crash_step(0), None);
        assert_eq!(p.stall_secs(0, 5), 0.0);
    }

    #[test]
    fn fates_are_deterministic_and_key_sensitive() {
        let p = lossy();
        let q = lossy();
        let mut differs = false;
        for producer in 0..4 {
            for step in 0..50u64 {
                for attempt in 0..3u32 {
                    let a = p.attempt_fate(producer, step, attempt);
                    assert_eq!(a, q.attempt_fate(producer, step, attempt));
                    if a != p.attempt_fate(producer, step, attempt + 1) {
                        differs = true;
                    }
                }
            }
        }
        assert!(differs, "fates must vary with the attempt index");
    }

    #[test]
    fn rates_roughly_match_probabilities() {
        let p = lossy();
        let n = 20_000;
        let (mut drops, mut corrupts) = (0, 0);
        for step in 0..n as u64 {
            match p.attempt_fate(0, step, 0) {
                AttemptFate::Drop => drops += 1,
                AttemptFate::Corrupt => corrupts += 1,
                AttemptFate::Deliver { .. } => {}
            }
        }
        let (dr, cr) = (drops as f64 / n as f64, corrupts as f64 / n as f64);
        assert!((dr - 0.3).abs() < 0.02, "drop rate {dr}");
        assert!((cr - 0.2).abs() < 0.02, "corrupt rate {cr}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::with_link(1, lossy().link);
        let b = FaultPlan::with_link(2, lossy().link);
        let n = (0..200u64)
            .filter(|&s| a.attempt_fate(0, s, 0) != b.attempt_fate(0, s, 0))
            .count();
        assert!(n > 20, "only {n}/200 differed between seeds");
    }

    #[test]
    fn crash_and_stall_lookups() {
        let p = FaultPlan {
            crashes: vec![
                EndpointCrash {
                    endpoint: 1,
                    at_step: 7,
                },
                EndpointCrash {
                    endpoint: 1,
                    at_step: 4,
                },
            ],
            stalls: vec![ConsumerStall {
                endpoint: 0,
                at_step: 3,
                seconds: 2.5,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(p.crash_step(1), Some(4), "earliest crash wins");
        assert_eq!(p.crash_step(0), None);
        assert_eq!(p.stall_secs(0, 3), 2.5);
        assert_eq!(p.stall_secs(0, 4), 0.0);
    }

    #[test]
    fn sim_crash_and_disk_corruption_lookups() {
        let p = FaultPlan {
            sim_crashes: vec![
                SimRankCrash {
                    rank: 2,
                    at_step: 9,
                },
                SimRankCrash {
                    rank: 2,
                    at_step: 5,
                },
            ],
            disk_corruptions: vec![CheckpointCorruption {
                rank: 0,
                at_step: 4,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(p.sim_crash_step(2), Some(5), "earliest crash wins");
        assert_eq!(p.sim_crash_step(0), None);
        assert!(p.corrupts_checkpoint(0, 4));
        assert!(!p.corrupts_checkpoint(0, 6));
        assert!(!p.corrupts_checkpoint(1, 4));
    }

    #[test]
    fn without_fired_strips_only_elapsed_one_shot_faults() {
        let p = FaultPlan {
            link: LinkFaultSpec {
                drop_prob: 0.1,
                ..LinkFaultSpec::default()
            },
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 3,
            }],
            stalls: vec![
                ConsumerStall {
                    endpoint: 0,
                    at_step: 2,
                    seconds: 1.0,
                },
                ConsumerStall {
                    endpoint: 0,
                    at_step: 8,
                    seconds: 1.0,
                },
            ],
            sim_crashes: vec![SimRankCrash {
                rank: 1,
                at_step: 5,
            }],
            disk_corruptions: vec![CheckpointCorruption {
                rank: 0,
                at_step: 4,
            }],
            ..FaultPlan::none()
        };
        let after = p.without_fired(5);
        assert_eq!(after.link.drop_prob, 0.1, "link probabilities persist");
        assert!(after.crashes.is_empty());
        assert!(after.sim_crashes.is_empty());
        assert!(after.disk_corruptions.is_empty());
        assert_eq!(after.stalls.len(), 1);
        assert_eq!(after.stalls[0].at_step, 8, "future faults survive");
    }

    #[test]
    fn corruption_always_changes_nonempty_payloads() {
        let p = lossy();
        for len in [1usize, 2, 7, 1024] {
            let orig = vec![0xABu8; len];
            let mut damaged = orig.clone();
            p.corrupt_payload(&mut damaged, 1, 9, 0);
            assert_ne!(orig, damaged, "len {len} unchanged");
            // And deterministically so.
            let mut again = orig.clone();
            p.corrupt_payload(&mut again, 1, 9, 0);
            assert_eq!(damaged, again);
        }
        let mut empty: Vec<u8> = vec![];
        p.corrupt_payload(&mut empty, 0, 0, 0);
        assert!(empty.is_empty());
    }
}
