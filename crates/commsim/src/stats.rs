//! Per-rank communication and I/O counters.
//!
//! Plain (non-atomic) counters owned by the rank thread via its `Comm`
//! handle; the runner collects them after join. The storage-economy
//! comparison in §4.1 of the paper (6.5 MB of images vs 19 GB of
//! checkpoints) is reproduced from `bytes_written_fs`.

/// Counters of everything a rank did, for tests and harness reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub messages_received: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Bytes written to the simulated filesystem.
    pub bytes_written_fs: u64,
    /// Files created on the simulated filesystem.
    pub files_written: u64,
    /// Bytes moved device→host.
    pub bytes_d2h: u64,
    /// Virtual seconds spent in GPU compute.
    pub time_gpu_compute: f64,
    /// Virtual seconds spent in host compute.
    pub time_host_compute: f64,
    /// Virtual seconds spent in device↔host transfers.
    pub time_xfer: f64,
    /// Virtual seconds spent writing to the filesystem.
    pub time_io: f64,
    /// Virtual seconds spent blocked in communication (p2p + collectives).
    pub time_comm: f64,
}

impl CommStats {
    /// Merge another rank's stats into this one (sums every counter).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.collectives += other.collectives;
        self.bytes_written_fs += other.bytes_written_fs;
        self.files_written += other.files_written;
        self.bytes_d2h += other.bytes_d2h;
        self.time_gpu_compute += other.time_gpu_compute;
        self.time_host_compute += other.time_host_compute;
        self.time_xfer += other.time_xfer;
        self.time_io += other.time_io;
        self.time_comm += other.time_comm;
    }

    /// Sum a collection of per-rank stats into a job total.
    pub fn aggregate<'a>(all: impl IntoIterator<Item = &'a CommStats>) -> CommStats {
        let mut total = CommStats::default();
        for s in all {
            total.merge(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_all_fields() {
        let a = CommStats {
            messages_sent: 1,
            bytes_sent: 100,
            messages_received: 2,
            collectives: 3,
            bytes_written_fs: 4,
            files_written: 5,
            bytes_d2h: 6,
            time_gpu_compute: 1.0,
            time_host_compute: 2.0,
            time_xfer: 3.0,
            time_io: 4.0,
            time_comm: 5.0,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.messages_sent, 2);
        assert_eq!(b.bytes_sent, 200);
        assert_eq!(b.files_written, 10);
        assert_eq!(b.time_comm, 10.0);
    }

    #[test]
    fn aggregate_over_ranks() {
        let ranks = vec![
            CommStats {
                bytes_written_fs: 10,
                ..Default::default()
            };
            4
        ];
        let total = CommStats::aggregate(&ranks);
        assert_eq!(total.bytes_written_fs, 40);
    }
}
