//! Facts about the host and this process that go with every result.

use std::path::PathBuf;

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] reads the peak since now. `false` where the kernel
/// does not allow it.
pub fn reset_peak_rss() -> bool {
    // "5" is the clear_refs code for "reset VmHWM" (Linux ≥ 4.0).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A fixed piece of floating-point work, timed on every CPU this process
/// may use at once (mean over the CPUs): how fast this host is right now.
/// A shared host slows down by 30–60 % for seconds to minutes at a time —
/// a neighbour on a sibling hyperthread, or the hypervisor putting two
/// virtual CPUs on one core, which only shows when both are busy — and a
/// run divides that out of its timings with probes taken between calls.
pub fn speed_probe() -> f64 {
    fn spin(iterations: u64) {
        let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        for i in 0..iterations {
            for (k, a) in acc.iter_mut().enumerate() {
                *a = *a * 0.999_999 + (i as f64 + k as f64) * 1e-9;
            }
        }
        std::hint::black_box(acc);
    }
    let threads = nproc();
    let start = std::sync::Barrier::new(threads);
    let timed_spin = || {
        // Untimed: whatever ran before the probe left the caches and the
        // clock governor in its own state.
        spin(1_000_000);
        start.wait();
        let started = std::time::Instant::now();
        spin(4_000_000);
        started.elapsed().as_secs_f64()
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(timed_spin)).collect();
        let mut total = timed_spin();
        for other in others {
            total += other.join().expect("a probe thread panicked");
        }
        total / threads as f64
    })
}

/// What [`speed_probe`] takes on the reference host at rest.
const PROBE_REFERENCE_S: f64 = 0.0105;

/// The host's speed while `probes` were taken, as a share of the
/// reference host's at rest. The mean, not the median: a burst that
/// catches a few probes also catches the calls beside them.
pub fn speed_of(probes: &[f64]) -> f64 {
    PROBE_REFERENCE_S * probes.len() as f64 / probes.iter().sum::<f64>()
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `nproc`, pool width, kernel and compiler, as a JSON object.
pub fn facts_json() -> String {
    use crate::surface::json::push_str;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let mut out = format!(
        "{{\"nproc\": {}, \"pool_threads\": {}, \"kernel\": ",
        nproc(),
        crate::surface::pool::default_threads()
    );
    push_str(&mut out, kernel.trim());
    out.push_str(", \"rustc\": ");
    push_str(&mut out, &rustc);
    out.push('}');
    out
}

/// Scratch directory for everything a run writes (PNGs, park files,
/// traces): `.nekbench/` under the working directory, so a run reads and
/// writes only inside its checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".nekbench")
}

/// A fresh, empty directory for this process's temporary outputs.
///
/// # Errors
/// Directory creation failures.
pub fn temp_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = work_dir().join(format!("tmp-{}-{tag}", std::process::id()));
    // A recycled pid may have left a directory behind.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The affinity mask the thread had before [`pin_to_one_cpu`].
pub struct Pinned {
    previous: [u64; CPU_SET_WORDS],
}

impl Pinned {
    /// Give the calling thread (and threads it spawns from now on) its
    /// original CPUs back.
    pub fn release(self) {
        // SAFETY: `previous` is a readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.previous),
                self.previous.as_ptr(),
            )
        };
        if rc != 0 {
            println!("  note: could not restore the CPU affinity; staying pinned");
        }
    }
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the first CPU it is currently allowed on. `None` when the kernel
/// refuses (the run then stays unpinned).
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut previous = [0u64; CPU_SET_WORDS];
    // SAFETY: `previous` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&previous), previous.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let (word, bits) = previous.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(Pinned { previous })
}
