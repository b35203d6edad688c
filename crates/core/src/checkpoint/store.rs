//! Crash-consistent checkpoint generations.
//!
//! A *generation* is one coordinated dump of every rank at the same step:
//! per-rank `gen_{step:06}_r{rank}.fld` files plus a rank-0
//! `MANIFEST_{step:06}` recording each file's length and CRC32. Writes
//! are atomic (temp file → fsync → rename) and the manifest is written
//! *last*, after a gather collective, so a crash at any instant leaves
//! either a complete, self-validating generation or a torn one that
//! [`scan_for_restore`] detects and quarantines instead of restoring.

use commsim::{Comm, FaultPlan};
use sem::snapshot::FieldSnapshot;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use telemetry::EventKind;

use super::{encode_reporting_truncation, read_fld, FldDump};

/// First line of a manifest file.
const MANIFEST_MAGIC: &str = "NEKMANIFEST1";

/// Where and how often to cut checkpoint generations, and how many
/// complete generations to retain on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding generation files, manifests, and `quarantine/`.
    pub dir: PathBuf,
    /// Cut a generation every `every` steps (0 disables cadence; the
    /// caller can still force writes).
    pub every: u64,
    /// Keep the newest `retain` complete generations; older ones are
    /// garbage-collected after each successful manifest write.
    pub retain: usize,
}

impl CheckpointSpec {
    /// Spec with the default retention of 4 generations.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        Self {
            dir: dir.into(),
            every,
            retain: 4,
        }
    }

    /// True when the cadence says step `step` should cut a generation.
    pub fn due(&self, step: u64) -> bool {
        self.every > 0 && step > 0 && step.is_multiple_of(self.every)
    }
}

/// Per-rank handle writing crash-consistent generations under a
/// [`CheckpointSpec`]. Every rank in the world must call
/// [`Self::write_generation`] collectively (it contains a gather).
#[derive(Debug)]
pub struct CheckpointStore {
    spec: CheckpointSpec,
    generations_written: u64,
    bytes_written: u64,
}

impl CheckpointStore {
    /// A store for this rank. The directory is created lazily on the
    /// first write.
    pub fn new(spec: CheckpointSpec) -> Self {
        Self {
            spec,
            generations_written: 0,
            bytes_written: 0,
        }
    }

    /// The spec this store writes under.
    pub fn spec(&self) -> &CheckpointSpec {
        &self.spec
    }

    /// Complete generations this rank has participated in.
    pub fn generations_written(&self) -> u64 {
        self.generations_written
    }

    /// Bytes this rank has written (rank files only, not manifests).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Collectively write one generation from this rank's snapshot.
    ///
    /// Order of operations is the crash-consistency argument:
    /// 1. every rank writes its own file atomically (tmp → fsync → rename);
    /// 2. scheduled on-disk corruption (from `faults`) fires *after* the
    ///    rename and after the CRC was computed, modelling bit rot that
    ///    the manifest must catch at restore time;
    /// 3. a gather of `(len, crc)` synchronizes all ranks — an implicit
    ///    barrier proving every rank file exists;
    /// 4. rank 0 writes the manifest atomically, then garbage-collects
    ///    generations beyond `retain`.
    ///
    /// A crash before step 4 leaves rank files with no manifest: a *torn*
    /// generation that [`scan_for_restore`] quarantines.
    ///
    /// Returns the bytes this rank wrote.
    pub fn write_generation(
        &mut self,
        comm: &mut Comm,
        snap: &FieldSnapshot,
        faults: &FaultPlan,
    ) -> u64 {
        let step = snap.version as u64;
        let rank = comm.rank();
        let buf = encode_reporting_truncation(comm, snap);
        let nbytes = buf.len() as u64;
        let crc = transport::crc32(&buf);

        // Cost model: serialize + parallel file-system write.
        comm.compute_host(nbytes as f64, nbytes as f64 * 2.0);
        comm.fs_write(nbytes, comm.size());

        let final_path = self.spec.dir.join(rank_file_name(step, rank));
        if let Err(err) = atomic_write(&final_path, &buf) {
            comm.telemetry_event(
                EventKind::CheckpointWrite,
                Some(step),
                format!("warning: rank file write failed: {err}"),
            );
        }

        // Scheduled bit rot: flip bytes on disk *after* the atomic rename,
        // so the file exists, the manifest records the pristine CRC, and
        // only restore-time validation can notice.
        if faults.corrupts_checkpoint(rank, step) {
            if let Ok(mut on_disk) = std::fs::read(&final_path) {
                faults.corrupt_payload(&mut on_disk, rank, step, 0);
                let _ = std::fs::write(&final_path, &on_disk);
            }
            comm.telemetry()
                .counter("checkpoint/disk_corruptions")
                .inc();
            comm.telemetry_event(
                EventKind::FaultInjected,
                Some(step),
                format!("checkpoint bytes corrupted on disk (rank {rank})"),
            );
        }

        // Gather (len, crc) — doubles as the all-files-exist barrier.
        let entries = comm.gather(0, (nbytes, crc), 12);
        if let Some(entries) = entries {
            match write_manifest(&self.spec.dir, step, snap.time, &entries) {
                Ok(manifest_bytes) => {
                    comm.fs_write(manifest_bytes, 1);
                    gc_generations(&self.spec.dir, self.spec.retain, comm);
                }
                Err(err) => {
                    comm.telemetry_event(
                        EventKind::CheckpointWrite,
                        Some(step),
                        format!("warning: manifest write failed: {err}"),
                    );
                }
            }
        }

        self.generations_written += 1;
        self.bytes_written += nbytes;
        comm.telemetry()
            .counter("checkpoint/generation_bytes")
            .add(nbytes);
        comm.telemetry().counter("checkpoint/generations").inc();
        comm.telemetry_event(
            EventKind::CheckpointWrite,
            Some(step),
            format!("generation {step}: {nbytes} B rank file"),
        );
        nbytes
    }
}

/// One generation that failed validation and was moved to
/// `dir/quarantine/gen_{step:06}/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedGeneration {
    /// The generation's step number.
    pub step: u64,
    /// First validation failure observed.
    pub reason: String,
}

/// The newest complete, CRC-valid generation, parsed and ready to
/// restore: `dumps[rank]` is rank `rank`'s field dump.
#[derive(Debug, Clone)]
pub struct RestoredGeneration {
    /// Step the generation was cut at.
    pub step: u64,
    /// Simulation time recorded in the manifest.
    pub time: f64,
    /// Per-rank dumps, indexed by rank.
    pub dumps: Vec<FldDump>,
}

/// Result of auditing a checkpoint directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryScan {
    /// The newest valid generation, if any survived validation.
    pub restored: Option<RestoredGeneration>,
    /// Every generation that failed validation this scan (now moved
    /// under `quarantine/`), newest first.
    pub quarantined: Vec<QuarantinedGeneration>,
    /// Structurally valid generations written by a different world size,
    /// newest first. Not restorable here, but not corrupt either — left
    /// on disk untouched.
    pub foreign: Vec<QuarantinedGeneration>,
}

fn rank_file_name(step: u64, rank: usize) -> String {
    format!("gen_{step:06}_r{rank}.fld")
}

fn manifest_name(step: u64) -> String {
    format!("MANIFEST_{step:06}")
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the final name.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Serialize and atomically write the generation manifest. Returns the
/// manifest's size in bytes.
fn write_manifest(
    dir: &Path,
    step: u64,
    time: f64,
    entries: &[(u64, u32)],
) -> std::io::Result<u64> {
    let mut body = String::new();
    body.push_str(MANIFEST_MAGIC);
    body.push('\n');
    body.push_str(&format!("step {step}\n"));
    body.push_str(&format!("time_bits {:016x}\n", time.to_bits()));
    body.push_str(&format!("ranks {}\n", entries.len()));
    for (rank, (len, crc)) in entries.iter().enumerate() {
        body.push_str(&format!("rank {rank} len {len} crc {crc:08x}\n"));
    }
    let body_crc = transport::crc32(body.as_bytes());
    body.push_str(&format!("body_crc {body_crc:08x}\n"));
    atomic_write(&dir.join(manifest_name(step)), body.as_bytes())?;
    Ok(body.len() as u64)
}

struct ManifestInfo {
    step: u64,
    time: f64,
    entries: Vec<(u64, u32)>,
}

/// Parse and self-validate a manifest (magic, field syntax, trailing
/// body CRC). Structural problems come back as `Err(reason)`.
fn parse_manifest(text: &str) -> Result<ManifestInfo, String> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let (head, last) = trimmed
        .rsplit_once('\n')
        .ok_or_else(|| "manifest too short".to_string())?;
    let declared = last
        .strip_prefix("body_crc ")
        .ok_or_else(|| "manifest missing body_crc".to_string())?;
    let declared =
        u32::from_str_radix(declared, 16).map_err(|_| "bad body_crc value".to_string())?;
    // The CRC covers everything up to and including the newline before
    // the body_crc line — exactly what `write_manifest` hashed.
    let hashed_len = head.len() + 1;
    let actual = transport::crc32(&text.as_bytes()[..hashed_len]);
    if actual != declared {
        return Err(format!(
            "manifest body CRC mismatch (declared {declared:08x}, actual {actual:08x})"
        ));
    }
    let mut lines = head.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err("bad manifest magic".to_string());
    }
    let field = |line: Option<&str>, key: &str| -> Result<String, String> {
        line.and_then(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .ok_or_else(|| format!("manifest missing '{key}'"))
    };
    let step: u64 = field(lines.next(), "step ")?
        .parse()
        .map_err(|_| "bad step".to_string())?;
    let time_bits = u64::from_str_radix(&field(lines.next(), "time_bits ")?, 16)
        .map_err(|_| "bad time_bits".to_string())?;
    let ranks: usize = field(lines.next(), "ranks ")?
        .parse()
        .map_err(|_| "bad ranks".to_string())?;
    let mut entries = Vec::with_capacity(ranks);
    for expect in 0..ranks {
        let line = lines
            .next()
            .ok_or_else(|| format!("manifest missing rank {expect} entry"))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 6 || parts[0] != "rank" || parts[2] != "len" || parts[4] != "crc" {
            return Err(format!("malformed rank entry '{line}'"));
        }
        let rank: usize = parts[1].parse().map_err(|_| "bad rank".to_string())?;
        if rank != expect {
            return Err(format!("rank entries out of order at {rank}"));
        }
        let len: u64 = parts[3].parse().map_err(|_| "bad len".to_string())?;
        let crc = u32::from_str_radix(parts[5], 16).map_err(|_| "bad crc".to_string())?;
        entries.push((len, crc));
    }
    Ok(ManifestInfo {
        step,
        time: f64::from_bits(time_bits),
        entries,
    })
}

/// Audit every generation in `dir` and return the newest valid one.
///
/// Unlike a stop-at-first-valid scan, this validates **all** retained
/// generations: every torn generation (rank files without a manifest),
/// manifest that fails its own CRC, missing/short/bit-rotted rank file,
/// unparseable dump, or rank-count mismatch against `ranks` is moved to
/// `dir/quarantine/gen_{step:06}/` and reported — so a later fallback
/// can never silently land on a corrupt generation either.
///
/// Pure file-system work: callers (the supervisor) emit the telemetry.
pub fn scan_for_restore(dir: &Path, ranks: usize) -> RecoveryScan {
    let mut scan = RecoveryScan::default();
    let Ok(read) = std::fs::read_dir(dir) else {
        return scan;
    };
    // Collect every step mentioned by either a manifest or a rank file.
    let mut steps: Vec<u64> = Vec::new();
    for entry in read.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let step = name
            .strip_prefix("MANIFEST_")
            .and_then(|s| s.parse().ok())
            .or_else(|| {
                name.strip_prefix("gen_")
                    .and_then(|s| s.split('_').next())
                    .and_then(|s| s.parse().ok())
            });
        if let Some(step) = step {
            if !steps.contains(&step) {
                steps.push(step);
            }
        }
    }
    steps.sort_unstable();
    steps.reverse(); // newest first

    for step in steps {
        match validate_generation(dir, step, ranks) {
            Ok(generation) => {
                if scan.restored.is_none() {
                    scan.restored = Some(generation);
                }
            }
            Err(GenerationProblem::Corrupt(reason)) => {
                quarantine_generation(dir, step, ranks);
                scan.quarantined
                    .push(QuarantinedGeneration { step, reason });
            }
            Err(GenerationProblem::Foreign(reason)) => {
                scan.foreign.push(QuarantinedGeneration { step, reason });
            }
        }
    }
    scan
}

/// Why a generation cannot be restored.
enum GenerationProblem {
    /// Torn or bit-rotted: quarantine it.
    Corrupt(String),
    /// Healthy, but written by a different world size: leave it alone.
    Foreign(String),
}

impl From<String> for GenerationProblem {
    fn from(reason: String) -> Self {
        Self::Corrupt(reason)
    }
}

/// Validate one generation end-to-end; on success return it fully parsed.
fn validate_generation(
    dir: &Path,
    step: u64,
    ranks: usize,
) -> Result<RestoredGeneration, GenerationProblem> {
    let corrupt = GenerationProblem::Corrupt;
    let manifest_path = dir.join(manifest_name(step));
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|_| corrupt("torn generation: rank files without a manifest".to_string()))?;
    let info = parse_manifest(&text).map_err(corrupt)?;
    if info.step != step {
        return Err(corrupt(format!(
            "manifest step {} does not match file name step {step}",
            info.step
        )));
    }
    if info.entries.len() != ranks {
        // The manifest passed its own CRC, so this generation is healthy —
        // it just belongs to a run with a different world size.
        return Err(GenerationProblem::Foreign(format!(
            "manifest covers {} ranks, world has {ranks}",
            info.entries.len()
        )));
    }
    let mut dumps = Vec::with_capacity(ranks);
    for (rank, (len, crc)) in info.entries.iter().enumerate() {
        let path = dir.join(rank_file_name(step, rank));
        let bytes = std::fs::read(&path).map_err(|_| format!("rank {rank} file missing"))?;
        if bytes.len() as u64 != *len {
            return Err(format!(
                "rank {rank} file is {} B, manifest says {len} B",
                bytes.len()
            )
            .into());
        }
        let actual = transport::crc32(&bytes);
        if actual != *crc {
            return Err(format!(
                "rank {rank} CRC mismatch (manifest {crc:08x}, disk {actual:08x})"
            )
            .into());
        }
        let dump = read_fld(&bytes).map_err(|e| format!("rank {rank} dump unparseable: {e}"))?;
        if dump.step != step {
            return Err(format!(
                "rank {rank} dump is step {}, manifest says {step}",
                dump.step
            )
            .into());
        }
        dumps.push(dump);
    }
    Ok(RestoredGeneration {
        step,
        time: info.time,
        dumps,
    })
}

/// Move a failed generation's files under `dir/quarantine/gen_{step:06}/`
/// so no later scan can restore from it. Best-effort: an unmovable file
/// is left behind, but the scan already refused to restore it.
pub(crate) fn quarantine_generation(dir: &Path, step: u64, ranks: usize) {
    let qdir = dir.join("quarantine").join(format!("gen_{step:06}"));
    let _ = std::fs::create_dir_all(&qdir);
    let mut names: Vec<String> = (0..ranks).map(|r| rank_file_name(step, r)).collect();
    names.push(manifest_name(step));
    for name in names {
        let from = dir.join(&name);
        if from.exists() {
            let _ = std::fs::rename(&from, qdir.join(&name));
        }
    }
}

/// Rank-0 retention: delete complete generations beyond the newest
/// `retain`, manifest first so an interrupted GC leaves a torn (and
/// therefore quarantinable) remainder rather than a fake-complete one.
fn gc_generations(dir: &Path, retain: usize, comm: &mut Comm) {
    let Ok(read) = std::fs::read_dir(dir) else {
        return;
    };
    let mut steps: Vec<u64> = read
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_string_lossy()
                .strip_prefix("MANIFEST_")
                .and_then(|s| s.parse().ok())
        })
        .collect();
    steps.sort_unstable();
    if steps.len() <= retain.max(1) {
        return;
    }
    let doomed = steps.len() - retain.max(1);
    for &step in &steps[..doomed] {
        let _ = std::fs::remove_file(dir.join(manifest_name(step)));
        for rank in 0..comm.size() {
            let _ = std::fs::remove_file(dir.join(rank_file_name(step, rank)));
        }
        comm.telemetry()
            .counter("checkpoint/generations_gced")
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_ranks, CheckpointCorruption, MachineModel};
    use sem::snapshot::{SnapshotField, SnapshotPool};
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ckpt_{tag}_{}", std::process::id()))
    }

    /// A synthetic per-rank snapshot: rank-distinct velocity + pressure.
    fn snapshot(step: u64, rank: usize) -> FieldSnapshot {
        let n = 6usize;
        let pool = SnapshotPool::new(memtrack::Accountant::new("t"));
        let base = (rank as f64 + 1.0) * 100.0 + step as f64;
        let velocity: Vec<f64> = (0..3 * n).map(|i| base + i as f64).collect();
        let pressure: Vec<f64> = (0..n).map(|i| base - i as f64).collect();
        let fields = vec![
            SnapshotField::new("velocity", 3, velocity),
            SnapshotField::new("pressure", 1, pressure),
        ];
        FieldSnapshot::new(step as usize, step as f64 * 0.25, n, fields, &pool)
    }

    fn write_gens(dir: &Path, steps: &[u64], ranks: usize, faults: FaultPlan) {
        let dir = dir.to_path_buf();
        let steps = steps.to_vec();
        let faults = Arc::new(faults);
        run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            let mut store = CheckpointStore::new(CheckpointSpec::new(dir.clone(), 2));
            for &s in &steps {
                let snap = snapshot(s, comm.rank());
                store.write_generation(comm, &snap, &faults);
            }
            assert_eq!(store.generations_written(), steps.len() as u64);
        });
    }

    #[test]
    fn roundtrip_restores_newest_generation() {
        let dir = tmp("roundtrip");
        write_gens(&dir, &[2, 4], 2, FaultPlan::none());
        let scan = scan_for_restore(&dir, 2);
        assert!(scan.quarantined.is_empty(), "{:?}", scan.quarantined);
        let gen = scan.restored.expect("newest generation valid");
        assert_eq!(gen.step, 4);
        assert_eq!(gen.time, 1.0);
        assert_eq!(gen.dumps.len(), 2);
        // Per-rank payloads really are rank-distinct and step-stamped.
        for (rank, dump) in gen.dumps.iter().enumerate() {
            assert_eq!(dump.step, 4);
            let base = (rank as f64 + 1.0) * 100.0 + 4.0;
            assert_eq!(dump.field("velx").unwrap()[0], base);
            assert_eq!(dump.field("pressure").unwrap()[0], base);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_generation_is_quarantined_and_older_one_restores() {
        let dir = tmp("torn");
        write_gens(&dir, &[2, 4], 2, FaultPlan::none());
        // Simulate a crash between the rank files and the manifest.
        std::fs::remove_file(dir.join(manifest_name(4))).unwrap();
        let scan = scan_for_restore(&dir, 2);
        assert_eq!(scan.quarantined.len(), 1);
        assert_eq!(scan.quarantined[0].step, 4);
        assert!(scan.quarantined[0].reason.contains("torn"));
        assert_eq!(scan.restored.expect("older gen still valid").step, 2);
        // The torn files moved under quarantine/ and are gone from the top level.
        assert!(!dir.join(rank_file_name(4, 0)).exists());
        assert!(dir
            .join("quarantine/gen_000004")
            .join(rank_file_name(4, 0))
            .exists());
        // A second scan no longer sees the quarantined generation at all.
        let again = scan_for_restore(&dir, 2);
        assert!(again.quarantined.is_empty());
        assert_eq!(again.restored.unwrap().step, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduled_disk_corruption_fails_crc_and_quarantines() {
        let dir = tmp("bitrot");
        let faults = FaultPlan {
            disk_corruptions: vec![CheckpointCorruption {
                rank: 1,
                at_step: 4,
            }],
            ..FaultPlan::none()
        };
        write_gens(&dir, &[2, 4], 2, faults);
        let scan = scan_for_restore(&dir, 2);
        assert_eq!(scan.quarantined.len(), 1);
        assert_eq!(scan.quarantined[0].step, 4);
        assert!(
            scan.quarantined[0].reason.contains("CRC mismatch"),
            "reason: {}",
            scan.quarantined[0].reason
        );
        assert_eq!(scan.restored.expect("fall back").step, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_manifest_body_is_rejected() {
        let dir = tmp("tamper");
        write_gens(&dir, &[2], 1, FaultPlan::none());
        let path = dir.join(manifest_name(2));
        let text = std::fs::read_to_string(&path).unwrap();
        // Inflate rank 0's declared length without fixing the body CRC.
        let tampered = text.replace("len ", "len 9");
        std::fs::write(&path, tampered).unwrap();
        let scan = scan_for_restore(&dir, 1);
        assert_eq!(scan.quarantined.len(), 1);
        assert!(scan.quarantined[0].reason.contains("body CRC"));
        assert!(scan.restored.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_rank_count_is_foreign_not_quarantined() {
        let dir = tmp("ranks");
        write_gens(&dir, &[2], 2, FaultPlan::none());
        let scan = scan_for_restore(&dir, 4);
        assert!(scan.restored.is_none());
        assert!(scan.quarantined.is_empty(), "healthy files stay put");
        assert_eq!(scan.foreign.len(), 1);
        assert!(scan.foreign[0].reason.contains("ranks"));
        // The generation is untouched on disk: a scan by the right world
        // size still restores it.
        let rescan = scan_for_restore(&dir, 2);
        assert_eq!(rescan.restored.expect("still restorable").step, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_keeps_only_the_newest_retained_generations() {
        let dir = tmp("gc");
        let dir2 = dir.clone();
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            let mut spec = CheckpointSpec::new(dir2.clone(), 2);
            spec.retain = 2;
            let mut store = CheckpointStore::new(spec);
            for s in [2u64, 4, 6, 8] {
                let snap = snapshot(s, comm.rank());
                store.write_generation(comm, &snap, &FaultPlan::none());
            }
        });
        let mut manifests: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("MANIFEST_"))
            .collect();
        manifests.sort();
        assert_eq!(manifests, vec![manifest_name(6), manifest_name(8)]);
        assert!(
            !dir.join(rank_file_name(2, 0)).exists(),
            "old gen files gone"
        );
        assert_eq!(scan_for_restore(&dir, 2).restored.unwrap().step, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_scans_clean() {
        let scan = scan_for_restore(Path::new("/nonexistent/ckpt_dir"), 2);
        assert!(scan.restored.is_none());
        assert!(scan.quarantined.is_empty());
    }
}
