//! NekRS-style built-in checkpointing: full-resolution raw field dumps.
//!
//! The paper's §4.1 "Checkpointing" configuration is NekRS's own
//! checkpoint writer ("periodically storing raw simulation data onto
//! disk"), *not* a SENSEI analysis. Each trigger, every rank stages its
//! fields from the device and writes them verbatim — which is why the
//! paper measures ~19 GB of checkpoints against 6.5 MB of rendered images.

use commsim::Comm;
use memtrack::Accountant;
use sem::snapshot::FieldSnapshot;

/// Magic prefix of a dump file.
const FLD_MAGIC: &[u8; 8] = b"NEKFLD01";

/// Width of a field-name tag in the dump format.
const TAG_LEN: usize = 12;

/// An encoded NEKFLD01 dump plus what the encoder had to compromise on.
pub struct EncodedFld {
    /// The serialized dump.
    pub bytes: Vec<u8>,
    /// Field names longer than the 12-byte tag, truncated on write.
    pub truncated_tags: Vec<String>,
}

/// Serialize a published snapshot in the NEKFLD01 format (the snapshot's
/// interleaved velocity is de-interleaved back into `velx`/`vely`/`velz`
/// components). Field names longer than the 12-byte tag are truncated at
/// a character boundary and reported in
/// [`EncodedFld::truncated_tags`] instead of panicking.
pub fn encode_fld(snap: &FieldSnapshot) -> EncodedFld {
    let n = snap.n_nodes as u64;
    let velocity = snap.field("velocity");
    let mut n_fields = 0u32;
    if velocity.is_some() {
        n_fields += 3;
    }
    let scalars: Vec<(&str, &[f64])> = snap
        .fields()
        .iter()
        .filter(|f| f.name != "velocity")
        .map(|f| (f.name, f.values()))
        .collect();
    n_fields += scalars.len() as u32;

    let mut truncated_tags = Vec::new();
    let mut buf = Vec::with_capacity((u64::from(n_fields) * n * 8 + 64) as usize);
    buf.extend_from_slice(FLD_MAGIC);
    buf.extend_from_slice(&(snap.version as u64).to_le_bytes());
    buf.extend_from_slice(&snap.time.to_le_bytes());
    buf.extend_from_slice(&n.to_le_bytes());
    buf.extend_from_slice(&n_fields.to_le_bytes());
    let mut push_field = |buf: &mut Vec<u8>, name: &str, values: &mut dyn Iterator<Item = f64>| {
        let mut take = name.len().min(TAG_LEN);
        while !name.is_char_boundary(take) {
            take -= 1;
        }
        if take < name.len() {
            truncated_tags.push(name.to_string());
        }
        let mut tag = [0u8; TAG_LEN];
        tag[..take].copy_from_slice(&name.as_bytes()[..take]);
        buf.extend_from_slice(&tag);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    };
    if let Some(vel) = velocity {
        let v = vel.values();
        for (c, name) in ["velx", "vely", "velz"].iter().enumerate() {
            push_field(&mut buf, name, &mut (0..n as usize).map(|i| v[3 * i + c]));
        }
    }
    for (name, values) in &scalars {
        push_field(&mut buf, name, &mut values.iter().copied());
    }
    EncodedFld {
        bytes: buf,
        truncated_tags,
    }
}

/// [`encode_fld`], counting each truncated field tag on
/// `checkpoint/tag_truncated` and warning about it on the event bus.
fn encode_reporting_truncation(comm: &mut Comm, snap: &FieldSnapshot) -> Vec<u8> {
    let encoded = encode_fld(snap);
    for name in &encoded.truncated_tags {
        comm.telemetry().counter("checkpoint/tag_truncated").inc();
        comm.telemetry_event(
            telemetry::EventKind::CheckpointWrite,
            Some(snap.version as u64),
            format!("warning: field tag '{name}' truncated to {TAG_LEN} bytes"),
        );
    }
    encoded.bytes
}

/// Raw field-dump checkpointer for one rank.
pub struct FldCheckpointer {
    output_dir: Option<std::path::PathBuf>,
    buffer_accountant: Accountant,
    files_written: u64,
    bytes_written: u64,
}

impl FldCheckpointer {
    /// Dumps go under `output_dir` when given; otherwise only the cost
    /// model and counters are exercised (the harness default).
    pub fn new(comm: &Comm, output_dir: Option<std::path::PathBuf>) -> Self {
        Self {
            output_dir,
            buffer_accountant: comm.accountant("chk-buffer"),
            files_written: 0,
            bytes_written: 0,
        }
    }

    /// Write one checkpoint from a published snapshot (NEKFLD01 format,
    /// unchanged: the snapshot's interleaved velocity is de-interleaved
    /// back into `velx`/`vely`/`velz` components). The D2H staging was
    /// already paid once at publish time. Returns bytes written by this
    /// rank.
    pub fn write(&mut self, comm: &mut Comm, snap: &FieldSnapshot) -> u64 {
        let buf = encode_reporting_truncation(comm, snap);
        let nbytes = buf.len() as u64;
        // The serialization buffer is resident while the write drains.
        let charge = self.buffer_accountant.charge(nbytes);
        comm.compute_host(nbytes as f64, nbytes as f64 * 2.0);
        comm.fs_write(nbytes, comm.size());
        drop(charge);
        self.files_written += 1;
        self.bytes_written += nbytes;
        comm.telemetry()
            .counter("checkpoint/bytes_written")
            .add(nbytes);
        comm.telemetry_event(
            telemetry::EventKind::CheckpointWrite,
            Some(snap.version as u64),
            format!("{nbytes} B fld"),
        );
        if let Some(dir) = &self.output_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let name = format!("fld_{:06}_r{}.bin", snap.version, comm.rank());
                let _ = std::fs::write(dir.join(name), &buf);
            }
        }
        nbytes
    }

    /// Checkpoints written by this rank.
    pub fn files_written(&self) -> u64 {
        self.files_written
    }

    /// Bytes written by this rank.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// A parsed field dump (the read side of [`FldCheckpointer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FldDump {
    /// Timestep index at dump time.
    pub step: u64,
    /// Simulation time at dump time.
    pub time: f64,
    /// Local node count.
    pub n_nodes: u64,
    /// (name, values) in dump order.
    pub fields: Vec<(String, Vec<f64>)>,
}

impl FldDump {
    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&[f64]> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Parse a dump produced by [`FldCheckpointer::write`].
///
/// # Errors
/// Returns a description of the first structural problem.
pub fn read_fld(bytes: &[u8]) -> Result<FldDump, String> {
    let need = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("truncated: {what}"))
        }
    };
    need(bytes.len() >= 8 + 8 + 8 + 8 + 4, "header")?;
    if &bytes[0..8] != FLD_MAGIC {
        return Err("bad magic".to_string());
    }
    let step = u64::from_le_bytes(bytes[8..16].try_into().expect("checked"));
    let time = f64::from_le_bytes(bytes[16..24].try_into().expect("checked"));
    let n = u64::from_le_bytes(bytes[24..32].try_into().expect("checked"));
    let n_fields = u32::from_le_bytes(bytes[32..36].try_into().expect("checked"));
    // Validate the declared sizes against what is actually present BEFORE
    // allocating anything: a corrupted header must not drive a huge (or
    // overflowing) `Vec::with_capacity`.
    let field_bytes = (n as usize)
        .checked_mul(8)
        .and_then(|b| b.checked_add(TAG_LEN))
        .ok_or_else(|| "field size overflows".to_string())?;
    let body_bytes = field_bytes
        .checked_mul(n_fields as usize)
        .and_then(|b| b.checked_add(36))
        .ok_or_else(|| "body size overflows".to_string())?;
    need(bytes.len() >= body_bytes, "declared fields")?;
    let mut pos = 36usize;
    let mut fields = Vec::with_capacity(n_fields as usize);
    for _ in 0..n_fields {
        need(bytes.len() >= pos + TAG_LEN + n as usize * 8, "field block")?;
        let tag = &bytes[pos..pos + TAG_LEN];
        let name = std::str::from_utf8(tag)
            .map_err(|_| "non-utf8 field tag".to_string())?
            .trim_end_matches('\0')
            .to_string();
        pos += TAG_LEN;
        let mut values = Vec::with_capacity(n as usize);
        for _ in 0..n {
            values.push(f64::from_le_bytes(
                bytes[pos..pos + 8].try_into().expect("checked"),
            ));
            pos += 8;
        }
        fields.push((name, values));
    }
    Ok(FldDump {
        step,
        time,
        n_nodes: n,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_ranks, MachineModel};
    use sem::cases::{pb146, CaseParams};
    use sem::navier_stokes::FlowSolver;
    use sem::snapshot::{SnapshotPool, SnapshotSpec};
    use std::sync::Arc;

    /// Publish the checkpoint fields (velocity + pressure + temperature if
    /// present) — the staging step that used to live inside `write`.
    fn checkpoint_snapshot(comm: &mut Comm, solver: &mut FlowSolver) -> Arc<FieldSnapshot> {
        let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
        let spec = SnapshotSpec {
            pressure: true,
            velocity: true,
            temperature: true,
            ..Default::default()
        };
        solver.publish_snapshot(comm, &spec, &pool)
    }

    #[test]
    fn dump_size_matches_field_count() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut params = CaseParams::pb146_default();
            params.elems = [2, 2, 4];
            params.order = 2;
            let mut solver = pb146(&params, 4).build(comm);
            let mut chk = FldCheckpointer::new(comm, None);
            let before_d2h = comm.stats().bytes_d2h;
            let snap = checkpoint_snapshot(comm, &mut solver);
            let staged = comm.stats().bytes_d2h - before_d2h;
            let nbytes = chk.write(comm, &snap);
            let n = solver.n_nodes() as u64;
            (
                nbytes,
                staged,
                n,
                chk.files_written(),
                comm.stats().files_written,
            )
        });
        for (nbytes, staged, n, files, fs_files) in res {
            // 4 fields (u,v,w,p) × n × 8 B + header + tags.
            assert_eq!(staged, 4 * n * 8);
            assert!(nbytes > 4 * n * 8 && nbytes < 4 * n * 8 + 200);
            assert_eq!(files, 1);
            assert_eq!(fs_files, 1);
        }
    }

    #[test]
    fn checkpoint_is_orders_of_magnitude_larger_than_an_image() {
        // The storage-economy premise at reduced scale: a raw dump of even
        // a small case beats a small PNG by a wide margin per trigger.
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut params = CaseParams::pb146_default();
            params.elems = [4, 4, 6];
            params.order = 3;
            let mut solver = pb146(&params, 20).build(comm);
            let mut chk = FldCheckpointer::new(comm, None);
            let snap = checkpoint_snapshot(comm, &mut solver);
            chk.write(comm, &snap)
        });
        // ~76 fluid elements × 64 nodes × 4 fields × 8 B ≈ 150 KB per
        // trigger — already ~15× a typical rendered PNG at this scale, and
        // the gap widens linearly with resolution.
        assert!(res[0] > 100_000, "dump only {} bytes", res[0]);
    }

    #[test]
    fn dump_read_back_matches_the_solver_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("fld_readback_{}", std::process::id()));
        let dir2 = dir.clone();
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            use sem::navier_stokes::FieldId;
            let mut params = CaseParams::pb146_default();
            params.elems = [2, 2, 4];
            params.order = 2;
            let mut solver = pb146(&params, 4).build(comm);
            for _ in 0..3 {
                solver.step(comm);
            }
            let mut chk = FldCheckpointer::new(comm, Some(dir2.clone()));
            let snap = checkpoint_snapshot(comm, &mut solver);
            chk.write(comm, &snap);
            comm.barrier();
            let path = dir2.join(format!(
                "fld_{:06}_r{}.bin",
                solver.step_index(),
                comm.rank()
            ));
            let dump = read_fld(&std::fs::read(&path).expect("dump exists")).expect("parse");
            assert_eq!(dump.step, 3);
            assert_eq!(dump.time.to_bits(), solver.time().to_bits());
            assert_eq!(dump.n_nodes as usize, solver.n_nodes());
            let names: Vec<&str> = dump.fields.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["velx", "vely", "velz", "pressure"]);
            for (name, values) in &dump.fields {
                let id = match name.as_str() {
                    "velx" => FieldId::VelX,
                    "vely" => FieldId::VelY,
                    "velz" => FieldId::VelZ,
                    "pressure" => FieldId::Pressure,
                    other => panic!("unexpected field {other}"),
                };
                let device = solver.field_device(id).expect("field enabled");
                assert_eq!(dump.field(name), Some(values.as_slice()));
                assert!(
                    values
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(device.iter().map(|v| v.to_bits())),
                    "{name} differs from the solver's field"
                );
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_fld_rejects_garbage_and_truncation() {
        assert!(read_fld(b"nonsense").is_err());
        assert!(read_fld(&[]).is_err());
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut params = CaseParams::pb146_default();
            params.elems = [2, 2, 2];
            params.order = 1;
            let mut solver = pb146(&params, 2).build(comm);
            let dir = std::env::temp_dir().join(format!("fld_trunc_{}", std::process::id()));
            let mut chk = FldCheckpointer::new(comm, Some(dir.clone()));
            let snap = checkpoint_snapshot(comm, &mut solver);
            chk.write(comm, &snap);
            let path = dir.join("fld_000000_r0.bin");
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        });
        let bytes = res[0].clone();
        assert!(read_fld(&bytes).is_ok());
        for cut in [10, 40, bytes.len() - 4] {
            assert!(read_fld(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut corrupted = bytes.clone();
        corrupted[0] ^= 0xFF;
        assert!(read_fld(&corrupted).is_err());
    }

    #[test]
    fn long_field_names_truncate_instead_of_panicking() {
        use sem::snapshot::SnapshotField;
        let pool = SnapshotPool::new(memtrack::Accountant::new("t"));
        let fields = vec![
            SnapshotField::new("a_very_long_field_name", 1, vec![1.0, 2.0]),
            SnapshotField::new("pressure", 1, vec![3.0, 4.0]),
        ];
        let snap = FieldSnapshot::new(7, 0.5, 2, fields, &pool);
        let encoded = encode_fld(&snap);
        assert_eq!(encoded.truncated_tags, vec!["a_very_long_field_name"]);
        let dump = read_fld(&encoded.bytes).expect("parse");
        assert_eq!(dump.step, 7);
        assert_eq!(dump.fields[0].0, "a_very_long_", "12-byte tag prefix");
        assert_eq!(dump.field("pressure"), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn read_fld_rejects_oversized_declared_header_without_allocating() {
        // A header claiming u32::MAX fields over u64::MAX nodes must fail
        // fast instead of attempting a giant allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FLD_MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes()); // step
        bytes.extend_from_slice(&0f64.to_le_bytes()); // time
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // n_nodes
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // n_fields
        assert!(read_fld(&bytes).is_err());
        // Same with values that multiply past usize but look plausible.
        bytes.truncate(24);
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        assert!(read_fld(&bytes).is_err());
    }

    #[test]
    fn real_dump_file_is_written_with_magic() {
        let dir = std::env::temp_dir().join(format!("fld_test_{}", std::process::id()));
        let dir2 = dir.clone();
        run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut params = CaseParams::pb146_default();
            params.elems = [2, 2, 2];
            params.order = 1;
            let mut solver = pb146(&params, 2).build(comm);
            let mut chk = FldCheckpointer::new(comm, Some(dir2.clone()));
            let snap = checkpoint_snapshot(comm, &mut solver);
            chk.write(comm, &snap);
        });
        let bytes = std::fs::read(dir.join("fld_000000_r0.bin")).unwrap();
        assert_eq!(&bytes[0..8], FLD_MAGIC);
        std::fs::remove_dir_all(&dir).ok();
    }
}
