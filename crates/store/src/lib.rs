//! # rd-store — durable storage for the query service
//!
//! The engine serves immutable per-epoch snapshots; this crate is what
//! makes those epochs *durable*. A data directory holds exactly two
//! kinds of files:
//!
//! * **`snapshot-<seq>.fix`** — a point-in-time copy of the whole
//!   database in the workspace's fixture text format
//!   ([`rd_engine::render_fixture`]), written to a temp file, fsync'd,
//!   and atomically renamed into place. A reader never observes a
//!   half-written snapshot.
//! * **`wal-<seq>.log`** — the append-only write-ahead log of every
//!   mutation applied *after* snapshot `seq`. Each record is framed as
//!   `[u32 payload length][u64 FNV-1a checksum][payload]`; appends are
//!   flushed and fsync'd before the caller acknowledges the mutation.
//!
//! [`Store::open`] recovers by loading the newest snapshot and replaying
//! the matching WAL tail. A torn final record — short header, short
//! payload, checksum mismatch, or undecodable payload — is *truncated*,
//! not treated as an error: a crash mid-append loses only the mutation
//! that was never acknowledged, never a prefix record and never the
//! whole log. [`Store::checkpoint`] folds the WAL into a fresh snapshot
//! and rotates to an empty log whose first record is a
//! [`WalRecord::Checkpoint`] marker; superseded files are then retired.
//!
//! Values in WAL records use the edge (`Int`/`Str`) representation, so
//! the log is self-contained: symbol-table ids never reach disk.

use rd_core::trace::Histogram;
use rd_core::{CoreError, CoreResult, Database, TableSchema, Tuple, Value};
use rd_engine::{parse_fixture, render_fixture};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bytes of a frame header: `u32` payload length + `u64` checksum.
const FRAME_HEADER: usize = 12;

/// One durable mutation record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Rows inserted into a table (edge representation, batched).
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows.
        rows: Vec<Tuple>,
    },
    /// Rows deleted from a table.
    Delete {
        /// Target table.
        table: String,
        /// The deleted rows.
        rows: Vec<Tuple>,
    },
    /// A new (empty) table.
    CreateTable {
        /// The created table's schema.
        schema: TableSchema,
    },
    /// Marker written as the first record of a rotated WAL, tying the
    /// log to the snapshot it extends. No database effect on replay.
    Checkpoint {
        /// The snapshot sequence number this log extends.
        seq: u64,
    },
}

impl WalRecord {
    /// Encodes the record payload (no frame). Errors if a value is in
    /// the interned (`Sym`) representation — the WAL must stay
    /// self-contained, so callers resolve values at the edge first.
    pub fn encode(&self) -> CoreResult<Vec<u8>> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Insert { table, rows } => {
                buf.push(1);
                put_str(&mut buf, table);
                put_rows(&mut buf, rows)?;
            }
            WalRecord::Delete { table, rows } => {
                buf.push(2);
                put_str(&mut buf, table);
                put_rows(&mut buf, rows)?;
            }
            WalRecord::CreateTable { schema } => {
                buf.push(3);
                put_str(&mut buf, schema.name());
                put_u32(&mut buf, schema.attrs().len() as u32);
                for attr in schema.attrs() {
                    put_str(&mut buf, attr);
                }
            }
            WalRecord::Checkpoint { seq } => {
                buf.push(4);
                put_u64(&mut buf, *seq);
            }
        }
        Ok(buf)
    }

    /// Encodes the record as a complete checksummed frame, ready to
    /// append to a WAL.
    pub fn encode_frame(&self) -> CoreResult<Vec<u8>> {
        let payload = self.encode()?;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        Ok(frame)
    }

    /// Decodes one record from a full payload; `None` on any malformed
    /// byte (recovery treats that as a torn tail).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            1 => WalRecord::Insert {
                table: r.string()?,
                rows: r.rows()?,
            },
            2 => WalRecord::Delete {
                table: r.string()?,
                rows: r.rows()?,
            },
            3 => {
                let name = r.string()?;
                let n = r.u32()? as usize;
                if n > payload.len() {
                    return None;
                }
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(r.string()?);
                }
                WalRecord::CreateTable {
                    schema: TableSchema::new(name, attrs),
                }
            }
            4 => WalRecord::Checkpoint { seq: r.u64()? },
            _ => return None,
        };
        // The whole payload must be consumed: trailing bytes mean the
        // length field and the content disagree.
        (r.pos == payload.len()).then_some(rec)
    }
}

/// Applies one record to a database (Checkpoint markers are no-ops).
/// Returns how many rows actually changed.
pub fn apply_record(db: &mut Database, rec: &WalRecord) -> CoreResult<usize> {
    match rec {
        WalRecord::Insert { table, rows } => db.insert_rows(table, rows),
        WalRecord::Delete { table, rows } => db.delete_rows(table, rows),
        WalRecord::CreateTable { schema } => {
            db.create_table(schema.clone())?;
            Ok(0)
        }
        WalRecord::Checkpoint { .. } => Ok(0),
    }
}

/// Decodes a WAL byte stream into its complete records plus the byte
/// length of the valid prefix. Decoding stops at the first torn or
/// corrupt frame; everything after it is garbage by definition (the
/// log is append-only, so nothing valid can follow a bad frame).
pub fn decode_stream(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
        let Some(end) = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len))
        else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let payload = &buf[pos + FRAME_HEADER..end];
        if fnv1a64(payload) != sum {
            break;
        }
        let Some(rec) = WalRecord::decode(payload) else {
            break;
        };
        records.push(rec);
        pos = end;
    }
    (records, pos)
}

/// The durable-storage front door: owns the data directory, the open
/// WAL handle, and the checkpoint sequence.
pub struct Store {
    dir: PathBuf,
    seq: u64,
    wal: File,
    wal_records: u64,
    /// WAL append (buffered write) latency, microseconds per record.
    wal_append: Histogram,
    /// WAL fsync latency, microseconds per record.
    wal_fsync: Histogram,
}

impl Store {
    /// Opens (or creates) a data directory and recovers its database:
    /// newest snapshot + WAL tail replay, truncating a torn final
    /// record. A fresh directory recovers to an empty database.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Database, Store)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut seq = 0u64;
        let mut db = Database::new();
        let mut snapshots = list_seqs(&dir, "snapshot-", ".fix")?;
        snapshots.sort_unstable_by(|a, b| b.cmp(a));
        for n in snapshots {
            let text = fs::read_to_string(dir.join(snapshot_name(n)))?;
            match parse_fixture(&text) {
                Ok(loaded) => {
                    db = loaded;
                    seq = n;
                    break;
                }
                // Snapshots are written atomically, so an unparsable one
                // is outside interference; fall back to the next-newest.
                Err(_) => continue,
            }
        }
        let wal_path = dir.join(wal_name(seq));
        let mut wal_records = 0u64;
        if wal_path.exists() {
            let buf = fs::read(&wal_path)?;
            let (records, valid_len) = decode_stream(&buf);
            if valid_len < buf.len() {
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(valid_len as u64)?;
                f.sync_data()?;
            }
            for rec in &records {
                apply_record(&mut db, rec).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("WAL record does not apply: {e}"),
                    )
                })?;
                if !matches!(rec, WalRecord::Checkpoint { .. }) {
                    wal_records += 1;
                }
            }
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok((
            db,
            Store {
                dir,
                seq,
                wal,
                wal_records,
                wal_append: Histogram::new(),
                wal_fsync: Histogram::new(),
            },
        ))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current checkpoint sequence (0 before the first checkpoint).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Mutation records in the current WAL (the replay cost of the next
    /// recovery — the input to a checkpoint policy).
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// `true` if nothing was ever written here: a brand-new directory a
    /// caller may want to seed with an initial database.
    pub fn is_fresh(&self) -> bool {
        self.seq == 0 && self.wal_records == 0
    }

    /// Appends one mutation record to the WAL, flushed and fsync'd
    /// before returning — the caller may acknowledge the mutation once
    /// this returns `Ok`.
    pub fn log(&mut self, rec: &WalRecord) -> io::Result<()> {
        let frame = rec
            .encode_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let start = Instant::now();
        self.wal.write_all(&frame)?;
        self.wal_append
            .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        let start = Instant::now();
        self.wal.sync_data()?;
        self.wal_fsync
            .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        self.wal_records += 1;
        Ok(())
    }

    /// WAL append (buffered write) latency histogram.
    pub fn wal_append_histogram(&self) -> &Histogram {
        &self.wal_append
    }

    /// WAL fsync latency histogram (one entry per synced record).
    pub fn wal_fsync_histogram(&self) -> &Histogram {
        &self.wal_fsync
    }

    /// Writes a point-in-time snapshot of `db` (fsync, then atomic
    /// rename), rotates to a fresh WAL opened with a checkpoint marker,
    /// and retires the superseded snapshot and log. Returns the new
    /// sequence number.
    pub fn checkpoint(&mut self, db: &Database) -> io::Result<u64> {
        let next = self.seq + 1;
        let tmp = self.dir.join(format!("snapshot-{next:020}.fix.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(render_fixture(db).as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(snapshot_name(next)))?;
        let mut new_wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join(wal_name(next)))?;
        let marker = WalRecord::Checkpoint { seq: next }
            .encode_frame()
            .expect("checkpoint markers carry no values");
        new_wal.write_all(&marker)?;
        new_wal.sync_data()?;
        sync_dir(&self.dir)?;
        let old_seq = self.seq;
        self.wal = new_wal;
        self.seq = next;
        self.wal_records = 0;
        // Retirement is best-effort: recovery always prefers the newest
        // snapshot, so a leftover older pair is only wasted space.
        let _ = fs::remove_file(self.dir.join(wal_name(old_seq)));
        if old_seq > 0 {
            let _ = fs::remove_file(self.dir.join(snapshot_name(old_seq)));
        }
        Ok(next)
    }
}

fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.fix")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:020}.log")
}

/// Sequence numbers of directory entries shaped `<prefix><seq><suffix>`.
fn list_seqs(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(middle) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        {
            if let Ok(n) = middle.parse::<u64>() {
                seqs.push(n);
            }
        }
    }
    Ok(seqs)
}

/// Fsyncs a directory so a rename/create inside it is durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) -> CoreResult<()> {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        Value::Sym(_) => {
            return Err(CoreError::Invalid(
                "interned symbol in WAL record; resolve values at the edge first".into(),
            ))
        }
    }
    Ok(())
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Tuple]) -> CoreResult<()> {
    put_u32(buf, rows.len() as u32);
    for row in rows {
        put_u32(buf, row.arity() as u32);
        for v in row.iter() {
            put_value(buf, v)?;
        }
    }
    Ok(())
}

/// A bounds-checked payload reader; every accessor answers `None` past
/// the end, which recovery maps to "torn record".
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            1 => Some(Value::Str(self.string()?)),
            _ => None,
        }
    }

    fn rows(&mut self) -> Option<Vec<Tuple>> {
        let n = self.u32()? as usize;
        // A length claiming more rows than there are bytes is corrupt;
        // reject before reserving.
        if n > self.buf.len() {
            return None;
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let arity = self.u32()? as usize;
            if arity > self.buf.len() {
                return None;
            }
            let mut vals = Vec::with_capacity(arity);
            for _ in 0..arity {
                vals.push(self.value()?);
            }
            rows.push(Tuple(vals));
        }
        Some(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::Relation;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rd-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                schema: TableSchema::new("Boat", ["bid", "color"]),
            },
            WalRecord::Insert {
                table: "Boat".into(),
                rows: vec![
                    Tuple::new(vec![Value::int(101), Value::str("red")]),
                    Tuple::new(vec![Value::int(102), Value::str("green")]),
                ],
            },
            WalRecord::Delete {
                table: "Boat".into(),
                rows: vec![Tuple::new(vec![Value::int(101), Value::str("red")])],
            },
            WalRecord::Checkpoint { seq: 7 },
        ]
    }

    #[test]
    fn records_roundtrip_through_frames() {
        for rec in sample_records() {
            let frame = rec.encode_frame().unwrap();
            let (decoded, len) = decode_stream(&frame);
            assert_eq!(len, frame.len());
            assert_eq!(decoded, vec![rec]);
        }
    }

    #[test]
    fn interned_values_are_rejected_at_encode() {
        let rec = WalRecord::Insert {
            table: "T".into(),
            rows: vec![Tuple(vec![Value::Sym(3)])],
        };
        assert!(rec.encode().is_err());
    }

    #[test]
    fn decode_stream_stops_at_first_bad_frame() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for rec in &recs {
            buf.extend_from_slice(&rec.encode_frame().unwrap());
        }
        let good_len = buf.len();
        // Append a frame whose checksum lies.
        let mut bad = recs[1].encode_frame().unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        buf.extend_from_slice(&bad);
        let (decoded, len) = decode_stream(&buf);
        assert_eq!(decoded, recs);
        assert_eq!(len, good_len);
    }

    #[test]
    fn open_checkpoint_reopen_roundtrips() {
        let dir = tmpdir("roundtrip");
        let (mut db, mut store) = Store::open(&dir).unwrap();
        assert!(store.is_fresh());
        assert!(db.is_empty());
        for rec in &sample_records()[..3] {
            apply_record(&mut db, rec).unwrap();
            store.log(rec).unwrap();
        }
        assert_eq!(store.wal_records(), 3);
        // Recovery from WAL alone.
        let (recovered, _) = Store::open(&dir).unwrap();
        assert_eq!(recovered, db);
        // Checkpoint folds the log into a snapshot and rotates.
        assert_eq!(store.checkpoint(&db).unwrap(), 1);
        assert_eq!(store.wal_records(), 0);
        let (recovered, store2) = Store::open(&dir).unwrap();
        assert_eq!(recovered, db);
        assert_eq!(store2.seq(), 1);
        assert!(!store2.is_fresh());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let (mut db, mut store) = Store::open(&dir).unwrap();
        let recs = sample_records();
        for rec in &recs[..2] {
            apply_record(&mut db, rec).unwrap();
            store.log(rec).unwrap();
        }
        drop(store);
        // Tear the final record at every byte boundary: recovery must
        // always yield the one-record prefix.
        let wal = dir.join(wal_name(0));
        let full = fs::read(&wal).unwrap();
        let first_len = recs[0].encode_frame().unwrap().len();
        for cut in first_len..full.len() {
            fs::write(&wal, &full[..cut]).unwrap();
            let (recovered, store) = Store::open(&dir).unwrap();
            let mut expect = Database::new();
            apply_record(&mut expect, &recs[0]).unwrap();
            assert_eq!(recovered, expect, "cut at {cut}");
            assert_eq!(store.wal_records(), 1);
            // The torn bytes are gone from disk too.
            assert_eq!(fs::read(&wal).unwrap().len(), first_len, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_wal_tail_recovers_both() {
        let dir = tmpdir("tail");
        let (mut db, mut store) = Store::open(&dir).unwrap();
        let mut base = Relation::empty(TableSchema::new("R", ["a"]));
        base.insert_values([Value::int(1)]).unwrap();
        db.add_relation(base);
        store.checkpoint(&db).unwrap();
        let tail = WalRecord::Insert {
            table: "R".into(),
            rows: vec![Tuple::new(vec![Value::int(2)])],
        };
        apply_record(&mut db, &tail).unwrap();
        store.log(&tail).unwrap();
        drop(store);
        let (recovered, store) = Store::open(&dir).unwrap();
        assert_eq!(recovered, db);
        assert_eq!(store.seq(), 1);
        assert_eq!(store.wal_records(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
