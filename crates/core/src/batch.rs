//! The vectorized batch executor: the one executor under
//! [`exec::execute`](crate::exec::execute).
//!
//! It reads each scanned relation as column vectors ([`RelData`]), drives
//! the pipeline over batches of row ids ([`Batch`]) seeded in fixed-size
//! chunks of
//! [`CHUNK_ROWS`] rows, evaluates filters and comparisons over whole
//! batches with selection vectors, and probes joins through a
//! [`JoinTable`] — a direct-indexed dense array when every key column is
//! interned symbols (or integers) with a small live range, the same
//! mixed-radix key packed into a `u64` and hashed when the range is
//! sparse, and a map keyed by the values themselves otherwise.
//!
//! A stored relation's columnar copy and the join tables over it depend
//! only on the relation's content, so they are cached *on the relation*
//! ([`Columnar`], read through `Relation::columnar`): built by the first
//! execution that scans or probes it, shared by every later execution
//! against the same snapshot (on any worker thread), and dropped by the
//! relation's next mutation. Every scan reads a stored relation, so
//! nothing is materialized per execution.
//!
//! [`exec`](crate::exec) dispatches each plan shape here: query branches
//! ([`run_query`]) and Boolean sentences ([`run_sentence`], one formula
//! over the unit batch, so existence short-circuits like any
//! quantifier). A query branch's pipeline drops duplicate rows as soon
//! as some scanned step is no longer read ([`LastReads`]), so scans that
//! only check existence do not multiply the rows later scans see.
//! Deferred head-validation
//! conjuncts batch: head-column references rewrite to the head's
//! defining terms, turning per-candidate validation into ordinary batch
//! filters.
//!
//! Quantifiers are *loop-inverted and grouped*: an `Exists` block first
//! groups the outer rows by the few outer columns its subtree actually
//! reads (rows agreeing there share one verdict), then runs its scans
//! once over the batch of group representatives, each in-flight row
//! carrying the group it is proving; as soon as some full assignment
//! satisfies a group, it is marked and its remaining work is pruned at
//! the next step/chunk boundary.

use crate::database::{Database, Relation, Tuple};
use crate::error::CoreResult;
use crate::exec::{
    bump_n, bump_probes, record, record_build, Block, Formula, Pred, QueryPlan, Scan, SentencePlan,
    TallyMap, Term,
};
use crate::symbol::SymbolTable;
use crate::value::Value;
use crate::CmpOp;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, PoisonError};

/// Rows per seed chunk: unkeyed scans feed the pipeline in column
/// chunks of this many rows, bounding working-set size independently of
/// relation cardinality.
pub const CHUNK_ROWS: usize = 1024;

/// Hard ceiling on a dense join table's slot count.
const DENSE_MAX_CAPACITY: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Columnar relation data
// ---------------------------------------------------------------------

/// A relation materialized column-major: `cols[c][r]` is row `r`'s value
/// in column `c`. A stored relation's copy is built once per snapshot
/// ([`Columnar`]) and shared by `Arc` into every batch step that scans
/// it.
pub(crate) struct RelData {
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl RelData {
    fn from_relation(rel: &Relation) -> RelData {
        let arity = rel.schema().arity();
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rel.len()); arity];
        for chunk in rel.column_chunks(CHUNK_ROWS) {
            for (c, col) in chunk.into_iter().enumerate() {
                cols[c].extend(col);
            }
        }
        RelData {
            cols,
            len: rel.len(),
        }
    }

    #[inline]
    fn value(&self, col: usize, row: u32) -> &Value {
        &self.cols[col][row as usize]
    }
}

/// A stored relation's columnar copy plus the join tables built over
/// it, keyed by key-column list — the per-snapshot cache held by
/// `Relation` (see `Relation::columnar`). Everything here is a pure
/// function of the relation's tuple set, so any execution against that
/// content may share it; the relation drops it on mutation.
pub(crate) struct Columnar {
    data: Arc<RelData>,
    tables: Mutex<HashMap<Vec<usize>, Arc<JoinTable>>>,
}

impl Columnar {
    /// Materializes `rel` column-major; join tables follow on demand.
    pub(crate) fn of(rel: &Relation) -> Columnar {
        Columnar {
            data: Arc::new(RelData::from_relation(rel)),
            tables: Mutex::default(),
        }
    }

    /// The join table over key columns `cols`, built on first request.
    /// The build runs under the lock, so concurrent first users build
    /// once; a poisoned lock is taken anyway (a finished entry is whole).
    fn table(&self, cols: &[usize]) -> Arc<JoinTable> {
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.get(cols) {
            return t.clone();
        }
        let table = Arc::new(JoinTable::over(&self.data, cols));
        tables.insert(cols.to_vec(), table.clone());
        table
    }
}

impl fmt::Debug for Columnar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Columnar")
            .field("rows", &self.data.len)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Join tables: dense direct-index or hash
// ---------------------------------------------------------------------

/// A build-side join table mapping key-column values to matching row
/// ids.
///
/// When every key column holds a single scalar kind (all `Int` or all
/// `Sym`), a key is numbered mixed-radix by its columns' offsets
/// ([`Radix`]). If that numbering's range is small — the common case for
/// interned symbol columns, whose `u32` ids are allocated densely — the
/// table is a direct-indexed CSR array: probing is subtraction,
/// multiplication, and one slice lookup, no hashing. If the range is
/// sparse but fits a `u64`, the number is hashed instead, to its rows'
/// range in one CSR array. Only `Str` keys, or ranges past `u64`, fall
/// back to a `HashMap` keyed by the value vector.
enum JoinTable {
    Dense {
        radix: Radix,
        /// CSR offsets: slot `i`'s rows live at `rows[starts[i]..starts[i+1]]`.
        starts: Vec<u32>,
        /// Row ids, grouped by slot.
        rows: Vec<u32>,
    },
    Packed {
        radix: Radix,
        /// Each occupied slot's `start..end` in `rows`.
        ranges: HashMap<u64, (u32, u32), BuildHasherDefault<Fnv>>,
        /// Row ids, grouped by slot.
        rows: Vec<u32>,
    },
    Hash(HashMap<Vec<Value>, Vec<u32>>),
}

static NO_ROWS: [u32; 0] = [];

/// The mixed-radix numbering of a composite key whose columns each hold
/// one dense kind ([`Value::as_dense_key`]): the last column varies
/// fastest, exactly like a row-major array index.
struct Radix {
    /// Per key column: the dense-kind tag.
    kinds: Vec<u8>,
    /// Per key column: the smallest encoded key.
    mins: Vec<i64>,
    /// Per key column: `max - min + 1`.
    spans: Vec<u64>,
}

impl Radix {
    /// Scans the build side's key columns. Returns the numbering and its
    /// slot count (saturating) when every column holds a single dense
    /// kind, `None` otherwise (or for an empty build side).
    fn fit<'a>(
        len: usize,
        ncols: usize,
        at: impl Fn(usize, usize) -> &'a Value,
    ) -> Option<(Radix, u128)> {
        if len == 0 || ncols == 0 {
            return None;
        }
        let mut kinds = vec![0u8; ncols];
        let mut mins = vec![0i64; ncols];
        let mut maxs = vec![0i64; ncols];
        for c in 0..ncols {
            for r in 0..len {
                let (kind, code) = at(r, c).as_dense_key()?;
                if r == 0 {
                    (kinds[c], mins[c], maxs[c]) = (kind, code, code);
                } else if kind != kinds[c] {
                    return None;
                } else {
                    mins[c] = mins[c].min(code);
                    maxs[c] = maxs[c].max(code);
                }
            }
        }
        let mut capacity = 1u128;
        let mut spans = vec![0u64; ncols];
        for c in 0..ncols {
            // In `i128`: a column spanning all of `i64` has a span of
            // 2⁶⁴, which must not wrap to a zero-slot table.
            let span = (i128::from(maxs[c]) - i128::from(mins[c])) as u128 + 1;
            spans[c] = span.min(u64::MAX as u128) as u64;
            capacity = capacity.saturating_mul(span);
        }
        Some((Radix { kinds, mins, spans }, capacity))
    }

    /// The slot of the key read through `at`, or `None` when a value is
    /// of the wrong kind or outside its column's range — such a key
    /// cannot equal any stored one. Only valid for a numbering whose
    /// capacity fits a `u64`.
    fn slot<'v>(&self, at: impl Fn(usize) -> &'v Value) -> Option<u64> {
        let mut idx = 0u64;
        for (c, &span) in self.spans.iter().enumerate() {
            let (kind, code) = at(c).as_dense_key()?;
            // Two's complement: below `min` wraps past any span.
            let off = code.wrapping_sub(self.mins[c]) as u64;
            if kind != self.kinds[c] || off >= span {
                return None;
            }
            idx = idx * span + off;
        }
        Some(idx)
    }
}

impl JoinTable {
    /// Builds a table over `len` rows with `ncols` key columns, reading
    /// key values through `at(row, keycol)`.
    fn build<'a, F>(len: usize, ncols: usize, at: F) -> JoinTable
    where
        F: Fn(usize, usize) -> &'a Value,
    {
        let Some((radix, capacity)) = Radix::fit(len, ncols, &at) else {
            return JoinTable::hashed(len, ncols, at);
        };
        if capacity > u64::MAX as u128 {
            return JoinTable::hashed(len, ncols, at);
        }
        let slots: Vec<u64> = (0..len)
            .map(|r| {
                radix
                    .slot(|c| at(r, c))
                    .expect("every build key is in range")
            })
            .collect();
        // Dense pays capacity slots of memory; keep it proportional to
        // the data (sparse ranges hash their slot numbers instead).
        if capacity <= DENSE_MAX_CAPACITY as u128 && capacity <= 8 * len as u128 + 1024 {
            // Counting sort into CSR layout.
            let mut starts = vec![0u32; capacity as usize + 1];
            for &s in &slots {
                starts[s as usize + 1] += 1;
            }
            for i in 1..starts.len() {
                starts[i] += starts[i - 1];
            }
            let mut rows = vec![0u32; len];
            let mut cursor = starts.clone();
            for (r, &s) in slots.iter().enumerate() {
                rows[cursor[s as usize] as usize] = r as u32;
                cursor[s as usize] += 1;
            }
            return JoinTable::Dense {
                radix,
                starts,
                rows,
            };
        }
        // The same counting sort, over the occupied slots only.
        let mut ranges: HashMap<u64, (u32, u32), BuildHasherDefault<Fnv>> = HashMap::default();
        for &s in &slots {
            ranges.entry(s).or_default().1 += 1;
        }
        let mut next = 0u32;
        for range in ranges.values_mut() {
            let n = range.1;
            *range = (next, next);
            next += n;
        }
        let mut rows = vec![0u32; len];
        for (r, s) in slots.iter().enumerate() {
            let range = ranges.get_mut(s).expect("counted above");
            rows[range.1 as usize] = r as u32;
            range.1 += 1;
        }
        JoinTable::Packed {
            radix,
            ranges,
            rows,
        }
    }

    /// The general table: rows keyed by their cloned key values.
    fn hashed<'a>(len: usize, ncols: usize, at: impl Fn(usize, usize) -> &'a Value) -> JoinTable {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for r in 0..len {
            let key: Vec<Value> = (0..ncols).map(|c| at(r, c).clone()).collect();
            map.entry(key).or_default().push(r as u32);
        }
        JoinTable::Hash(map)
    }

    /// Builds a table over `data`'s key columns `cols`.
    fn over(data: &RelData, cols: &[usize]) -> JoinTable {
        JoinTable::build(data.len, cols.len(), |r, c| data.value(cols[c], r as u32))
    }

    /// The row ids matching the key read through `at` (empty for misses,
    /// including keys of the wrong kind or outside the key range — such
    /// values cannot equal any stored key). The dense and packed paths
    /// never clone a value, and the hash path fills `scratch` (reused
    /// across calls, so a probe allocates only when the key outgrows the
    /// buffer).
    fn probe_with<'v>(
        &self,
        ncols: usize,
        at: impl Fn(usize) -> &'v Value,
        scratch: &mut Vec<Value>,
    ) -> &[u32] {
        match self {
            JoinTable::Dense {
                radix,
                starts,
                rows,
            } => match radix.slot(at) {
                Some(s) => &rows[starts[s as usize] as usize..starts[s as usize + 1] as usize],
                None => &NO_ROWS,
            },
            JoinTable::Packed {
                radix,
                ranges,
                rows,
            } => match radix.slot(at).and_then(|s| ranges.get(&s)) {
                Some(&(start, end)) => &rows[start as usize..end as usize],
                None => &NO_ROWS,
            },
            JoinTable::Hash(map) => {
                scratch.clear();
                scratch.extend((0..ncols).map(|c| at(c).clone()));
                map.get(scratch.as_slice())
                    .map(|v| v.as_slice())
                    .unwrap_or(&NO_ROWS)
            }
        }
    }

    /// The strategy label `explain analyze` reports.
    fn kind(&self) -> &'static str {
        match self {
            JoinTable::Dense { .. } => "dense-key",
            // A packed table is a hash table too; the label is wire-visible.
            JoinTable::Packed { .. } | JoinTable::Hash(_) => "hash",
        }
    }
}

// ---------------------------------------------------------------------
// Quantifier grouping
// ---------------------------------------------------------------------

/// FNV-1a — a cheap non-cryptographic hasher for quantifier grouping
/// and packed join keys, where SipHash's per-call cost would rival the
/// work being done.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }
    // Word-sized inputs fold in one multiply — the derived `Hash` for
    // `Value` emits a discriminant word plus a payload word, so hashing
    // a `Sym` or `Int` costs two multiplies instead of sixteen.
    fn write_u8(&mut self, n: u8) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::PRIME);
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
    fn write_i64(&mut self, n: i64) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(Self::PRIME);
    }
}

/// Open-addressed interner mapping each row's dependency-value
/// combination to a dense group id — no per-row allocation: values hash
/// in place and equality is verified against the group's representative
/// row.
struct Groups {
    mask: usize,
    slots: Vec<u32>,
    hashes: Vec<u64>,
}

impl Groups {
    fn new(n: usize) -> Groups {
        let cap = (2 * n).next_power_of_two().max(8);
        Groups {
            mask: cap - 1,
            slots: vec![u32::MAX; cap],
            hashes: Vec::new(),
        }
    }

    /// The group id of `row`, allocating a new group (with `row` as its
    /// representative) on first sight of its dep values.
    fn intern(
        &mut self,
        batch: &Batch,
        deps: &[(usize, usize)],
        row: usize,
        reps: &mut Vec<usize>,
    ) -> u32 {
        use std::hash::Hash;
        use std::hash::Hasher as _;
        let mut f = Fnv::default();
        for &(s, c) in deps {
            batch.value(s, c, row).hash(&mut f);
        }
        let h = f.finish();
        let mut i = h as usize & self.mask;
        loop {
            match self.slots[i] {
                u32::MAX => {
                    let g = reps.len() as u32;
                    self.slots[i] = g;
                    self.hashes.push(h);
                    reps.push(row);
                    return g;
                }
                g if self.hashes[g as usize] == h
                    && deps.iter().all(|&(s, c)| {
                        batch.value(s, c, row) == batch.value(s, c, reps[g as usize])
                    }) =>
                {
                    return g;
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batches and slot resolution
// ---------------------------------------------------------------------

/// A batch of in-flight pipeline rows in columnar form: one row-id
/// column per bound scan step, all the same length, plus the origin id
/// each row is proving (used by quantifier pruning; all zero at the top
/// level).
struct Batch {
    steps: Vec<StepRows>,
    origins: Vec<u32>,
}

/// One bound scan step of a batch: the scanned relation and, per batch
/// row, which of its rows is bound.
struct StepRows {
    rel: Arc<RelData>,
    rows: Vec<u32>,
}

impl Batch {
    /// The seed batch: one virtual row binding nothing (the unit of the
    /// cross product the pipeline builds up).
    fn unit() -> Batch {
        Batch {
            steps: Vec::new(),
            origins: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.origins.len()
    }

    /// The batch restricted to row indices in `keep`.
    fn select(&self, keep: &[usize]) -> Batch {
        Batch {
            steps: self
                .steps
                .iter()
                .map(|s| StepRows {
                    rel: s.rel.clone(),
                    rows: keep.iter().map(|&i| s.rows[i]).collect(),
                })
                .collect(),
            origins: keep.iter().map(|&i| self.origins[i]).collect(),
        }
    }

    /// The value bound at `(step, col)` for batch row `i`.
    #[inline]
    fn value(&self, step: usize, col: usize, i: usize) -> &Value {
        let s = &self.steps[step];
        s.rel.value(col, s.rows[i])
    }
}

/// The batch step each tuple slot is bound to — coordinates, not
/// values; the values stay in the shared columns.
struct SlotMap {
    tuple: Vec<usize>,
}

const UNBOUND: usize = usize::MAX;

impl SlotMap {
    fn new(tuple_slots: usize) -> SlotMap {
        SlotMap {
            tuple: vec![UNBOUND; tuple_slots],
        }
    }

    fn bind_scan(&mut self, scan: &Scan, step: usize) {
        self.tuple[scan.tuple_slot] = step;
    }

    fn unbind_scan(&mut self, scan: &Scan) {
        self.tuple[scan.tuple_slot] = UNBOUND;
    }
}

/// A term resolved against a [`SlotMap`]: either a constant or a batch
/// coordinate.
enum TermRef<'t> {
    Const(&'t Value),
    Col { step: usize, col: usize },
}

fn term_ref<'t>(t: &'t Term, sm: &SlotMap) -> TermRef<'t> {
    match t {
        Term::Const(v) => TermRef::Const(v),
        Term::Col { slot, col } => {
            let step = sm.tuple[*slot];
            debug_assert_ne!(step, UNBOUND, "terms attach only after their slot binds");
            TermRef::Col { step, col: *col }
        }
    }
}

impl TermRef<'_> {
    #[inline]
    fn value<'b>(&'b self, batch: &'b Batch, i: usize) -> &'b Value {
        match self {
            TermRef::Const(v) => v,
            TermRef::Col { step, col } => batch.value(*step, *col, i),
        }
    }
}

// ---------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------

/// Per-execution state of the pipeline driver: one join-table slot per
/// keyed scan (it saves re-taking the relation's lock on every batch)
/// and the optional analyze tally.
struct BatchCtx<'d> {
    db: &'d Database,
    symbols: &'d SymbolTable,
    tables: Vec<Option<Arc<JoinTable>>>,
    tally: Option<TallyMap>,
}

impl<'d> BatchCtx<'d> {
    fn new(db: &'d Database, n_indexes: usize, tally: Option<TallyMap>) -> Self {
        BatchCtx {
            db,
            symbols: db.symbols(),
            tables: vec![None; n_indexes],
            tally,
        }
    }

    /// The columnar copy of stored relation `rel`, from its per-snapshot
    /// cache.
    fn rel_data(&self, rel: &str) -> CoreResult<Arc<RelData>> {
        Ok(self.db.require(rel)?.columnar().data.clone())
    }

    /// The join table in slot `id` over `rel`'s `cols`, from the
    /// relation's per-snapshot cache.
    fn table_for(&mut self, rel: &str, cols: &[usize], id: usize) -> CoreResult<Arc<JoinTable>> {
        if let Some(t) = &self.tables[id] {
            return Ok(t.clone());
        }
        let table = self.db.require(rel)?.columnar().table(cols);
        self.tables[id] = Some(table.clone());
        Ok(table)
    }
}

// ---------------------------------------------------------------------
// The pipeline driver
// ---------------------------------------------------------------------

/// Where finished assignments go: collected by the caller at the top
/// level, or marking origins satisfied inside a quantifier (which also
/// prunes that origin's remaining work at the next step boundary).
enum Sink<'s> {
    Collect {
        emit: &'s mut dyn FnMut(&Batch, &mut SlotMap, &mut BatchCtx) -> CoreResult<()>,
        reads: &'s LastReads,
    },
    Exists {
        satisfied: &'s mut [bool],
    },
}

impl Sink<'_> {
    #[inline]
    fn alive(&self, origin: u32) -> bool {
        match self {
            Sink::Collect { .. } => true,
            Sink::Exists { satisfied } => !satisfied[origin as usize],
        }
    }

    fn emit(&mut self, batch: &Batch, sm: &mut SlotMap, ctx: &mut BatchCtx) -> CoreResult<()> {
        match self {
            Sink::Collect { emit, .. } => emit(batch, sm, ctx),
            Sink::Exists { satisfied } => {
                for &o in &batch.origins {
                    satisfied[o as usize] = true;
                }
                Ok(())
            }
        }
    }
}

/// Drops rows whose origin is already satisfied (no-op batches pass
/// through untouched).
fn retain_alive(batch: Batch, sink: &Sink<'_>) -> Batch {
    if batch.origins.iter().all(|&o| sink.alive(o)) {
        return batch;
    }
    let keep: Vec<usize> = (0..batch.len())
        .filter(|&i| sink.alive(batch.origins[i]))
        .collect();
    batch.select(&keep)
}

/// Runs scans `si..` of a pipeline over `batch`, sending every full
/// assignment to `sink`. The walk is depth-first with one [`Frame`] per
/// scan on an explicit stack, not one native call per scan: a block can
/// hold thousands of scans (an unfolded Datalog program, a wide RA
/// product), more than a worker thread's stack has room for.
fn run_scans(
    scans: &[Scan],
    si: usize,
    batch: Batch,
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
    sink: &mut Sink<'_>,
) -> CoreResult<()> {
    let mut frames: Vec<Frame> = Vec::new();
    let mut next = Some((si, batch));
    loop {
        if let Some((si, batch)) = next.take() {
            let batch = retain_alive(batch, sink);
            if batch.len() > 0 {
                if si == scans.len() {
                    sink.emit(&batch, sm, ctx)?;
                } else {
                    frames.push(Frame::enter(&scans[si], si, batch, sm, ctx, sink)?);
                }
            }
        }
        let Some(frame) = frames.last_mut() else {
            return Ok(());
        };
        match frame.next_batch(&scans[frame.si], sm, ctx, sink)? {
            Some(nb) => next = Some((frame.si + 1, nb)),
            None => {
                sm.unbind_scan(&scans[frame.si]);
                frames.pop();
            }
        }
    }
}

/// One scan of the walk in [`run_scans`]: its input batch, crossed with
/// the scanned relation into output batches that are each run through
/// the later scans before the next is built.
struct Frame {
    si: usize,
    rel: Arc<RelData>,
    /// A keyed scan's expansion, until it is handed on. The input batch
    /// is dropped once probed, so a chain of keyed scans holds only the
    /// batch in flight.
    probed: Option<Batch>,
    /// An unkeyed scan's input batch, crossed with the relation from its
    /// next row `start` in chunks of `chunk` rows.
    input: Option<Batch>,
    start: usize,
    chunk: usize,
}

impl Frame {
    /// Starts scan `si` over `batch` and binds its slot. A keyed scan
    /// probes its join table for every row at once, resolving its key
    /// terms against the outer bindings first.
    fn enter(
        scan: &Scan,
        si: usize,
        batch: Batch,
        sm: &mut SlotMap,
        ctx: &mut BatchCtx,
        sink: &Sink<'_>,
    ) -> CoreResult<Frame> {
        let rel = ctx.rel_data(&scan.rel)?;
        let step = batch.steps.len();
        let (probed, input) = if scan.is_keyed() {
            let key_refs: Vec<TermRef> = scan.key_terms.iter().map(|t| term_ref(t, sm)).collect();
            let table = ctx.table_for(&scan.rel, &scan.key_cols, scan.index_id)?;
            record_build(&mut ctx.tally, scan, table.kind());
            let mut nb = expand_empty(&batch, &rel);
            let mut key: Vec<Value> = Vec::with_capacity(key_refs.len());
            for i in 0..batch.len() {
                let rows =
                    table.probe_with(key_refs.len(), |c| key_refs[c].value(&batch, i), &mut key);
                for &r in rows {
                    push_expanded(&mut nb, &batch, i, r);
                }
            }
            (Some(nb), None)
        } else {
            (None, Some(batch))
        };
        sm.bind_scan(scan, step);
        // Existence checks start with tiny chunks (rows decided by the
        // relation's first few tuples never touch the rest) and grow
        // geometrically so a scan-everything workload still amortizes to
        // CHUNK_ROWS.
        let chunk = match sink {
            Sink::Exists { .. } => 4,
            Sink::Collect { .. } => CHUNK_ROWS,
        };
        Ok(Frame {
            si,
            rel,
            probed,
            input,
            start: 0,
            chunk,
        })
    }

    /// The next output batch whose rows pass the scan's filters (tallied;
    /// at the root, without rows that only repeat others on the steps
    /// read later), or `None` once the scan is exhausted. An unkeyed
    /// scan crosses the batch with the relation one chunk at a time,
    /// re-checking origin liveness between chunks so satisfied
    /// quantifier rows stop generating work.
    fn next_batch(
        &mut self,
        scan: &Scan,
        sm: &mut SlotMap,
        ctx: &mut BatchCtx,
        sink: &Sink<'_>,
    ) -> CoreResult<Option<Batch>> {
        loop {
            let nb = match (&self.input, self.probed.take()) {
                (_, Some(nb)) => nb,
                (None, None) => return Ok(None),
                (Some(batch), None) => {
                    let alive: Vec<usize> = (0..batch.len())
                        .filter(|&i| sink.alive(batch.origins[i]))
                        .collect();
                    if self.start >= self.rel.len || alive.is_empty() {
                        return Ok(None);
                    }
                    let end = (self.start + self.chunk).min(self.rel.len);
                    self.chunk = (self.chunk * 2).min(CHUNK_ROWS);
                    let mut nb = expand_empty(batch, &self.rel);
                    for &i in &alive {
                        for r in self.start..end {
                            push_expanded(&mut nb, batch, i, r as u32);
                        }
                    }
                    self.start = end;
                    nb
                }
            };
            let survivors = if scan.filters.is_empty() {
                // Nothing to verify: every expanded row survives.
                bump_n(&mut ctx.tally, scan, nb.len());
                Some(nb)
            } else {
                filter(scan, nb, sm, ctx)?
            };
            if let Some(survivors) = survivors {
                return Ok(Some(match sink {
                    Sink::Collect { reads, .. } if reads.dies[self.si] => {
                        reads.dedup(survivors, self.si)
                    }
                    _ => survivors,
                }));
            }
        }
    }
}

/// An empty batch shaped like `base` plus one new step scanning `rel`.
fn expand_empty(base: &Batch, rel: &Arc<RelData>) -> Batch {
    let mut steps: Vec<StepRows> = base
        .steps
        .iter()
        .map(|s| StepRows {
            rel: s.rel.clone(),
            rows: Vec::new(),
        })
        .collect();
    steps.push(StepRows {
        rel: rel.clone(),
        rows: Vec::new(),
    });
    Batch {
        steps,
        origins: Vec::new(),
    }
}

/// Appends base row `i` extended with new-step row `r` to `nb`.
#[inline]
fn push_expanded(nb: &mut Batch, base: &Batch, i: usize, r: u32) {
    let last = nb.steps.len() - 1;
    for (s, col) in nb.steps[..last].iter_mut().enumerate() {
        col.rows.push(base.steps[s].rows[i]);
    }
    nb.steps[last].rows.push(r);
    nb.origins.push(base.origins[i]);
}

/// The rows of `nb` that pass `scan`'s filters (`None` if none do),
/// tallied.
fn filter(
    scan: &Scan,
    nb: Batch,
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
) -> CoreResult<Option<Batch>> {
    let mut sel: Vec<usize> = (0..nb.len()).collect();
    for f in &scan.filters {
        if sel.is_empty() {
            break;
        }
        let fm = eval_mask(f, &nb, &sel, sm, ctx)?;
        sel = sel
            .into_iter()
            .zip(&fm)
            .filter_map(|(i, &ok)| ok.then_some(i))
            .collect();
    }
    if sel.is_empty() {
        return Ok(None);
    }
    bump_n(&mut ctx.tally, scan, sel.len());
    Ok(Some(if sel.len() == nb.len() {
        nb
    } else {
        nb.select(&sel)
    }))
}

/// Where a root pipeline may drop duplicate rows. The output keeps only
/// the values of the steps it reads, so once no later scan, head term
/// or deferred conjunct reads a step, rows that agree on every step
/// still read are duplicates: dropping them there keeps a scan that
/// only checks existence (an inlined Datalog IDB, a `∃` hoisted to the
/// root) from multiplying the rows every later scan sees.
struct LastReads {
    /// Per step, the last scan reading it (`usize::MAX` if the output
    /// does).
    last: Vec<usize>,
    /// Per scan, whether it is the last to read some step.
    dies: Vec<bool>,
}

impl LastReads {
    /// The reads of `q`'s root pipeline, whose step `k` is scan `k`.
    fn of(q: &QueryPlan, deferred: &[Formula]) -> LastReads {
        let scans = &q.root.scans;
        let mut sm = SlotMap::new(q.shape.tuple_slots);
        for (step, scan) in scans.iter().enumerate() {
            sm.bind_scan(scan, step);
        }
        let mut last: Vec<usize> = (0..scans.len()).collect();
        let mut reads = Vec::new();
        for (j, scan) in scans.iter().enumerate() {
            reads.clear();
            scan_deps(scan, &sm, &mut reads);
            for &(step, _) in &reads {
                last[step] = last[step].max(j);
            }
        }
        reads.clear();
        for t in &q.defs {
            term_deps(t, &sm, &mut reads);
        }
        for f in deferred {
            formula_deps(f, &sm, &mut reads);
        }
        for &(step, _) in &reads {
            last[step] = usize::MAX;
        }
        let mut dies = vec![false; scans.len()];
        for &j in last.iter().filter(|&&j| j != usize::MAX) {
            dies[j] = true;
        }
        LastReads { last, dies }
    }

    /// `batch`, after scan `j`, without the rows that repeat an earlier
    /// row on every step read after `j`.
    fn dedup(&self, batch: Batch, j: usize) -> Batch {
        let live: Vec<usize> = (0..=j).filter(|&k| self.last[k] > j).collect();
        let mut seen: HashSet<Vec<u32>, BuildHasherDefault<Fnv>> = HashSet::default();
        let keep: Vec<usize> = (0..batch.len())
            .filter(|&i| seen.insert(live.iter().map(|&k| batch.steps[k].rows[i]).collect()))
            .collect();
        if keep.len() == batch.len() {
            batch
        } else {
            batch.select(&keep)
        }
    }
}

// ---------------------------------------------------------------------
// Vectorized formula evaluation
// ---------------------------------------------------------------------

/// Evaluates `f` for the batch rows in `sel`, returning one truth value
/// per selected row. Conjunctions and disjunctions refine the selection
/// as they go: a row decided by an earlier operand is never evaluated by
/// a later one.
fn eval_mask(
    f: &Formula,
    batch: &Batch,
    sel: &[usize],
    sm: &mut SlotMap,
    ctx: &mut BatchCtx,
) -> CoreResult<Vec<bool>> {
    match f {
        Formula::And(fs) => {
            let mut mask = vec![true; sel.len()];
            for sub in fs {
                let live: Vec<usize> = sel
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&i, &m)| m.then_some(i))
                    .collect();
                if live.is_empty() {
                    break;
                }
                let sub_mask = eval_mask(sub, batch, &live, sm, ctx)?;
                let mut it = sub_mask.iter();
                for m in mask.iter_mut().filter(|m| **m) {
                    *m = *it.next().expect("one verdict per live row");
                }
            }
            Ok(mask)
        }
        Formula::Or(fs) => {
            let mut mask = vec![false; sel.len()];
            for sub in fs {
                let live: Vec<usize> = sel
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&i, &m)| (!m).then_some(i))
                    .collect();
                if live.is_empty() {
                    break;
                }
                let sub_mask = eval_mask(sub, batch, &live, sm, ctx)?;
                let mut it = sub_mask.iter();
                for m in mask.iter_mut().filter(|m| !**m) {
                    *m = *it.next().expect("one verdict per live row");
                }
            }
            Ok(mask)
        }
        Formula::Not(sub) => {
            let mut mask = eval_mask(sub, batch, sel, sm, ctx)?;
            for m in &mut mask {
                *m = !*m;
            }
            Ok(mask)
        }
        Formula::Pred(p) => {
            let l = term_ref(&p.left, sm);
            let r = term_ref(&p.right, sm);
            Ok(sel
                .iter()
                .map(|&i| {
                    p.op.eval_resolved(l.value(batch, i), r.value(batch, i), ctx.symbols)
                })
                .collect())
        }
        Formula::Exists(block) => {
            let mut satisfied = vec![false; sel.len()];
            // Pre-scan conjuncts of the block constrain the outer rows.
            let mut live: Vec<usize> = (0..sel.len()).collect();
            for pre in &block.pre {
                if live.is_empty() {
                    break;
                }
                let live_rows: Vec<usize> = live.iter().map(|&p| sel[p]).collect();
                let pm = eval_mask(pre, batch, &live_rows, sm, ctx)?;
                live = live
                    .into_iter()
                    .zip(&pm)
                    .filter_map(|(p, &ok)| ok.then_some(p))
                    .collect();
            }
            if block.scans.is_empty() {
                for &p in &live {
                    satisfied[p] = true;
                }
                return Ok(satisfied);
            }
            if !live.is_empty() {
                // A single keyed probe with no residual checks answers
                // existence in O(1) per row — probe the join table
                // directly instead of seeding the scan machinery (no
                // batch clone, no match materialization, no grouping).
                let cheap = block.scans.len() == 1
                    && block.scans[0].is_keyed()
                    && block.scans[0].filters.is_empty();
                if cheap {
                    bump_probes(&mut ctx.tally, block, live.len());
                    let scan = &block.scans[0];
                    let key_refs: Vec<TermRef> =
                        scan.key_terms.iter().map(|t| term_ref(t, sm)).collect();
                    let table = ctx.table_for(&scan.rel, &scan.key_cols, scan.index_id)?;
                    record_build(&mut ctx.tally, scan, table.kind());
                    let mut key: Vec<Value> = Vec::with_capacity(key_refs.len());
                    let mut hits = 0usize;
                    for &p in &live {
                        let i = sel[p];
                        let rows = table.probe_with(
                            key_refs.len(),
                            |c| key_refs[c].value(batch, i),
                            &mut key,
                        );
                        hits += rows.len();
                        satisfied[p] = !rows.is_empty();
                    }
                    bump_n(&mut ctx.tally, scan, hits);
                    return Ok(satisfied);
                }
                // Loop inversion, with one twist: the quantified subtree
                // reads only a handful of outer columns (`deps`), so
                // rows agreeing on them share one verdict. Grouping the
                // live rows by their dep values and running the scans
                // once per *group* turns O(rows × inner) quantifier work
                // into O(distinct bindings × inner).
                let mut deps: Vec<(usize, usize)> = Vec::new();
                block_deps(block, sm, &mut deps);
                deps.sort_unstable();
                deps.dedup();
                let mut groups = Groups::new(live.len());
                let mut group_of: Vec<u32> = Vec::with_capacity(live.len());
                let mut reps: Vec<usize> = Vec::new();
                for &p in &live {
                    group_of.push(groups.intern(batch, &deps, sel[p], &mut reps));
                }
                bump_probes(&mut ctx.tally, block, reps.len());
                let mut sat_groups = vec![false; reps.len()];
                let mut seed = batch.select(&reps);
                seed.origins = (0..reps.len() as u32).collect();
                let mut sink = Sink::Exists {
                    satisfied: &mut sat_groups,
                };
                run_scans(&block.scans, 0, seed, sm, ctx, &mut sink)?;
                for (k, &p) in live.iter().enumerate() {
                    satisfied[p] = sat_groups[group_of[k] as usize];
                }
            }
            Ok(satisfied)
        }
    }
}

// ---------------------------------------------------------------------
// Quantifier dependency analysis
// ---------------------------------------------------------------------

/// Records the batch coordinate `t` resolves to, if its slot is already
/// bound — i.e. bound *outside* the subtree under analysis. Slots the
/// subtree's own scans bind are still [`UNBOUND`] when this runs, so
/// they are correctly skipped.
fn term_deps(t: &Term, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    match t {
        Term::Col { slot, col } => {
            let step = sm.tuple[*slot];
            if step != UNBOUND {
                out.push((step, *col));
            }
        }
        Term::Const(_) => {}
    }
}

/// Collects every outer-bound batch coordinate `f` can read.
fn formula_deps(f: &Formula, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                formula_deps(sub, sm, out);
            }
        }
        Formula::Not(sub) => formula_deps(sub, sm, out),
        Formula::Pred(p) => {
            term_deps(&p.left, sm, out);
            term_deps(&p.right, sm, out);
        }
        Formula::Exists(block) => block_deps(block, sm, out),
    }
}

/// Collects every outer-bound batch coordinate the block's subtree can
/// read: pre conjuncts, scan keys, and filters.
fn block_deps(block: &Block, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    for pre in &block.pre {
        formula_deps(pre, sm, out);
    }
    for scan in &block.scans {
        scan_deps(scan, sm, out);
    }
}

/// Collects every outer-bound batch coordinate a scan's keys and filters
/// read.
fn scan_deps(scan: &Scan, sm: &SlotMap, out: &mut Vec<(usize, usize)>) {
    for t in &scan.key_terms {
        term_deps(t, sm, out);
    }
    for f in &scan.filters {
        formula_deps(f, sm, out);
    }
}

// ---------------------------------------------------------------------
// Entry points: pipelines
// ---------------------------------------------------------------------

/// Runs a pipeline block end to end, handing every surviving batch of
/// full assignments to `emit`.
fn run_pipeline(
    block: &Block,
    tuple_slots: usize,
    ctx: &mut BatchCtx,
    reads: &LastReads,
    emit: &mut dyn FnMut(&Batch, &mut SlotMap, &mut BatchCtx) -> CoreResult<()>,
) -> CoreResult<()> {
    let mut sm = SlotMap::new(tuple_slots);
    let seed = Batch::unit();
    for pre in &block.pre {
        let mask = eval_mask(pre, &seed, &[0], &mut sm, ctx)?;
        if !mask[0] {
            return Ok(());
        }
    }
    let mut sink = Sink::Collect { emit, reads };
    run_scans(&block.scans, 0, seed, &mut sm, ctx, &mut sink)
}

/// `t` with references to the output head's columns replaced by the
/// head's defining terms: column `c` of the head tuple *is* `defs[c]`
/// evaluated on the same assignment, so the substitution is exact.
fn subst_term(t: &Term, head_slot: usize, defs: &[Term]) -> Term {
    match t {
        Term::Col { slot, col } if *slot == head_slot => defs[*col].clone(),
        _ => t.clone(),
    }
}

fn subst_formula(f: &Formula, head_slot: usize, defs: &[Term]) -> Formula {
    let sub = |f: &Formula| subst_formula(f, head_slot, defs);
    let term = |t: &Term| subst_term(t, head_slot, defs);
    match f {
        Formula::And(fs) => Formula::And(fs.iter().map(sub).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(sub).collect()),
        Formula::Not(f) => Formula::Not(Box::new(sub(f))),
        Formula::Pred(p) => Formula::Pred(Pred {
            left: term(&p.left),
            op: p.op,
            right: term(&p.right),
        }),
        Formula::Exists(b) => Formula::Exists(Block {
            pre: b.pre.iter().map(sub).collect(),
            scans: b
                .scans
                .iter()
                .map(|s| Scan {
                    key_terms: s.key_terms.iter().map(term).collect(),
                    filters: s.filters.iter().map(sub).collect(),
                    ..s.clone()
                })
                .collect(),
        }),
    }
}

/// A conjunct the head substitution made vacuous: `x = x` holds for
/// every row (values are `Int`/`Sym`/`Str`, so equality is reflexive),
/// which is what the common `q.A = r.A` head-defining pattern becomes
/// once head columns are rewritten to their defining terms.
fn trivially_true(f: &Formula) -> bool {
    match f {
        Formula::Pred(p) => p.op == CmpOp::Eq && p.left == p.right,
        Formula::And(fs) => fs.iter().all(trivially_true),
        _ => false,
    }
}

/// Executes one query branch over column chunks
/// ([`exec::run_query`](crate::exec::run_query)).
pub(crate) fn run_query(
    q: &QueryPlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<Relation> {
    let mut ctx = BatchCtx::new(db, q.shape.indexes, tally.take());
    let mut out = db.fresh_relation(q.out.clone());
    // Deferred head validation, vectorized: instead of binding each
    // candidate tuple and re-validating it, rewrite head-column
    // references to the head's defining terms once and run the deferred
    // conjuncts as ordinary selection-refining filters over the whole
    // batch.
    let deferred: Vec<Formula> = q
        .deferred
        .iter()
        .map(|f| subst_formula(f, q.head_slot, &q.defs))
        .filter(|f| !trivially_true(f))
        .collect();
    // A shadow hash set dedups candidates before touching the ordered
    // output set: duplicate-heavy projections pay one (FNV) hash lookup
    // per row instead of an allocation plus a B-tree descent.
    let mut seen: HashSet<Vec<Value>, BuildHasherDefault<Fnv>> = HashSet::default();
    let mut scratch: Vec<Value> = Vec::with_capacity(q.defs.len());
    let reads = LastReads::of(q, &deferred);
    let result = run_pipeline(
        &q.root,
        q.shape.tuple_slots,
        &mut ctx,
        &reads,
        &mut |batch, sm, ctx| {
            let defs: Vec<TermRef> = q.defs.iter().map(|t| term_ref(t, sm)).collect();
            let mut project = |batch: &Batch, i: usize| -> CoreResult<()> {
                scratch.clear();
                scratch.extend(defs.iter().map(|d| d.value(batch, i).clone()));
                if !seen.contains(&scratch) {
                    seen.insert(scratch.clone());
                    out.insert(Tuple(scratch.clone()))?;
                }
                Ok(())
            };
            if deferred.is_empty() {
                for i in 0..batch.len() {
                    project(batch, i)?;
                }
                return Ok(());
            }
            let mut sel: Vec<usize> = (0..batch.len()).collect();
            for f in &deferred {
                if sel.is_empty() {
                    break;
                }
                let fm = eval_mask(f, batch, &sel, sm, ctx)?;
                sel = sel
                    .into_iter()
                    .zip(&fm)
                    .filter_map(|(i, &ok)| ok.then_some(i))
                    .collect();
            }
            for i in sel {
                project(batch, i)?;
            }
            Ok(())
        },
    );
    *tally = ctx.tally.take();
    result?;
    record(tally, q, out.len());
    Ok(out)
}

/// Decides a Boolean sentence: its formula evaluated for the one row of
/// the unit batch ([`exec::run_sentence`](crate::exec::run_sentence)).
pub(crate) fn run_sentence(
    s: &SentencePlan,
    db: &Database,
    tally: &mut Option<TallyMap>,
) -> CoreResult<bool> {
    let mut ctx = BatchCtx::new(db, s.shape.indexes, tally.take());
    let mut sm = SlotMap::new(s.shape.tuple_slots);
    let verdict = eval_mask(&s.formula, &Batch::unit(), &[0], &mut sm, &mut ctx);
    *tally = ctx.tally.take();
    Ok(verdict?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{EnvShape, Plan, FULL_SCAN};
    use crate::schema::TableSchema;

    impl JoinTable {
        fn probe(&self, key: &[Value]) -> &[u32] {
            self.probe_with(key.len(), |c| &key[c], &mut Vec::new())
        }
    }

    impl RelData {
        fn from_tuples<'a>(tuples: impl Iterator<Item = &'a Tuple>, arity: usize) -> RelData {
            let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
            let mut len = 0;
            for t in tuples {
                for (c, v) in t.iter().enumerate() {
                    cols[c].push(v.clone());
                }
                len += 1;
            }
            RelData { cols, len }
        }
    }

    fn rel_data_of(rows: &[[i64; 2]]) -> RelData {
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::new(r.to_vec())).collect();
        RelData::from_tuples(tuples.iter(), 2)
    }

    #[test]
    fn dense_table_builds_for_small_int_ranges() {
        let data = rel_data_of(&[[1, 10], [2, 10], [1, 20], [3, 30]]);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "dense-key");
        assert_eq!(table.probe(&[Value::int(1)]).len(), 2);
        assert_eq!(table.probe(&[Value::int(3)]).len(), 1);
        assert!(table.probe(&[Value::int(99)]).is_empty());
        assert!(table.probe(&[Value::str("x")]).is_empty());
    }

    #[test]
    fn full_range_int_keys_fall_back_to_hash() {
        let data = rel_data_of(&[[i64::MIN, 0], [3, 0], [i64::MAX, 0]]);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(table.probe(&[Value::int(3)]).len(), 1);
        assert_eq!(table.probe(&[Value::int(i64::MIN)]).len(), 1);
        assert!(table.probe(&[Value::int(4)]).is_empty());
    }

    #[test]
    fn composite_dense_key_indexes_both_columns() {
        let data = rel_data_of(&[[1, 10], [2, 10], [1, 20]]);
        let table = JoinTable::build(data.len, 2, |r, c| data.value(c, r as u32));
        assert_eq!(table.kind(), "dense-key");
        assert_eq!(table.probe(&[Value::int(1), Value::int(10)]).len(), 1);
        assert_eq!(table.probe(&[Value::int(2), Value::int(20)]).len(), 0);
    }

    #[test]
    fn sparse_ranges_fall_back_to_hash() {
        let data = rel_data_of(&[[1, 0], [1_000_000_000, 0]]);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(table.probe(&[Value::int(1)]).len(), 1);
        assert_eq!(table.probe(&[Value::int(1_000_000_000)]).len(), 1);
        assert!(table.probe(&[Value::int(2)]).is_empty());
    }

    #[test]
    fn mixed_kind_columns_fall_back_to_hash() {
        let tuples = [
            Tuple(vec![Value::int(1)]),
            Tuple(vec![Value::Sym(0)]),
            Tuple(vec![Value::int(2)]),
        ];
        let data = RelData::from_tuples(tuples.iter(), 1);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert_eq!(table.probe(&[Value::Sym(0)]).len(), 1);
    }

    #[test]
    fn sym_columns_use_dense_tables() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["green"], ["blue"]])
                .unwrap(),
        );
        let data = RelData::from_relation(db.require("T").unwrap());
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "dense-key");
        let red = db.lookup_value(&Value::str("red"));
        assert_eq!(table.probe(&[red]).len(), 1);
        // An un-interned probe string can't match any stored symbol.
        assert!(table.probe(&[Value::str("red")]).is_empty());
    }

    /// A tiny xorshift generator: deterministic test keys, no crates.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn packed_probes_match_the_value_map_for_random_keys() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        // Sailor ids × boat ids with a sparse second column: 500 × 10⁶
        // slots, far too many for a dense array, well inside a `u64`.
        let rows: Vec<[i64; 2]> = (0..600)
            .map(|_| {
                let sid = (xorshift(&mut rng) % 500) as i64;
                let bid = (xorshift(&mut rng) % 1_000_000) as i64 - 500_000;
                [sid, bid]
            })
            .collect();
        let data = rel_data_of(&rows);
        let at = |r: usize, c: usize| data.value(c, r as u32);
        let packed = JoinTable::build(data.len, 2, at);
        assert!(matches!(packed, JoinTable::Packed { .. }));
        assert_eq!(packed.kind(), "hash", "the explain label is unchanged");
        let reference = JoinTable::hashed(data.len, 2, at);
        let mut probes: Vec<[Value; 2]> = Vec::new();
        for i in 0..2000 {
            let [sid, bid] = rows[xorshift(&mut rng) as usize % rows.len()];
            let noise = (xorshift(&mut rng) % 7) as i64 - 3;
            probes.push(match i % 5 {
                // Stored keys, and keys next to them (mostly misses).
                0 => [Value::int(sid), Value::int(bid)],
                1 => [Value::int(sid + noise), Value::int(bid - noise)],
                // Out of either column's range.
                2 => [Value::int(-1 - noise.abs()), Value::int(bid)],
                3 => [Value::int(sid), Value::int(i64::MAX - noise.abs())],
                // Keys of the wrong kind.
                _ => [Value::Sym(sid as u32), Value::str("x")],
            });
        }
        probes.push([Value::int(i64::MIN), Value::int(i64::MIN)]);
        let mut hits = 0;
        for key in &probes {
            let got = packed.probe(key);
            assert_eq!(got, reference.probe(key), "{key:?}");
            hits += usize::from(!got.is_empty());
        }
        assert!(hits >= 400, "every stored key hits: {hits}");
    }

    #[test]
    fn a_column_spanning_nearly_all_of_i64_packs_exactly() {
        // Span 2⁶⁴ − 1 still numbers into a `u64`; the offset of a key
        // below the minimum must wrap past it, not alias a slot.
        let data = rel_data_of(&[[i64::MIN + 1, 0], [0, 0], [i64::MAX, 0]]);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert!(matches!(table, JoinTable::Packed { .. }));
        for (v, n) in [
            (i64::MIN + 1, 1),
            (0, 1),
            (i64::MAX, 1),
            (i64::MIN, 0),
            (1, 0),
        ] {
            assert_eq!(table.probe(&[Value::int(v)]).len(), n, "{v}");
        }
    }

    #[test]
    fn empty_relations_build_hash_tables() {
        let data = RelData::from_tuples(std::iter::empty(), 2);
        let table = JoinTable::build(data.len, 1, |r, _| data.value(0, r as u32));
        assert_eq!(table.kind(), "hash");
        assert!(table.probe(&[Value::int(1)]).is_empty());
    }

    // -----------------------------------------------------------------
    // The per-snapshot columnar cache
    // -----------------------------------------------------------------

    /// A scan of `rel` binding tuple slot `slot`, probing column 0 by
    /// `key` when given (index slot 0) and scanning in full otherwise.
    fn scan(rel: &str, slot: usize, key: Option<Term>) -> Scan {
        let keyed = key.is_some();
        Scan {
            rel: rel.into(),
            tuple_slot: slot,
            key_cols: if keyed { vec![0] } else { Vec::new() },
            key_terms: key.into_iter().collect(),
            index_id: if keyed { 0 } else { FULL_SCAN },
            filters: Vec::new(),
            est_rows: None,
        }
    }

    /// The body `R(a, b), S(b)`, probing `S` by `b` through a join table.
    fn r_join_s() -> Block {
        Block {
            pre: Vec::new(),
            scans: vec![
                scan("R", 1, None),
                scan("S", 2, Some(Term::Col { slot: 1, col: 1 })),
            ],
        }
    }

    const SHAPE: EnvShape = EnvShape {
        tuple_slots: 3,
        indexes: 1,
    };

    /// `q(a) ← R(a, b), S(b)`.
    fn keyed_join() -> Plan {
        Plan::Union(vec![QueryPlan {
            out: TableSchema::new("q", ["a"]),
            head_slot: 0,
            root: r_join_s(),
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: SHAPE,
            est_rows: None,
        }])
    }

    /// String-valued `R(a, b)` and `S(b)`, so symbol ids matter.
    fn strings_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["a", "b"]),
                [["x1", "b1"], ["x1", "b2"], ["x2", "b1"], ["x3", "b3"]],
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(TableSchema::new("S", ["b"]), [["b1"], ["b2"]]).unwrap(),
        );
        db
    }

    /// `plan`'s one-column answer on `db`, resolved to strings.
    fn answer(plan: &Plan, db: &Database) -> Vec<Value> {
        let out = crate::exec::execute(plan, db).unwrap();
        db.resolve_relation(&out)
            .iter()
            .map(|t| t.get(0).clone())
            .collect()
    }

    fn strs(vs: &[&str]) -> Vec<Value> {
        vs.iter().map(|&v| Value::str(v)).collect()
    }

    fn cache_of(db: &Database, rel: &str) -> Arc<Columnar> {
        db.require(rel).unwrap().columnar()
    }

    fn row(v: &str) -> Tuple {
        Tuple::new([v])
    }

    #[test]
    fn snapshots_keep_their_cache_and_mutations_drop_it() {
        let plan = keyed_join();
        let a = strings_db();
        assert_eq!(answer(&plan, &a), strs(&["x1", "x2"]));
        let cached = cache_of(&a, "S");
        let mut b = a.clone();
        // A duplicate insert or an absent delete leaves the content, and
        // so the shared cache, as it was.
        assert_eq!(b.insert_rows("S", &[row("b1")]).unwrap(), 0);
        assert_eq!(b.delete_rows("S", &[row("b9")]).unwrap(), 0);
        assert!(Arc::ptr_eq(&cached, &cache_of(&b, "S")));

        assert_eq!(b.insert_rows("S", &[row("b3")]).unwrap(), 1);
        assert_eq!(answer(&plan, &b), strs(&["x1", "x2", "x3"]));
        assert_eq!(answer(&plan, &a), strs(&["x1", "x2"]));
        assert_eq!(b.delete_rows("S", &[row("b1")]).unwrap(), 1);
        assert_eq!(answer(&plan, &b), strs(&["x1", "x3"]));
        assert_eq!(answer(&plan, &a), strs(&["x1", "x2"]));

        // The older snapshot still holds the cache it built; the mutated
        // one built its own.
        assert!(Arc::ptr_eq(&cached, &cache_of(&a, "S")));
        assert!(!Arc::ptr_eq(&cached, &cache_of(&b, "S")));
        // An untouched relation stays shared between the snapshots.
        assert!(Arc::ptr_eq(&cache_of(&a, "R"), &cache_of(&b, "R")));
    }

    #[test]
    fn moving_a_relation_to_another_database_drops_its_cache() {
        let plan = keyed_join();
        let a = strings_db();
        let expected = answer(&plan, &a);
        let cached = cache_of(&a, "S");
        // Intern in another order first, so `c`'s symbol ids differ.
        let mut c = Database::new();
        c.add_relation(
            Relation::from_rows(TableSchema::new("U", ["x"]), [["b2"], ["x3"], ["b1"]]).unwrap(),
        );
        let mut raw = Database::uninterned();
        for rel in a.iter() {
            c.add_relation(rel.clone());
            raw.add_relation(rel.clone());
        }
        assert!(!Arc::ptr_eq(&cached, &cache_of(&c, "S")));
        assert!(!Arc::ptr_eq(&cached, &cache_of(&raw, "S")));
        assert_eq!(answer(&plan, &c), expected);
        assert_eq!(answer(&plan, &raw), expected);
        assert!(Arc::ptr_eq(&cached, &cache_of(&a, "S")));
    }

    #[test]
    fn thousands_of_scans_run_in_a_small_stack() {
        // q(a) ← T(a), T(a), …: 3000 scans of one pipeline, each probing
        // T by the first scan's value, on a thread whose stack could
        // not hold one native frame per scan.
        const SCANS: usize = 3000;
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["a"]), [[1i64], [2]]).unwrap());
        let mut scans = vec![scan("T", 1, None)];
        for k in 1..SCANS {
            let mut probe = scan("T", k + 1, Some(Term::Col { slot: 1, col: 0 }));
            probe.index_id = k - 1;
            scans.push(probe);
        }
        let plan = Plan::Union(vec![QueryPlan {
            out: TableSchema::new("q", ["a"]),
            head_slot: 0,
            root: Block {
                pre: Vec::new(),
                scans,
            },
            defs: vec![Term::Col { slot: 1, col: 0 }],
            deferred: Vec::new(),
            shape: EnvShape {
                tuple_slots: SCANS + 1,
                indexes: SCANS - 1,
            },
            est_rows: None,
        }]);
        let out = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || crate::exec::execute(&plan, &db).unwrap())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn concurrent_first_executions_build_one_cache() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("R", ["a", "b"]),
                (0..20_000i64).map(|i| [i, (i * 7919) % 5000]),
            )
            .unwrap(),
        );
        db.add_relation(
            Relation::from_rows(TableSchema::new("S", ["b"]), (0..5000i64).map(|i| [i * 3]))
                .unwrap(),
        );
        let db = Arc::new(db);
        let plan = Arc::new(keyed_join());
        let start = Arc::new(std::sync::Barrier::new(2));
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (db, plan, start) = (db.clone(), plan.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    crate::exec::execute(&plan, &db).unwrap()
                })
            })
            .collect();
        let results: Vec<Relation> = runs.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0], results[1]);
        // q(a) ← R(a, b), S(b) by a plain loop over the stored rows.
        let s_keys = db.require("S").unwrap();
        let mut expected = db.fresh_relation(TableSchema::new("q", ["a"]));
        for r in db.require("R").unwrap().iter() {
            if s_keys.contains(&Tuple(vec![r.get(1).clone()])) {
                expected.insert(Tuple(vec![r.get(0).clone()])).unwrap();
            }
        }
        assert!(!expected.is_empty());
        assert_eq!(results[0], expected);
        let (first, second) = (cache_of(&db, "S"), cache_of(&db, "S"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.tables.lock().unwrap().len(), 1);
        assert!(Arc::ptr_eq(&first.table(&[0]), &second.table(&[0])));
    }
}
