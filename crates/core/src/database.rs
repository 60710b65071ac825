//! Tuples, relation instances, and databases.
//!
//! Stored tuples are *interned*: string values entering a [`Database`]
//! (or a [`Relation`] attached to one) are swapped for `u32` symbols in
//! the database's [`SymbolTable`], so joins, projections, and set inserts
//! compare and copy machine words instead of heap strings. Resolution
//! back to [`Value::Str`] happens only at the edges — see
//! [`Database::resolve_relation`] and [`Relation::resolved`].

use crate::batch::Columnar;
use crate::error::{CoreError, CoreResult};
use crate::schema::{Catalog, TableSchema};
use crate::stats::TableStats;
use crate::symbol::SymbolTable;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A tuple: an ordered list of values. Attribute names live in the schema
/// (the "set-of-mappings" view of §3.1 is recovered by pairing a tuple with
/// its [`TableSchema`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Builds a tuple from anything convertible to values.
    pub fn new<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple(values.into_iter().map(Into::into).collect())
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Iterates over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// Concatenates two tuples (used by products/joins). With interned
    /// values this is a flat word copy — no heap strings are cloned.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }

    /// Projects the tuple onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Approximate in-memory size (enum slots plus string payloads).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>()
            + self.0.len() * std::mem::size_of::<Value>()
            + self.0.iter().map(Value::heap_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A relation instance: a schema plus a *set* of tuples.
///
/// `BTreeSet` enforces set semantics and gives deterministic iteration,
/// which keeps query evaluation, printing, and counterexample search
/// reproducible.
///
/// A relation stored in a [`Database`] carries a handle to the database's
/// symbol table: string values are interned on insert, and
/// [`Relation::resolved`] maps them back. Free-standing relations (query
/// results, literals under construction) have no handle and keep their
/// values as given.
///
/// Three values derived from the tuple set ride along, all shared by
/// clones and renames (same content) and built lazily: per-column
/// statistics ([`Relation::stats`]), the batch executor's columnar copy
/// with its join tables, and the content digest behind
/// [`Database::fingerprint`]. Because a database snapshot holds its
/// relations by `Arc`, every execution against one snapshot, on any
/// thread, reuses the same columnar copy; a copy-on-write mutation drops
/// it on the new snapshot only. The digest is never dropped: once built,
/// every insert and remove adjusts it by the one tuple's hash.
#[derive(Debug)]
pub struct Relation {
    schema: TableSchema,
    tuples: BTreeSet<Tuple>,
    symbols: Option<Arc<SymbolTable>>,
    /// `true` for relations *stored in* a database (inserting a new
    /// string interns it — the data write path); `false` for result
    /// relations built via [`Database::fresh_relation`], whose inserts
    /// only map strings already interned (an unknown query literal in an
    /// output head must not grow the shared table).
    intern_on_insert: bool,
    /// Lazily-built per-column statistics ([`Relation::stats`]): `None`
    /// until first read or after an invalidating mutation. Interior
    /// mutability lets planners materialize stats through the shared
    /// `&Database` snapshot; inserts keep a live cache current
    /// incrementally, deletes and re-interning invalidate it.
    stats: Mutex<Option<Arc<TableStats>>>,
    /// Lazily-built columnar copy and join tables for the batch
    /// executor ([`Relation::columnar`]): `None` until first read or
    /// after a mutation that changed the tuple set.
    columnar: Mutex<Option<Arc<Columnar>>>,
    /// The content digest: the wrapping sum of [`Relation::tuple_digest`]
    /// over the tuples. Unset until first read (result relations never
    /// pay for it); once set, [`Relation::insert`] adds and
    /// [`Relation::remove`] subtracts the tuple's hash. It hashes
    /// resolved values, so re-interning keeps it.
    digest: OnceLock<u64>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            symbols: self.symbols.clone(),
            intern_on_insert: self.intern_on_insert,
            stats: Mutex::new(self.stats.lock().expect("stats lock").clone()),
            columnar: Mutex::new(self.shared_columnar()),
            digest: self.digest.clone(),
        }
    }
}

impl Relation {
    /// An empty instance of `schema`.
    pub fn empty(schema: TableSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
            symbols: None,
            intern_on_insert: false,
            stats: Mutex::new(None),
            columnar: Mutex::new(None),
            digest: OnceLock::new(),
        }
    }

    /// Builds a relation from rows, checking arity.
    pub fn from_rows<V, R, I>(schema: TableSchema, rows: I) -> CoreResult<Self>
    where
        V: Into<Value>,
        R: IntoIterator<Item = V>,
        I: IntoIterator<Item = R>,
    {
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.insert(Tuple::new(row))?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The relation's name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The symbol table this relation interns into, if attached.
    pub fn symbols(&self) -> Option<&Arc<SymbolTable>> {
        self.symbols.as_ref()
    }

    /// Attaches `symbols` and re-interns the stored tuples against it.
    /// Called by [`Database::add_relation`]; a relation moving between
    /// databases is resolved out of its old table first, so ids never
    /// leak across tables.
    pub(crate) fn attach_symbols(&mut self, symbols: Arc<SymbolTable>) {
        // Re-interning may change the stored representation (`Str` ↔
        // `Sym`), which changes sketch hashes — rebuild lazily.
        *self.stats.get_mut().expect("stats lock") = None;
        self.drop_columnar();
        if let Some(old) = &self.symbols {
            if Arc::ptr_eq(old, &symbols) {
                // Same table (e.g. a result materialized back into its
                // own database): from now on it stores data, so new
                // strings intern again. Any raw Str literals it carries
                // are interned by the pass below.
                self.intern_on_insert = true;
                if self
                    .tuples
                    .iter()
                    .any(|t| t.iter().any(|v| matches!(v, Value::Str(_))))
                {
                    let old = old.clone();
                    self.tuples = self
                        .tuples
                        .iter()
                        .map(|t| intern_tuple_with(t, &old))
                        .collect();
                }
                return;
            }
            // Re-home: resolve through the old table before re-interning.
            let old = old.clone();
            self.tuples = self
                .tuples
                .iter()
                .map(|t| resolve_tuple_with(t, &old))
                .collect();
        }
        if self
            .tuples
            .iter()
            .any(|t| t.iter().any(|v| matches!(v, Value::Str(_))))
        {
            self.tuples = self
                .tuples
                .iter()
                .map(|t| intern_tuple_with(t, &symbols))
                .collect();
        }
        self.symbols = Some(symbols);
        self.intern_on_insert = true;
    }

    /// Resolves the stored tuples out of the attached table (if any) and
    /// detaches it, leaving raw `Str` values — the representation of
    /// [`Database::uninterned`].
    pub(crate) fn detach_resolved(&mut self) {
        *self.stats.get_mut().expect("stats lock") = None;
        self.drop_columnar();
        if let Some(symbols) = self.symbols.take() {
            self.tuples = self
                .tuples
                .iter()
                .map(|t| resolve_tuple_with(t, &symbols))
                .collect();
        }
        self.intern_on_insert = false;
    }

    /// Inserts a tuple, checking arity and interning string values when a
    /// symbol table is attached. Returns `Ok(true)` if it was new.
    ///
    /// **Contract:** any [`Value::Sym`] in `tuple` must have been handed
    /// out by *this* relation's attached table (true for everything built
    /// from this database's tuples — evaluator results, projections).
    /// When copying tuples from another database, resolve them first
    /// ([`Database::resolve_tuple`]) so their strings re-intern here;
    /// whole relations re-home automatically via
    /// [`Database::add_relation`].
    pub fn insert(&mut self, tuple: Tuple) -> CoreResult<bool> {
        if tuple.arity() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        // Hashed as given: a `Str` needs no resolving.
        let hash = self.digest.get().map(|_| self.tuple_digest(&tuple));
        let tuple = match &self.symbols {
            Some(symbols) if tuple.iter().any(|v| matches!(v, Value::Str(_))) => {
                if self.intern_on_insert {
                    intern_tuple_with(&tuple, symbols)
                } else {
                    // Result relation: map known strings to their symbol,
                    // keep unknown literals as Str (never grow the table).
                    lookup_tuple_with(&tuple, symbols)
                }
            }
            _ => tuple,
        };
        {
            // Keep a live stats cache current: observe fresh tuples
            // incrementally. When no cache is materialized (bulk load,
            // result relations) this is one uncontended lock + a `None`
            // check — the first planner read builds stats in one scan.
            let mut cached = self.stats.lock().expect("stats lock");
            if let Some(st) = cached.as_mut() {
                if !self.tuples.contains(&tuple) {
                    Arc::make_mut(st).observe(&tuple);
                }
            }
        }
        let new = self.tuples.insert(tuple);
        if new {
            self.drop_columnar();
            if let (Some(&sum), Some(hash)) = (self.digest.get(), hash) {
                self.digest = OnceLock::from(sum.wrapping_add(hash));
            }
        }
        Ok(new)
    }

    /// Convenience: insert a row of values.
    pub fn insert_values<V: Into<Value>, I: IntoIterator<Item = V>>(
        &mut self,
        row: I,
    ) -> CoreResult<bool> {
        self.insert(Tuple::new(row))
    }

    /// `true` if the tuple is present. `Str` probes are mapped through
    /// the attached table so the edge representation matches — via
    /// *lookup only*: an unknown string cannot be stored, so the probe
    /// answers `false` without growing the shared table.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        match &self.symbols {
            Some(symbols) if tuple.iter().any(|v| matches!(v, Value::Str(_))) => {
                self.tuples.contains(&lookup_tuple_with(tuple, symbols))
            }
            _ => self.tuples.contains(tuple),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over tuples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The underlying tuple set.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.tuples
    }

    /// Iterates the relation as fixed-size *column chunks*: each item
    /// covers up to `chunk_rows` consecutive tuples (in deterministic
    /// set order), transposed into one `Vec<Value>` per attribute. This
    /// is the scan feed of the vectorized executor — columnar layout
    /// with bounded working-set size — but is public API usable by any
    /// column-at-a-time consumer.
    pub fn column_chunks(&self, chunk_rows: usize) -> impl Iterator<Item = Vec<Vec<Value>>> + '_ {
        let chunk_rows = chunk_rows.max(1);
        let arity = self.schema.arity();
        let mut iter = self.tuples.iter().peekable();
        std::iter::from_fn(move || {
            iter.peek()?;
            let mut cols: Vec<Vec<Value>> =
                (0..arity).map(|_| Vec::with_capacity(chunk_rows)).collect();
            for t in iter.by_ref().take(chunk_rows) {
                for (c, v) in t.iter().enumerate() {
                    cols[c].push(v.clone());
                }
            }
            Some(cols)
        })
    }

    /// This relation with interned symbols resolved back to strings
    /// (through the attached table), re-sorted under the plain string
    /// order. Free-standing relations are returned as-is.
    pub fn resolved(&self) -> Relation {
        match &self.symbols {
            None => self.clone(),
            Some(symbols) => Relation {
                schema: self.schema.clone(),
                tuples: self
                    .tuples
                    .iter()
                    .map(|t| resolve_tuple_with(t, symbols))
                    .collect(),
                symbols: None,
                intern_on_insert: false,
                stats: Mutex::new(None),
                columnar: Mutex::new(None),
                digest: OnceLock::new(),
            },
        }
    }

    /// Removes a tuple; like [`Relation::contains`], `Str` probes are
    /// mapped through the attached table via *lookup only*, so deleting
    /// an unknown string answers `false` without growing the shared
    /// table. Returns `true` if the tuple was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let removed = match &self.symbols {
            Some(symbols) if tuple.iter().any(|v| matches!(v, Value::Str(_))) => {
                self.tuples.remove(&lookup_tuple_with(tuple, symbols))
            }
            _ => self.tuples.remove(tuple),
        };
        if removed {
            // Sketches and ranges cannot unobserve — invalidate and let
            // the next planner read rebuild in one scan.
            *self.stats.get_mut().expect("stats lock") = None;
            self.drop_columnar();
            if let Some(&sum) = self.digest.get() {
                self.digest = OnceLock::from(sum.wrapping_sub(self.tuple_digest(tuple)));
            }
        }
        removed
    }

    /// Per-column statistics over the current tuple set: row count,
    /// distinct-value sketches, and `Int` min/max per attribute.
    ///
    /// Built lazily on first call (one scan) and cached; inserts through
    /// [`Relation::insert`] keep the cache current incrementally, while
    /// deletes and symbol re-attachment invalidate it. The returned
    /// `Arc` is a consistent snapshot — later mutations don't alter it.
    pub fn stats(&self) -> Arc<TableStats> {
        let mut cached = self.stats.lock().expect("stats lock");
        if cached.is_none() {
            *cached = Some(Arc::new(TableStats::of(
                self.schema.arity(),
                self.tuples.iter(),
            )));
        }
        cached.as_ref().expect("just built").clone()
    }

    /// The batch executor's columnar copy of the current tuple set and
    /// the join tables over it. Built on first call, under the lock, so
    /// concurrent first readers build it once; dropped by any mutation
    /// that changes the tuple set. The lock is taken poison-tolerantly:
    /// a cache entry is either whole or absent.
    pub(crate) fn columnar(&self) -> Arc<Columnar> {
        let mut cached = self.columnar.lock().unwrap_or_else(PoisonError::into_inner);
        cached
            .get_or_insert_with(|| Arc::new(Columnar::of(self)))
            .clone()
    }

    /// The columnar cache as it stands (for a clone or rename, which
    /// holds the same content and so may share it).
    fn shared_columnar(&self) -> Option<Arc<Columnar>> {
        self.columnar
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Forgets the columnar cache after the tuple set changed. Other
    /// snapshots sharing it keep theirs.
    fn drop_columnar(&mut self) {
        *self
            .columnar
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// The content digest (see the `digest` field), built in one pass on
    /// first call.
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            self.tuples
                .iter()
                .fold(0u64, |sum, t| sum.wrapping_add(self.tuple_digest(t)))
        })
    }

    /// One tuple's hash over its resolved values: a `Sym` hashes as the
    /// string it stands for, exactly like the `Str` it was interned
    /// from, so the digest depends on neither interning order nor
    /// representation. (A `Sym` with no table to resolve it through
    /// hashes as its id.)
    fn tuple_digest(&self, tuple: &Tuple) -> u64 {
        let mut h = DefaultHasher::new();
        for v in tuple.iter() {
            match (v, &self.symbols) {
                (Value::Int(i), _) => (0u8, i).hash(&mut h),
                (Value::Str(s), _) => (1u8, s.as_str()).hash(&mut h),
                (Value::Sym(id), Some(symbols)) => (1u8, &*symbols.resolve(*id)).hash(&mut h),
                (Value::Sym(id), None) => (2u8, id).hash(&mut h),
            }
        }
        h.finish()
    }

    /// Approximate in-memory size of the tuple set — the weight used by
    /// size-aware cache admission.
    pub fn approx_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::approx_bytes).sum()
    }

    /// Returns this relation under a new schema name (arity must match).
    pub fn renamed(&self, new_schema: TableSchema) -> CoreResult<Relation> {
        if new_schema.arity() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                table: new_schema.name().to_string(),
                expected: new_schema.arity(),
                actual: self.schema.arity(),
            });
        }
        Ok(Relation {
            schema: new_schema,
            tuples: self.tuples.clone(),
            symbols: self.symbols.clone(),
            intern_on_insert: self.intern_on_insert,
            // Same tuple set, so the cached stats, columnar copy and
            // digest stay valid.
            stats: Mutex::new(self.stats.lock().expect("stats lock").clone()),
            columnar: Mutex::new(self.shared_columnar()),
            digest: self.digest.clone(),
        })
    }
}

/// Equality is *content* equality: schemas match and the tuple sets hold
/// the same values once symbols are resolved. Relations attached to the
/// same table (or to none) compare raw — ids are content there.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.tuples.len() != other.tuples.len() {
            return false;
        }
        let same_table = match (&self.symbols, &other.symbols) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if same_table {
            self.tuples == other.tuples
        } else {
            self.resolved().tuples == other.resolved().tuples
        }
    }
}

impl Eq for Relation {}

/// Rejects a mutation batch whose rows don't all match the schema arity
/// — checked up front so a failed batch leaves the relation untouched.
fn check_batch_arity(table: &str, expected: usize, rows: &[Tuple]) -> CoreResult<()> {
    match rows.iter().find(|row| row.arity() != expected) {
        Some(bad) => Err(CoreError::ArityMismatch {
            table: table.to_string(),
            expected,
            actual: bad.arity(),
        }),
        None => Ok(()),
    }
}

fn intern_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Str(s) => Value::Sym(symbols.intern(s)),
                other => other.clone(),
            })
            .collect(),
    )
}

/// Maps `Str` values to their symbol when one exists; unknown strings
/// stay `Str` (the result-relation insert path — see
/// [`Relation::insert`]).
fn lookup_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Str(s) => match symbols.lookup(s) {
                    Some(id) => Value::Sym(id),
                    None => v.clone(),
                },
                other => other.clone(),
            })
            .collect(),
    )
}

fn resolve_tuple_with(t: &Tuple, symbols: &SymbolTable) -> Tuple {
    Tuple(
        t.iter()
            .map(|v| match v {
                Value::Sym(id) => Value::Str(symbols.resolve(*id).to_string()),
                other => other.clone(),
            })
            .collect(),
    )
}

/// A database: a set of relation instances, keyed by table name, plus the
/// symbol table their string values are interned into.
///
/// Relations are held behind `Arc`s, so cloning a database is cheap —
/// one pointer copy per relation — and the single-relation mutation
/// methods ([`Database::insert_rows`], [`Database::delete_rows`],
/// [`Database::create_table`]) are copy-on-write: only the touched
/// relation's tuple set is actually cloned; every other relation stays
/// shared with the source snapshot. This is what makes per-mutation
/// epochs affordable for a service.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
    symbols: Arc<SymbolTable>,
    interning: bool,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            relations: BTreeMap::new(),
            symbols: Arc::new(SymbolTable::new()),
            interning: true,
        }
    }
}

impl Database {
    /// An empty database (interning enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database with interning *disabled*: string values are
    /// stored as raw `Value::Str`. This is the reference representation
    /// used by differential tests — slower, but with no id indirection.
    pub fn uninterned() -> Self {
        Database {
            interning: false,
            ..Database::default()
        }
    }

    /// A database with an empty instance for every table in `catalog`.
    pub fn empty_for(catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for schema in catalog.iter() {
            db.add_relation(Relation::empty(schema.clone()));
        }
        db
    }

    /// The database's symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// `true` unless this database was built with [`Database::uninterned`].
    pub fn interning_enabled(&self) -> bool {
        self.interning
    }

    /// Adds (or replaces) a relation. With interning enabled the
    /// relation's string values are interned into this database's symbol
    /// table and further inserts through it intern too.
    pub fn add_relation(&mut self, mut relation: Relation) {
        if self.interning {
            relation.attach_symbols(self.symbols.clone());
        } else {
            // The reference representation stores raw strings only; a
            // relation arriving from an interned database is resolved
            // out of its old table (its ids mean nothing here).
            relation.detach_resolved();
        }
        self.relations
            .insert(relation.name().to_string(), Arc::new(relation));
    }

    /// Creates an empty table; errors if the name is already taken (a
    /// durable mutation must not silently drop existing data).
    pub fn create_table(&mut self, schema: TableSchema) -> CoreResult<()> {
        if self.relations.contains_key(schema.name()) {
            return Err(CoreError::DuplicateTable(schema.name().to_string()));
        }
        self.add_relation(Relation::empty(schema));
        Ok(())
    }

    /// Inserts `rows` (edge `Int`/`Str` representation) into `table` by
    /// copy-on-write: if the relation is shared with another database
    /// snapshot it is cloned once, all other relations stay shared.
    /// Arity is validated for the whole batch before anything is
    /// touched. Returns how many rows were actually new (set
    /// semantics: duplicates don't count).
    pub fn insert_rows(&mut self, table: &str, rows: &[Tuple]) -> CoreResult<usize> {
        let rel = self
            .relations
            .get_mut(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        check_batch_arity(table, rel.schema().arity(), rows)?;
        let rel = Arc::make_mut(rel);
        let mut applied = 0;
        for row in rows {
            if rel.insert(row.clone())? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Removes `rows` from `table` by copy-on-write (see
    /// [`Database::insert_rows`]). Returns how many rows were actually
    /// present and removed; deleting an absent row is a no-op, not an
    /// error.
    pub fn delete_rows(&mut self, table: &str, rows: &[Tuple]) -> CoreResult<usize> {
        let rel = self
            .relations
            .get_mut(table)
            .ok_or_else(|| CoreError::UnknownTable(table.to_string()))?;
        check_batch_arity(table, rel.schema().arity(), rows)?;
        let rel = Arc::make_mut(rel);
        Ok(rows.iter().filter(|row| rel.remove(row)).count())
    }

    /// An empty relation attached to this database's symbol table — the
    /// constructor for *result* relations. Evaluators build their output
    /// through this so a result's interned values stay interpretable on
    /// their own: rendering resolves, content equality resolves, and
    /// adding the result to another database re-homes the ids instead of
    /// silently reinterpreting them against the wrong table.
    pub fn fresh_relation(&self, schema: TableSchema) -> Relation {
        let mut rel = Relation::empty(schema);
        if self.interning {
            rel.symbols = Some(self.symbols.clone());
        }
        rel
    }

    /// Interns a single edge value against this database: `Str` becomes
    /// `Sym` (identity for everything else, and on uninterned databases).
    /// This *appends* to the symbol table — it is the write path for data
    /// entering the database; query constants go through
    /// [`Database::lookup_value`] instead.
    pub fn intern_value(&self, v: &Value) -> Value {
        match v {
            Value::Str(s) if self.interning => Value::Sym(self.symbols.intern(s)),
            other => other.clone(),
        }
    }

    /// Maps a query constant to the stored representation *without*
    /// growing the symbol table: a string already interned becomes its
    /// `Sym`; an unknown string stays `Str` — no stored tuple of this
    /// snapshot can hold a symbol for it, so equality against stored
    /// values is correctly always-false and order comparisons resolve
    /// by text ([`CmpOp::eval_resolved`](crate::CmpOp::eval_resolved)).
    /// Evaluators call this once per constant at compile time; routing
    /// them through `intern_value` instead would let clients grow the
    /// shared table without bound (one entry per distinct literal ever
    /// queried).
    pub fn lookup_value(&self, v: &Value) -> Value {
        match v {
            Value::Str(s) if self.interning => match self.symbols.lookup(s) {
                Some(id) => Value::Sym(id),
                None => v.clone(),
            },
            other => other.clone(),
        }
    }

    /// Resolves one value: `Sym` back to `Str` (identity otherwise).
    pub fn resolve_value(&self, v: &Value) -> Value {
        match v {
            Value::Sym(id) => Value::Str(self.symbols.resolve(*id).to_string()),
            other => other.clone(),
        }
    }

    /// Resolves every value of a tuple.
    pub fn resolve_tuple(&self, t: &Tuple) -> Tuple {
        resolve_tuple_with(t, &self.symbols)
    }

    /// Resolves a relation (typically a query result over this database)
    /// back to the string representation, re-sorted under the plain
    /// `Int < Str` order — the edge format for printing and the wire.
    pub fn resolve_relation(&self, rel: &Relation) -> Relation {
        Relation {
            schema: rel.schema.clone(),
            tuples: rel.tuples.iter().map(|t| self.resolve_tuple(t)).collect(),
            symbols: None,
            intern_on_insert: false,
            stats: Mutex::new(None),
            columnar: Mutex::new(None),
            digest: OnceLock::new(),
        }
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|r| r.as_ref())
    }

    /// Looks up a relation or returns an error.
    pub fn require(&self, name: &str) -> CoreResult<&Relation> {
        self.relation(name)
            .ok_or_else(|| CoreError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup (copy-on-write: a relation shared with another
    /// database snapshot is cloned first). The relation keeps its
    /// symbol-table attachment, so inserts through it still intern.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Iterates over relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(|r| r.as_ref())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` if the database stores no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The catalog implied by this database's schemas.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for r in self.relations.values() {
            // Names are unique by construction of the BTreeMap.
            c.add(r.schema().clone()).expect("unique by map key");
        }
        c
    }

    /// The active domain: every value appearing in any relation, in the
    /// stored (interned) representation and order. Extend with query
    /// constants before using it for domain-closure arguments (the
    /// classic safety construction, Ullman \[77\]).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                dom.extend(t.iter().cloned());
            }
        }
        dom
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// A 64-bit content fingerprint: two databases with the same schemas
    /// and (resolved) tuple sets hash equal, regardless of interning
    /// order or representation. It hashes each relation's schema,
    /// cardinality and content digest, in name order; a digest is built
    /// once per relation and kept current by every insert and remove, so
    /// fingerprinting a snapshot after a mutation costs O(#relations).
    /// It lets a service tell database versions apart; it is not a
    /// persistent checksum.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.relations.len().hash(&mut h);
        for rel in self.relations.values() {
            rel.schema().hash(&mut h);
            rel.len().hash(&mut h);
            rel.digest().hash(&mut h);
        }
        h.finish()
    }
}

/// Content equality over the relation map (delegates to the resolving
/// [`Relation`] equality); the symbol table itself is representation, not
/// content.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.relations == other.relations
    }
}

impl Eq for Database {}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            writeln!(f, "{}", crate::pretty::render_relation(rel))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_rows(
            TableSchema::new("R", ["A", "B"]),
            [[1i64, 2], [1, 3], [2, 2]],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_dedups() {
        let mut r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.insert_values([1i64, 2]).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn arity_checked() {
        let mut r = sample();
        assert!(matches!(
            r.insert_values([1i64]),
            Err(CoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn tuple_ops() {
        let t = Tuple::new([1i64, 2, 3]);
        let u = Tuple::new([4i64]);
        assert_eq!(t.concat(&u), Tuple::new([1i64, 2, 3, 4]));
        assert_eq!(t.project(&[2, 0]), Tuple::new([3i64, 1]));
        assert_eq!(t.to_string(), "(1, 2, 3)");
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut db = Database::new();
        db.add_relation(sample());
        db.add_relation(Relation::from_rows(TableSchema::new("S", ["B"]), [[9i64]]).unwrap());
        let dom: Vec<Value> = db.active_domain().into_iter().collect();
        assert_eq!(
            dom,
            vec![Value::int(1), Value::int(2), Value::int(3), Value::int(9)]
        );
    }

    #[test]
    fn database_catalog_roundtrip() {
        let mut db = Database::new();
        db.add_relation(sample());
        let cat = db.catalog();
        assert_eq!(cat.require("R").unwrap().attrs(), ["A", "B"]);
    }

    #[test]
    fn empty_for_catalog() {
        let cat =
            Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["B"])])
                .unwrap();
        let db = Database::empty_for(&cat);
        assert_eq!(db.len(), 2);
        assert!(db.require("R").unwrap().is_empty());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = Database::new();
        a.add_relation(sample());
        let mut b = Database::new();
        b.add_relation(sample());
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.relation_mut("R")
            .unwrap()
            .insert_values([9i64, 9])
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Schema-only differences also show up.
        let mut c = Database::new();
        c.add_relation(Relation::empty(TableSchema::new("R", ["A", "B"])));
        let mut d = Database::new();
        d.add_relation(Relation::empty(TableSchema::new("R", ["A", "C"])));
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_interning_order() {
        // Same content, interned in different id orders ('red' gets id 0
        // in a, id 1 in c), must fingerprint and compare equal.
        let mut a = Database::new();
        a.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["green"]]).unwrap(),
        );
        let mut c = Database::new();
        c.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["green"], ["red"]]).unwrap(),
        );
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(a, c);
    }

    #[test]
    fn lookup_value_never_grows_the_table() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        assert_eq!(db.symbols().len(), 1);
        // Known strings map to their symbol; unknown ones stay Str and
        // do NOT get interned (query literals must not leak memory).
        assert!(db.lookup_value(&Value::str("red")).is_sym());
        assert_eq!(db.lookup_value(&Value::str("nope")), Value::str("nope"));
        assert_eq!(db.symbols().len(), 1);
    }

    #[test]
    fn result_relations_never_intern_unknown_literals() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        assert_eq!(db.symbols().len(), 1);
        // A result relation (what evaluators build): inserting a tuple
        // with an unknown head literal must NOT grow the shared table.
        let mut result = db.fresh_relation(TableSchema::new("q", ["x", "tag"]));
        result
            .insert(Tuple::new(vec![Value::str("red"), Value::str("tag-1")]))
            .unwrap();
        assert_eq!(db.symbols().len(), 1, "unknown literal must stay Str");
        let t = result.iter().next().unwrap();
        assert!(t.get(0).is_sym(), "known string maps to its symbol");
        assert_eq!(t.get(1), &Value::str("tag-1"));
        // Resolution still restores the full string view.
        let resolved = result.resolved();
        let t = resolved.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("red"));
        // Materializing the result as a table upgrades it to the data
        // path: the raw literal is interned at attach.
        db.add_relation(result.renamed(TableSchema::new("Q", ["x", "tag"])).unwrap());
        assert_eq!(db.symbols().len(), 2);
        let t = db.require("Q").unwrap().iter().next().unwrap();
        assert!(t.iter().all(|v| !matches!(v, Value::Str(_))));
    }

    #[test]
    fn uninterned_add_relation_resolves_foreign_syms() {
        let mut interned = Database::new();
        interned
            .add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        let mut raw = Database::uninterned();
        raw.add_relation(interned.require("T").unwrap().clone());
        let t = raw.require("T").unwrap().iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("red"));
        // fingerprint/resolve must not panic on foreign ids.
        assert_eq!(raw.fingerprint(), interned.fingerprint());
        assert_eq!(raw, interned);
    }

    #[test]
    fn interning_swaps_strings_for_syms_and_resolves_back() {
        let mut db = Database::new();
        db.add_relation(
            Relation::from_rows(
                TableSchema::new("Boat", ["bid", "color"]),
                [
                    vec![Value::int(101), Value::str("red")],
                    vec![Value::int(102), Value::str("green")],
                ],
            )
            .unwrap(),
        );
        let rel = db.require("Boat").unwrap();
        // Stored values are ints and symbols, never raw strings.
        for t in rel.iter() {
            assert!(t.iter().all(|v| !matches!(v, Value::Str(_))));
        }
        // Inserts through relation_mut keep interning.
        db.relation_mut("Boat")
            .unwrap()
            .insert_values(vec![Value::int(103), Value::str("red")])
            .unwrap();
        assert_eq!(db.symbols().len(), 2, "'red' interned once");
        // Resolution restores the string view.
        let resolved = db.require("Boat").unwrap().resolved();
        assert!(resolved
            .iter()
            .any(|t| t.get(1) == &Value::str("green") && t.get(0) == &Value::int(102)));
        assert_eq!(resolved.len(), 3);
        // contains() accepts the edge (Str) representation, and probing
        // with unknown strings answers false without growing the table.
        assert!(db
            .require("Boat")
            .unwrap()
            .contains(&Tuple::new(vec![Value::int(101), Value::str("red")])));
        let before = db.symbols().len();
        assert!(!db.require("Boat").unwrap().contains(&Tuple::new(vec![
            Value::int(101),
            Value::str("never-stored")
        ])));
        assert_eq!(db.symbols().len(), before);
    }

    #[test]
    fn uninterned_database_keeps_raw_strings() {
        let mut db = Database::uninterned();
        db.add_relation(
            Relation::from_rows(TableSchema::new("T", ["a"]), [[Value::str("x")]]).unwrap(),
        );
        let t = db.require("T").unwrap().iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("x"));
        assert_eq!(db.symbols().len(), 0);
        assert_eq!(db.intern_value(&Value::str("x")), Value::str("x"));
    }

    #[test]
    fn content_equality_across_interning_orders() {
        // An interned and an uninterned database with the same content
        // compare equal (resolving comparison).
        let rows = || {
            Relation::from_rows(
                TableSchema::new("T", ["a"]),
                [[Value::str("b")], [Value::str("a")]],
            )
            .unwrap()
        };
        let mut interned = Database::new();
        interned.add_relation(rows());
        let mut raw = Database::uninterned();
        raw.add_relation(rows());
        assert_eq!(interned, raw);
        raw.relation_mut("T")
            .unwrap()
            .insert_values([Value::str("c")])
            .unwrap();
        assert_ne!(interned, raw);
    }

    #[test]
    fn renamed_relation_keeps_tuples() {
        let r = sample();
        let r2 = r.renamed(TableSchema::new("R_1", ["A", "B"])).unwrap();
        assert_eq!(r2.name(), "R_1");
        assert_eq!(r2.len(), 3);
        assert!(r.renamed(TableSchema::new("X", ["A"])).is_err());
    }

    #[test]
    fn insert_and_delete_rows_apply_copy_on_write() {
        let mut base = Database::new();
        base.add_relation(sample());
        base.add_relation(Relation::from_rows(TableSchema::new("S", ["B"]), [[9i64]]).unwrap());
        let mut next = base.clone();
        assert_eq!(
            next.insert_rows("R", &[Tuple::new([7i64, 7]), Tuple::new([1i64, 2])])
                .unwrap(),
            1,
            "duplicate row doesn't count"
        );
        assert_eq!(next.delete_rows("R", &[Tuple::new([2i64, 2])]).unwrap(), 1);
        assert_eq!(
            next.delete_rows("R", &[Tuple::new([5i64, 5])]).unwrap(),
            0,
            "absent row is a no-op"
        );
        // The source snapshot is untouched; the shared relation stays
        // literally shared (copy-on-write touched only R).
        assert_eq!(base.require("R").unwrap().len(), 3);
        assert_eq!(next.require("R").unwrap().len(), 3);
        assert!(next.require("R").unwrap().contains(&Tuple::new([7i64, 7])));
        assert!(Arc::ptr_eq(
            base.relations.get("S").unwrap(),
            next.relations.get("S").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            base.relations.get("R").unwrap(),
            next.relations.get("R").unwrap()
        ));
    }

    #[test]
    fn batch_arity_is_checked_before_any_row_lands() {
        let mut db = Database::new();
        db.add_relation(sample());
        let err = db.insert_rows("R", &[Tuple::new([8i64, 8]), Tuple::new([9i64])]);
        assert!(matches!(err, Err(CoreError::ArityMismatch { .. })));
        assert_eq!(db.require("R").unwrap().len(), 3, "failed batch is atomic");
        assert!(matches!(
            db.insert_rows("Nope", &[Tuple::new([1i64])]),
            Err(CoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn delete_accepts_edge_strings_and_create_table_rejects_duplicates() {
        let mut db = Database::new();
        db.add_relation(Relation::from_rows(TableSchema::new("T", ["x"]), [["red"]]).unwrap());
        // Deleting by the edge (Str) representation maps through the
        // table; an unknown string can't match and mustn't intern.
        let before = db.symbols().len();
        assert_eq!(
            db.delete_rows("T", &[Tuple::new([Value::str("nope")])])
                .unwrap(),
            0
        );
        assert_eq!(db.symbols().len(), before);
        assert_eq!(
            db.delete_rows("T", &[Tuple::new([Value::str("red")])])
                .unwrap(),
            1
        );
        assert!(db.require("T").unwrap().is_empty());
        db.create_table(TableSchema::new("U", ["y"])).unwrap();
        assert!(db.require("U").unwrap().is_empty());
        assert!(matches!(
            db.create_table(TableSchema::new("T", ["z"])),
            Err(CoreError::DuplicateTable(_))
        ));
    }

    #[test]
    fn relation_rehomes_across_databases() {
        let mut a = Database::new();
        a.add_relation(
            Relation::from_rows(TableSchema::new("T", ["x"]), [["red"], ["blue"]]).unwrap(),
        );
        let mut b = Database::new();
        // Force a different id order in b's table.
        b.add_relation(Relation::from_rows(TableSchema::new("U", ["y"]), [["blue"]]).unwrap());
        // Moving T from a to b re-interns against b's table.
        b.add_relation(a.require("T").unwrap().clone());
        let t = b.require("T").unwrap().resolved();
        assert!(t.iter().any(|r| r.get(0) == &Value::str("red")));
        assert!(t.iter().any(|r| r.get(0) == &Value::str("blue")));
        assert_eq!(a.require("T").unwrap(), b.require("T").unwrap());
    }
}
