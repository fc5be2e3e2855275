//! In-memory table storage: a frozen base shared by every fork, plus a
//! per-table delta holding what one fork wrote.
//!
//! Every cell of an experiment starts its master and slaves from one
//! pre-loaded template. [`Table::freeze`] *moves* the template's rows and
//! indexes into a base behind an `Arc`; a clone then bumps that `Arc` and
//! starts an empty delta: rows inserted since (row id ≥ the base length), a
//! delta pk index, delta secondary indexes of the same names and columns (an
//! index created after the freeze lives only there), and a `shadow` map of
//! base rows overwritten since — `Some` for an updated or restored row,
//! which the delta then indexes, `None` for a deleted one. Reads probe the
//! delta, then the base, dropping base hits on shadowed rows (no check while
//! the shadow is empty, as under every Cloudstone workload).
//!
//! Two rules hold. **The base is shared, never copied**: a fork, a write and
//! a drop touch only the delta. **Scan and posting order are unchanged**:
//! scans run in row-id order with shadowed rows substituted, and an index
//! lists its unshadowed base postings, then its delta postings — the order an
//! unfrozen table's remove-then-append index maintenance leaves. An unfrozen
//! table is one whose base is empty.
//!
//! Row ids are dense and monotone, so each row heap is a `Vec` of slots
//! addressed directly by id. Primary keys on INT or TIMESTAMP columns (every
//! table the Cloudstone workload creates) go
//! through `IntMap`, a fixed-seed open-addressing `i64 → rid` map whose
//! probe is one multiply, a shift and a compare — no `Value` clone, no
//! canonicalization, no hasher state. Non-integer primary keys and all
//! secondary indexes use ordered `BTreeMap`s keyed by `index_cmp`; those
//! trees are small and cache-hot here, and a general `HashMap`-over-`Value`
//! design measured 35–45% slower end-to-end because per-probe key cloning
//! and multi-word hashing cost more than the whole short B-tree descent.

use crate::error::SqlError;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// One row-heap slot: a shared row image, or `None` after a delete (ids are
/// never reused, keeping scan order stable and fingerprints reproducible).
type Slot = Option<Arc<[Value]>>;

/// Internal row identifier (stable across updates, unique per table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

/// An index key: a [`Value`] with the total `index_cmp` ordering.
#[derive(Debug, Clone)]
pub struct Key(pub Value);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.index_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.index_cmp(&other.0)
    }
}

/// Sentinel rid marking an empty [`IntMap`] slot (row ids are dense counters
/// and can never reach `u64::MAX`).
const INT_EMPTY: u64 = u64::MAX;

/// Fixed-seed open-addressing map from `i64` primary keys to row ids.
///
/// This is the hot index of the whole simulator: every indexed predicate the
/// Cloudstone workload issues is an equality on an INT/TIMESTAMP primary
/// key. A probe is one Fibonacci multiply, a shift, and a short linear scan
/// over a flat `(key, rid)` slot array. Determinism: the layout depends only
/// on the insert/delete history (fixed multiplier, no per-process seed), so
/// `fork`ed replicas behave identically.
#[derive(Debug, Clone)]
struct IntMap {
    /// `(key, rid)` slots; `rid == INT_EMPTY` marks a free slot. The length
    /// is always a power of two.
    slots: Box<[(i64, u64)]>,
    len: usize,
}

impl IntMap {
    const MIN_CAP: usize = 16;

    fn new() -> Self {
        Self {
            slots: vec![(0, INT_EMPTY); Self::MIN_CAP].into_boxed_slice(),
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: i64) -> usize {
        // Fibonacci hashing, indexing by the multiply's HIGH bits: the low
        // bits of `key * odd` barely scramble `key`'s own low bits, so
        // sequential auto-increment keys would otherwise collide in runs.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    #[inline]
    fn get(&self, key: i64) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let (k, r) = self.slots[i];
            if r == INT_EMPTY {
                return None;
            }
            if k == key {
                return Some(r);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `key → rid` if the key is absent; returns `false` (leaving the
    /// map untouched) if the key is already present. One probe both checks
    /// and claims.
    fn try_insert(&mut self, key: i64, rid: u64) -> bool {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let (k, r) = self.slots[i];
            if r == INT_EMPTY {
                self.slots[i] = (key, rid);
                self.len += 1;
                return true;
            }
            if k == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove `key`, backward-shifting the tail of its probe chain so
    /// lookups never need tombstones.
    fn remove(&mut self, key: i64) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let (k, r) = self.slots[i];
            if r == INT_EMPTY {
                return None;
            }
            if k == key {
                let mut free = i;
                let mut j = i;
                loop {
                    j = (j + 1) & mask;
                    let (kj, rj) = self.slots[j];
                    if rj == INT_EMPTY {
                        break;
                    }
                    // Shift `j` into the hole iff the hole does not sit
                    // between the entry's ideal bucket and its current slot
                    // (cyclic-distance comparison).
                    let ideal = self.bucket(kj);
                    if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(free) & mask) {
                        self.slots[free] = (kj, rj);
                        free = j;
                    }
                }
                self.slots[free] = (0, INT_EMPTY);
                self.len -= 1;
                return Some(r);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![(0, INT_EMPTY); doubled].into_boxed_slice(),
        );
        self.len = 0;
        for (k, r) in old.into_vec() {
            if r != INT_EMPTY {
                let claimed = self.try_insert(k, r);
                debug_assert!(claimed, "keys are unique by construction");
            }
        }
    }

    /// Live `(key, rid)` pairs in slot order (NOT key order).
    fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.slots
            .iter()
            .filter(|&&(_, r)| r != INT_EMPTY)
            .map(|&(k, r)| (k, r))
    }
}

/// The `i64` an index probe value maps to in an [`IntMap`]-backed index, or
/// `None` when no stored integer key can be `index_cmp`-equal to the probe
/// (fractional doubles, text, NULL, booleans — such probes simply miss).
#[inline]
fn int_key(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) | Value::Timestamp(i) => Some(*i),
        Value::Double(d) => {
            // `i64::MAX as f64` rounds up to 2^63, so the upper comparison
            // is exclusive; `i64::MIN as f64` is exact.
            if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d < i64::MAX as f64 {
                Some(*d as i64)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Primary-key index, chosen once at [`Table::new`]. Tables whose pk column
/// is INT or TIMESTAMP (all of them, in this workload) use the
/// open-addressing [`IntMap`]; any other pk type uses the ordered map.
/// `Table::validate` coerces every stored row to its column types first, so
/// an `Ints` index only ever sees integer keys.
#[derive(Debug, Clone)]
enum PkIndex {
    Ints(IntMap),
    General(BTreeMap<Key, RowId>),
}

impl PkIndex {
    /// Row id stored under a probe value, if any.
    #[inline]
    fn probe(&self, key: &Value) -> Option<RowId> {
        match self {
            PkIndex::Ints(m) => m.get(int_key(key)?).map(RowId),
            PkIndex::General(m) => m.get(&Key(key.clone())).copied(),
        }
    }

    /// Claim `key → rid`; `false` if the key is taken. `key` comes from a
    /// validated row, so under the `Ints` arm it is an integer.
    fn try_insert(&mut self, key: &Value, rid: RowId) -> bool {
        match self {
            PkIndex::Ints(m) => {
                let k = int_key(key).expect("validated rows carry integer keys for an INT pk");
                m.try_insert(k, rid.0)
            }
            PkIndex::General(m) => match m.entry(Key(key.clone())) {
                std::collections::btree_map::Entry::Occupied(_) => false,
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(rid);
                    true
                }
            },
        }
    }

    fn remove(&mut self, key: &Value) {
        match self {
            PkIndex::Ints(m) => {
                if let Some(k) = int_key(key) {
                    m.remove(k);
                }
            }
            PkIndex::General(m) => {
                m.remove(&Key(key.clone()));
            }
        }
    }

    /// Entries whose key lies within the bounds, in no particular order.
    fn hits(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<(Key, RowId)> {
        match self {
            PkIndex::Ints(m) => m
                .iter()
                .map(|(k, r)| (Key(Value::Int(k)), RowId(r)))
                .filter(|(k, _)| key_in_bounds(&k.0, lo, hi))
                .collect(),
            PkIndex::General(m) => m
                .range((key_bound(lo), key_bound(hi)))
                .map(|(k, &rid)| (k.clone(), rid))
                .collect(),
        }
    }
}

fn unique_violation(index: &str, key: &Value) -> SqlError {
    SqlError::DuplicateKey(format!("unique index '{index}' value {key}"))
}

/// An empty primary-key index for `schema`, or `None` if it has no pk.
fn pk_index_for(schema: &TableSchema) -> Option<PkIndex> {
    schema.pk_index().map(|i| match schema.columns[i].ty {
        DataType::Int | DataType::Timestamp => PkIndex::Ints(IntMap::new()),
        _ => PkIndex::General(BTreeMap::new()),
    })
}

/// A secondary index over one column: an ordered map keyed by `index_cmp`.
/// These trees are small (distinct key counts in the hundreds) and
/// cache-hot; a hashed variant measured slower because per-probe key cloning
/// and hashing cost more than the whole B-tree descent.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    name: String,
    column: usize,
    unique: bool,
    map: BTreeMap<Key, Vec<RowId>>,
}

impl SecondaryIndex {
    fn new(name: String, column: usize, unique: bool) -> Self {
        Self {
            name,
            column,
            unique,
            map: BTreeMap::new(),
        }
    }

    /// Append `rid` to `key`'s postings; the table has checked uniqueness.
    fn insert(&mut self, key: Value, rid: RowId) {
        self.map.entry(Key(key)).or_default().push(rid);
    }

    fn remove(&mut self, key: &Value, rid: RowId) {
        if let Some(v) = self.map.get_mut(&Key(key.clone())) {
            v.retain(|&r| r != rid);
            if v.is_empty() {
                self.map.remove(&Key(key.clone()));
            }
        }
    }
}

/// A table's rows and indexes as they stood at [`Table::freeze`]: shared by
/// every clone and never changed.
#[derive(Debug, Default)]
struct Frozen {
    rows: Vec<Slot>,
    pk: Option<PkIndex>,
    secondary: Vec<SecondaryIndex>,
}

/// One secondary index of a [`Table`], read across its base and delta.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'t> {
    base: Option<&'t SecondaryIndex>,
    delta: &'t SecondaryIndex,
    shadow: &'t BTreeMap<u64, Slot>,
}

impl<'t> IndexView<'t> {
    fn postings(&self, base: &'t [RowId], delta: &'t [RowId]) -> Postings<'t> {
        Postings {
            base: base.iter(),
            delta: delta.iter(),
            shadow: self.shadow,
        }
    }

    /// Row ids with exactly this key value, in posting order (insertion
    /// order, i.e. ascending row id for rows indexed at backfill).
    pub fn lookup_eq(&self, key: &Value) -> Postings<'t> {
        let key = Key(key.clone());
        let list = |ix: &'t SecondaryIndex| ix.map.get(&key).map_or(&[][..], Vec::as_slice);
        self.postings(self.base.map_or(&[], list), list(self.delta))
    }

    /// Row ids within an inclusive/exclusive bound range, in key order (and
    /// posting order within a key).
    pub fn lookup_range(
        self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = RowId> + 't {
        let range = (key_bound(lo), key_bound(hi));
        let base = self
            .base
            .into_iter()
            .flat_map(|ix| ix.map.range(range.clone()));
        let mut runs: Vec<(&Key, Postings<'t>)> = base
            .map(|(k, rids)| (k, self.postings(rids, &[])))
            .chain(
                self.delta
                    .map
                    .range(range.clone())
                    .map(|(k, rids)| (k, self.postings(&[], rids))),
            )
            .collect();
        // Stable: a key present in both keeps its base postings first.
        runs.sort_by(|a, b| a.0.cmp(b.0));
        runs.into_iter().flat_map(|(_, postings)| postings)
    }
}

/// Row ids under one key of an [`IndexView`]: the base postings whose row is
/// not shadowed, then the delta postings.
#[derive(Debug, Clone)]
pub struct Postings<'t> {
    base: std::slice::Iter<'t, RowId>,
    delta: std::slice::Iter<'t, RowId>,
    shadow: &'t BTreeMap<u64, Slot>,
}

impl Iterator for Postings<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        for &rid in self.base.by_ref() {
            if self.shadow.is_empty() || !self.shadow.contains_key(&rid.0) {
                return Some(rid);
            }
        }
        self.delta.next().copied()
    }
}

#[inline]
fn key_bound(b: Bound<&Value>) -> Bound<Key> {
    match b {
        Bound::Included(v) => Bound::Included(Key(v.clone())),
        Bound::Excluded(v) => Bound::Excluded(Key(v.clone())),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[inline]
fn key_in_bounds(k: &Value, lo: Bound<&Value>, hi: Bound<&Value>) -> bool {
    use std::cmp::Ordering::*;
    let above_lo = match lo {
        Bound::Included(v) => !matches!(k.index_cmp(v), Less),
        Bound::Excluded(v) => matches!(k.index_cmp(v), Greater),
        Bound::Unbounded => true,
    };
    let below_hi = match hi {
        Bound::Included(v) => !matches!(k.index_cmp(v), Greater),
        Bound::Excluded(v) => matches!(k.index_cmp(v), Less),
        Bound::Unbounded => true,
    };
    above_lo && below_hi
}

/// A heap of rows plus indexes, validated against a schema: a shared frozen
/// base and a private delta (see the module doc).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// Column names shared out to query scopes: schemas are immutable after
    /// creation, so every statement binding this table can hold the same
    /// allocation instead of cloning one `String` per column per statement.
    col_names: Arc<[String]>,
    /// Rows and indexes as of [`Table::freeze`], shared by every clone.
    base: Arc<Frozen>,
    /// Rows inserted since the freeze: slot `i` holds
    /// `RowId(base.rows.len() + i)`.
    rows: Vec<Slot>,
    /// Base rows overwritten since the freeze, by row id: `Some` for an
    /// updated or restored row (indexed in the delta), `None` for a deleted
    /// one. Entries are never removed, so a touched base row stays out of
    /// the base postings — where an unfrozen table's remove-then-append
    /// would have moved it.
    shadow: BTreeMap<u64, Slot>,
    /// Live-row count across base and delta.
    live: usize,
    next_rowid: u64,
    next_auto_inc: i64,
    /// Delta primary-key index (keys of delta rows and `Some` shadow rows),
    /// if the schema has a primary key.
    pk: Option<PkIndex>,
    /// Delta secondary indexes, aligned by position with `base.secondary`;
    /// one created after the freeze sits past its end and indexes every row.
    secondary: Vec<SecondaryIndex>,
    /// Monotone stamp of the last schema-affecting DDL (table creation,
    /// index creation), assigned by the owning engine. Cached plans record
    /// the stamp of every table they depend on and are revalidated against
    /// it, so DDL invalidates exactly the affected cache entries.
    schema_serial: u64,
    /// Local apply time (µs of simulated time) per row, stamped by the
    /// replica row-apply path. 0 means "never row-applied". This is what heartbeat delay measurement reads: under
    /// the row binlog format the shipped row image carries the *master's*
    /// materialized timestamp verbatim, so the slave-side apply instant must
    /// be recorded out of band.
    applied_at: Vec<u64>,
}

impl Table {
    /// Empty table for a schema.
    pub fn new(schema: TableSchema) -> Self {
        let col_names: Arc<[String]> = schema.columns.iter().map(|c| c.name.clone()).collect();
        Self {
            pk: pk_index_for(&schema),
            schema,
            col_names,
            base: Arc::default(),
            rows: Vec::new(),
            shadow: BTreeMap::new(),
            live: 0,
            next_rowid: 0,
            next_auto_inc: 1,
            secondary: Vec::new(),
            schema_serial: 0,
            applied_at: Vec::new(),
        }
    }

    /// Move every row and index into the shared base and start an empty
    /// delta; clones taken afterwards share the base and copy only their
    /// delta. A table whose base already holds rows keeps it (folding the
    /// delta in would copy the base).
    pub fn freeze(&mut self) {
        if !self.base.rows.is_empty() {
            return;
        }
        let fresh = self
            .secondary
            .iter()
            .map(|ix| SecondaryIndex::new(ix.name.clone(), ix.column, ix.unique))
            .collect();
        self.base = Arc::new(Frozen {
            rows: std::mem::take(&mut self.rows),
            pk: std::mem::replace(&mut self.pk, pk_index_for(&self.schema)),
            secondary: std::mem::replace(&mut self.secondary, fresh),
        });
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Shared column-name list (one allocation for the table's lifetime).
    pub fn col_names(&self) -> Arc<[String]> {
        self.col_names.clone()
    }

    /// Stamp of the last schema-affecting DDL on this table.
    pub fn schema_serial(&self) -> u64 {
        self.schema_serial
    }

    /// Record a schema-affecting DDL (called by the engine with its own
    /// monotone DDL counter, so a DROP + re-CREATE never reuses a stamp).
    pub fn set_schema_serial(&mut self, serial: u64) {
        self.schema_serial = serial;
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// Add a secondary index over `column`; backfills existing rows. The
    /// index lives only in the delta.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column: usize,
        unique: bool,
    ) -> Result<(), SqlError> {
        let name = name.into();
        if self.secondary.iter().any(|ix| ix.name == name) {
            return Err(SqlError::DuplicateIndex(name));
        }
        assert!(column < self.schema.arity(), "index column out of range");
        let mut ix = SecondaryIndex::new(name, column, unique);
        for (rid, row) in self.scan() {
            let key = &row[column];
            if unique && !key.is_null() && ix.map.contains_key(&Key(key.clone())) {
                return Err(unique_violation(&ix.name, key));
            }
            ix.insert(key.clone(), rid);
        }
        self.secondary.push(ix);
        Ok(())
    }

    /// Find a secondary index over `column`.
    pub fn index_on(&self, column: usize) -> Option<IndexView<'_>> {
        let i = self.secondary.iter().position(|ix| ix.column == column)?;
        Some(self.view(i))
    }

    fn view(&self, i: usize) -> IndexView<'_> {
        IndexView {
            base: self.base.secondary.get(i),
            delta: &self.secondary[i],
            shadow: &self.shadow,
        }
    }

    /// Would indexing `key` in secondary index `i` break its uniqueness?
    fn clashes(&self, i: usize, key: &Value) -> bool {
        self.secondary[i].unique && !key.is_null() && self.view(i).lookup_eq(key).next().is_some()
    }

    /// Fail on the first unique index `row` would collide in, skipping
    /// columns where the row's `old` image already holds the same value.
    fn check_unique(&self, row: &[Value], old: Option<&[Value]>) -> Result<(), SqlError> {
        for (i, ix) in self.secondary.iter().enumerate() {
            let v = &row[ix.column];
            if old.is_none_or(|old| old[ix.column] != *v) && self.clashes(i, v) {
                return Err(unique_violation(&ix.name, v));
            }
        }
        Ok(())
    }

    /// Validate a full-width row against the schema (type coercion and NOT
    /// NULL), returning the coerced row. Auto-increment: a NULL/absent pk on
    /// an auto-increment column is filled from the counter.
    fn validate(&mut self, mut row: Vec<Value>) -> Result<Vec<Value>, SqlError> {
        if row.len() != self.schema.arity() {
            return Err(SqlError::Constraint(format!(
                "row arity {} != table arity {} for '{}'",
                row.len(),
                self.schema.arity(),
                self.schema.name
            )));
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            let v = std::mem::replace(&mut row[i], Value::Null);
            let mut v = v.coerce_to(col.ty)?;
            if v.is_null() && col.auto_increment {
                // The fill must respect the column's type affinity: a
                // TIMESTAMP auto-increment column stores Timestamp, not the
                // raw counter Int (readers otherwise see mixed types).
                v = Value::Int(self.next_auto_inc).coerce_to(col.ty)?;
            }
            if v.is_null() && col.not_null {
                return Err(SqlError::Constraint(format!(
                    "column '{}' of '{}' is NOT NULL",
                    col.name, self.schema.name
                )));
            }
            row[i] = v;
        }
        // Advance the auto-increment counter past any explicit value.
        if let Some(pk_idx) = self.schema.pk_index() {
            if self.schema.columns[pk_idx].auto_increment {
                if let Value::Int(v) | Value::Timestamp(v) = row[pk_idx] {
                    self.next_auto_inc = self.next_auto_inc.max(v + 1);
                }
            }
        }
        Ok(row)
    }

    /// Is a base row overwritten since the freeze?
    #[inline]
    fn shadowed(&self, rid: RowId) -> bool {
        !self.shadow.is_empty() && self.shadow.contains_key(&rid.0)
    }

    /// Is `rid` indexed in the delta (a delta row or a `Some` shadow row)?
    fn in_delta(&self, rid: RowId) -> bool {
        rid.0 as usize >= self.base.rows.len() || matches!(self.shadow.get(&rid.0), Some(Some(_)))
    }

    /// The slot of `rid`: in the delta, the shadow, or the base.
    #[inline]
    fn slot(&self, rid: RowId) -> Option<&Slot> {
        let i = rid.0 as usize;
        match i.checked_sub(self.base.rows.len()) {
            Some(d) => self.rows.get(d),
            None => Some(self.shadow.get(&rid.0).unwrap_or(&self.base.rows[i])),
        }
    }

    /// The writable slot of `rid`: a base row is shadowed on its first write.
    fn slot_mut(&mut self, rid: RowId) -> &mut Slot {
        let i = rid.0 as usize;
        match i.checked_sub(self.base.rows.len()) {
            Some(d) => {
                if d >= self.rows.len() {
                    self.rows.resize_with(d + 1, || None);
                }
                &mut self.rows[d]
            }
            None => self
                .shadow
                .entry(rid.0)
                .or_insert_with(|| self.base.rows[i].clone()),
        }
    }

    /// Store `row` in the slot for `rid`.
    fn put_slot(&mut self, rid: RowId, row: Arc<[Value]>) {
        if self.slot_mut(rid).replace(row).is_none() {
            self.live += 1;
        }
    }

    /// The live base row holding primary key `key` (a shadowed entry is
    /// stale: the delta holds that row's current key, if any).
    fn base_pk_hit(&self, key: &Value) -> Option<RowId> {
        let rid = self.base.pk.as_ref()?.probe(key)?;
        (!self.shadowed(rid)).then_some(rid)
    }

    /// Claim `key → rid` in the delta pk unless a live row holds `key`.
    fn pk_claim(&mut self, key: &Value, rid: RowId) -> bool {
        self.base_pk_hit(key).is_none()
            && self.pk.as_mut().is_some_and(|pk| pk.try_insert(key, rid))
    }

    /// Drop `row`, stored under `rid`, from the delta secondary indexes that
    /// hold it: all of them if it was indexed in the delta, else only those
    /// created after the freeze.
    fn unindex_secondary(&mut self, rid: RowId, row: &[Value], in_delta: bool) {
        let from = if in_delta {
            0
        } else {
            self.base.secondary.len()
        };
        for ix in &mut self.secondary[from..] {
            ix.remove(&row[ix.column], rid);
        }
    }

    fn index_secondary(&mut self, rid: RowId, row: &[Value]) {
        for ix in &mut self.secondary {
            ix.insert(row[ix.column].clone(), rid);
        }
    }

    /// Insert a full-width row; returns its row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, SqlError> {
        let row = self.validate(row)?;
        let rid = RowId(self.next_rowid);

        // Primary key uniqueness: the delta probe both checks and claims the
        // key (the claim is undone below on the rare secondary unique
        // violation, keeping failed inserts free of side effects).
        let pk_idx = self.schema.pk_index();
        if let Some(p) = pk_idx {
            if !self.pk_claim(&row[p], rid) {
                return Err(SqlError::DuplicateKey(format!(
                    "primary key {} in '{}'",
                    row[p], self.schema.name
                )));
            }
        }
        // Secondary unique checks before any index mutation.
        if let Err(e) = self.check_unique(&row, None) {
            if let (Some(pk), Some(p)) = (&mut self.pk, pk_idx) {
                pk.remove(&row[p]);
            }
            return Err(e);
        }

        self.next_rowid += 1;
        self.index_secondary(rid, &row);
        self.put_slot(rid, Arc::from(row));
        Ok(rid)
    }

    /// Fetch a row by id.
    #[inline]
    pub fn get(&self, rid: RowId) -> Option<&[Value]> {
        self.slot(rid)?.as_deref()
    }

    /// Replace a row in place (same id). Returns the old image (shared, not
    /// cloned — undo logs hold it for free).
    pub fn update(&mut self, rid: RowId, new_row: Vec<Value>) -> Result<Arc<[Value]>, SqlError> {
        let new_row = self.validate(new_row)?;
        let pk_idx = self.schema.pk_index();
        // All fallible checks run against the *borrowed* old row.
        {
            let old = self
                .get(rid)
                .ok_or_else(|| SqlError::Constraint(format!("no row {rid:?}")))?;
            if let Some(p) = pk_idx {
                if old[p] != new_row[p] && self.pk_lookup(&new_row[p]).is_some() {
                    return Err(SqlError::DuplicateKey(format!(
                        "primary key {} in '{}'",
                        new_row[p], self.schema.name
                    )));
                }
            }
            self.check_unique(&new_row, Some(old))?;
        }

        let in_delta = self.in_delta(rid);
        let new: Arc<[Value]> = Arc::from(new_row);
        // The slot stays occupied throughout, so `live` is untouched.
        let old = self
            .slot_mut(rid)
            .replace(Arc::clone(&new))
            .expect("checked above");
        if let (Some(pk), Some(p)) = (&mut self.pk, pk_idx) {
            // A base row's key enters the delta pk even when unchanged: its
            // base entry is shadowed from now on.
            if !in_delta || old[p] != new[p] {
                if in_delta {
                    pk.remove(&old[p]);
                }
                let claimed = pk.try_insert(&new[p], rid);
                debug_assert!(claimed, "uniqueness pre-checked");
            }
        }
        self.unindex_secondary(rid, &old, in_delta);
        self.index_secondary(rid, &new);
        Ok(old)
    }

    /// Stamp the local apply instant (µs simulated time) of a row-applied
    /// write — read back by heartbeat delay measurement, where the stored
    /// row carries the *master's* timestamp.
    pub fn stamp_applied_at(&mut self, rid: RowId, at_micros: u64) {
        let i = rid.0 as usize;
        if i >= self.applied_at.len() {
            self.applied_at.resize(i + 1, 0);
        }
        self.applied_at[i] = at_micros;
    }

    /// Local apply instant of a row, if it was written through the row-apply
    /// path (`None` for base-load / locally-executed rows).
    pub fn applied_at_of(&self, rid: RowId) -> Option<u64> {
        self.get(rid)?;
        match self.applied_at.get(rid.0 as usize).copied().unwrap_or(0) {
            0 => None,
            at => Some(at),
        }
    }

    /// Delete a row by id; returns the deleted image (shared, not cloned).
    pub fn delete(&mut self, rid: RowId) -> Option<Arc<[Value]>> {
        self.get(rid)?;
        let in_delta = self.in_delta(rid);
        let row = self.slot_mut(rid).take().expect("live row");
        self.live -= 1;
        let i = rid.0 as usize;
        if i < self.applied_at.len() {
            self.applied_at[i] = 0;
        }
        if let (true, Some(pk), Some(p)) = (in_delta, &mut self.pk, self.schema.pk_index()) {
            pk.remove(&row[p]);
        }
        self.unindex_secondary(rid, &row, in_delta);
        Some(row)
    }

    /// Re-insert a row under a specific id (used by transaction rollback;
    /// the row must have been previously validated by this table). A key
    /// some other row has taken meanwhile stays that row's.
    pub fn restore(&mut self, rid: RowId, row: Arc<[Value]>) {
        if let Some(p) = self.schema.pk_index() {
            self.pk_claim(&row[p], rid);
        }
        for i in 0..self.secondary.len() {
            let key = &row[self.secondary[i].column];
            if !self.clashes(i, key) {
                self.secondary[i].insert(key.clone(), rid);
            }
        }
        self.put_slot(rid, row);
        self.next_rowid = self.next_rowid.max(rid.0 + 1);
    }

    /// Iterate all `(rid, row)` pairs in row-id order.
    pub fn scan(&self) -> ScanIter<'_> {
        ScanIter {
            base: self.base.rows.iter().enumerate(),
            shadow: self.shadow.iter().peekable(),
            delta: self.rows.iter().enumerate(),
            base_len: self.base.rows.len() as u64,
        }
    }

    /// Look up row ids by primary key: the delta first, then the base.
    #[inline]
    pub fn pk_lookup(&self, key: &Value) -> Option<RowId> {
        self.pk
            .as_ref()?
            .probe(key)
            .or_else(|| self.base_pk_hit(key))
    }

    /// Look up row ids by primary key range, in key order. Collects and
    /// sorts on demand — the workload's indexed predicates are all
    /// equalities, so pk ranges are off the hot path by construction.
    pub fn pk_range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<std::vec::IntoIter<RowId>> {
        let mut hits = self.pk.as_ref()?.hits(lo, hi);
        if let Some(base) = &self.base.pk {
            let live = base.hits(lo, hi).into_iter();
            hits.extend(live.filter(|&(_, rid)| !self.shadowed(rid)));
        }
        hits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let ids: Vec<RowId> = hits.into_iter().map(|(_, rid)| rid).collect();
        Some(ids.into_iter())
    }
}

/// Row-id-order iterator over the live rows of a [`Table`]: base rows, with
/// shadowed ones substituted, then delta rows.
pub struct ScanIter<'t> {
    base: std::iter::Enumerate<std::slice::Iter<'t, Slot>>,
    shadow: std::iter::Peekable<std::collections::btree_map::Iter<'t, u64, Slot>>,
    delta: std::iter::Enumerate<std::slice::Iter<'t, Slot>>,
    base_len: u64,
}

impl<'t> Iterator for ScanIter<'t> {
    type Item = (RowId, &'t [Value]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        for (i, slot) in self.base.by_ref() {
            let slot = match self.shadow.next_if(|&(&rid, _)| rid == i as u64) {
                Some((_, shadowed)) => shadowed,
                None => slot,
            };
            if let Some(row) = slot {
                return Some((RowId(i as u64), row));
            }
        }
        for (i, slot) in self.delta.by_ref() {
            if let Some(row) = slot {
                return Some((RowId(self.base_len + i as u64), row));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "users",
            vec![
                Column::new("id", DataType::Int)
                    .primary_key()
                    .auto_increment(),
                Column::new("name", DataType::Text).not_null(),
                Column::new("score", DataType::Double),
            ],
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(id: Option<i64>, name: &str, score: f64) -> Vec<Value> {
        vec![
            id.map(Value::Int).unwrap_or(Value::Null),
            Value::Text(name.into()),
            Value::Double(score),
        ]
    }

    #[test]
    fn insert_get_scan() {
        let mut t = table();
        let r1 = t.insert(row(Some(1), "alice", 1.0)).unwrap();
        let r2 = t.insert(row(Some(2), "bob", 2.0)).unwrap();
        assert_ne!(r1, r2);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(r1).unwrap()[1], Value::Text("alice".into()));
        let all: Vec<_> = t.scan().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn auto_increment_fills_null_pk() {
        let mut t = table();
        let r1 = t.insert(row(None, "a", 0.0)).unwrap();
        assert_eq!(t.get(r1).unwrap()[0], Value::Int(1));
        // explicit id advances counter
        t.insert(row(Some(10), "b", 0.0)).unwrap();
        let r3 = t.insert(row(None, "c", 0.0)).unwrap();
        assert_eq!(t.get(r3).unwrap()[0], Value::Int(11));
    }

    #[test]
    fn pk_duplicate_rejected() {
        let mut t = table();
        t.insert(row(Some(1), "a", 0.0)).unwrap();
        let err = t.insert(row(Some(1), "b", 0.0)).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        assert_eq!(t.row_count(), 1, "failed insert left no trace");
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, SqlError::Constraint(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn type_coercion_on_insert() {
        let mut t = table();
        let rid = t
            .insert(vec![Value::Int(1), Value::Text("a".into()), Value::Int(3)])
            .unwrap();
        assert_eq!(t.get(rid).unwrap()[2], Value::Double(3.0));
    }

    #[test]
    fn pk_lookup_and_range() {
        let mut t = table();
        for i in 1..=10 {
            t.insert(row(Some(i), "u", i as f64)).unwrap();
        }
        let rid = t.pk_lookup(&Value::Int(7)).unwrap();
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(7));
        assert!(t.pk_lookup(&Value::Int(99)).is_none());
        let ids: Vec<i64> = t
            .pk_range(
                Bound::Included(&Value::Int(3)),
                Bound::Excluded(&Value::Int(6)),
            )
            .unwrap()
            .map(|rid| match t.get(rid).unwrap()[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn cross_type_numeric_keys_probe_equal() {
        // Int-keyed pk probed with Double and Timestamp representations of
        // the same number must hit (index_cmp calls them equal, so the
        // IntMap probe conversion must agree).
        let mut t = table();
        t.insert(row(Some(7), "u", 0.0)).unwrap();
        assert!(t.pk_lookup(&Value::Int(7)).is_some());
        assert!(t.pk_lookup(&Value::Double(7.0)).is_some());
        assert!(t.pk_lookup(&Value::Timestamp(7)).is_some());
        assert!(t.pk_lookup(&Value::Double(7.5)).is_none());
        assert!(t.pk_lookup(&Value::Double(-0.0)).is_none());
    }

    #[test]
    fn secondary_index_tracks_updates_and_deletes() {
        let mut t = table();
        t.create_index("idx_name", 1, false).unwrap();
        let r1 = t.insert(row(Some(1), "alice", 0.0)).unwrap();
        let r2 = t.insert(row(Some(2), "alice", 0.0)).unwrap();
        let ix = t.index_on(1).unwrap();
        assert_eq!(ix.lookup_eq(&Value::Text("alice".into())).count(), 2);

        t.update(r1, row(Some(1), "carol", 0.0)).unwrap();
        let ix = t.index_on(1).unwrap();
        let postings = |key: &str| ix.lookup_eq(&Value::from(key)).collect::<Vec<_>>();
        assert_eq!(postings("alice"), [r2]);
        assert_eq!(postings("carol"), [r1]);

        t.delete(r2).unwrap();
        let ix = t.index_on(1).unwrap();
        assert_eq!(ix.lookup_eq(&Value::Text("alice".into())).next(), None);
    }

    #[test]
    fn clones_of_a_frozen_table_share_its_base_through_writes() {
        let mut t = table();
        t.create_index("idx_name", 1, false).unwrap();
        t.insert(row(Some(1), "a", 0.0)).unwrap();
        t.freeze();
        let mut fork = t.clone();
        assert!(Arc::ptr_eq(&t.base, &fork.base), "a fork copies no base");
        fork.insert(row(Some(2), "a", 0.0)).unwrap();
        let rid = fork.pk_lookup(&Value::Int(1)).unwrap();
        fork.update(rid, row(Some(1), "b", 0.0)).unwrap();
        assert!(Arc::ptr_eq(&t.base, &fork.base), "writes copy no base");
        assert_eq!(fork.scan().count(), 2);
        assert_eq!(t.scan().count(), 1, "the source is unchanged");
    }

    #[test]
    fn unique_secondary_index_enforced() {
        let mut t = table();
        t.create_index("uq_name", 1, true).unwrap();
        t.insert(row(Some(1), "alice", 0.0)).unwrap();
        let err = t.insert(row(Some(2), "alice", 0.0)).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn create_index_backfills_and_rejects_duplicate_name() {
        let mut t = table();
        t.insert(row(Some(1), "a", 0.0)).unwrap();
        t.insert(row(Some(2), "b", 0.0)).unwrap();
        t.create_index("idx", 1, false).unwrap();
        let idx = t.index_on(1).unwrap();
        for name in ["a", "b"] {
            assert_eq!(
                idx.lookup_eq(&Value::from(name)).count(),
                1,
                "{name} backfilled"
            );
        }
        assert!(matches!(
            t.create_index("idx", 2, false),
            Err(SqlError::DuplicateIndex(_))
        ));
    }

    #[test]
    fn secondary_range_scan_sorted() {
        let mut t = table();
        t.create_index("idx_name", 1, false).unwrap();
        for (i, name) in ["delta", "alpha", "carol", "bravo"].iter().enumerate() {
            t.insert(row(Some(i as i64 + 1), name, 0.0)).unwrap();
        }
        let ix = t.index_on(1).unwrap();
        let names: Vec<String> = ix
            .lookup_range(
                Bound::Included(&Value::Text("alpha".into())),
                Bound::Excluded(&Value::Text("delta".into())),
            )
            .map(|rid| match &t.get(rid).unwrap()[1] {
                Value::Text(s) => s.clone(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(names, vec!["alpha", "bravo", "carol"], "key order");
    }

    #[test]
    fn update_pk_change_checked() {
        let mut t = table();
        t.insert(row(Some(1), "a", 0.0)).unwrap();
        let r2 = t.insert(row(Some(2), "b", 0.0)).unwrap();
        let err = t.update(r2, row(Some(1), "b", 0.0)).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        // Legal pk move works.
        t.update(r2, row(Some(3), "b", 0.0)).unwrap();
        assert!(t.pk_lookup(&Value::Int(2)).is_none());
        assert!(t.pk_lookup(&Value::Int(3)).is_some());
    }

    #[test]
    fn timestamp_auto_increment_respects_type_affinity() {
        // The auto-increment fill used to store the raw counter Int even in
        // a TIMESTAMP column, so reads surfaced mixed types.
        let schema = TableSchema::new(
            "log",
            vec![
                Column::new("ts", DataType::Timestamp)
                    .primary_key()
                    .auto_increment(),
                Column::new("msg", DataType::Text),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        let r1 = t
            .insert(vec![Value::Null, Value::Text("a".into())])
            .unwrap();
        assert_eq!(t.get(r1).unwrap()[0], Value::Timestamp(1));
        // Explicit values still advance the counter.
        t.insert(vec![Value::Int(10), Value::Text("b".into())])
            .unwrap();
        let r3 = t
            .insert(vec![Value::Null, Value::Text("c".into())])
            .unwrap();
        assert_eq!(t.get(r3).unwrap()[0], Value::Timestamp(11));
    }

    #[test]
    fn schema_serial_set_and_read() {
        let mut t = table();
        assert_eq!(t.schema_serial(), 0);
        t.set_schema_serial(7);
        assert_eq!(t.schema_serial(), 7);
        assert_eq!(t.clone().schema_serial(), 7, "serial survives fork clones");
    }

    #[test]
    fn restore_round_trips_delete() {
        let mut t = table();
        let rid = t.insert(row(Some(1), "a", 0.5)).unwrap();
        let old = t.delete(rid).unwrap();
        assert_eq!(t.row_count(), 0);
        t.restore(rid, old);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.pk_lookup(&Value::Int(1)), Some(rid));
    }

    #[test]
    fn intmap_matches_btreemap_model() {
        let mut m = IntMap::new();
        let mut model: BTreeMap<i64, u64> = BTreeMap::new();
        // A deterministic LCG drives a mixed insert/remove workload over a
        // small key range to force collisions, growth and chain shifts.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((state >> 33) % 512) as i64 - 256;
            if state & 1 == 0 {
                let inserted = m.try_insert(key, step);
                assert_eq!(inserted, !model.contains_key(&key), "step {step} key {key}");
                if inserted {
                    model.insert(key, step);
                }
            } else {
                assert_eq!(m.remove(key), model.remove(&key), "step {step} key {key}");
            }
            assert_eq!(m.len, model.len());
        }
        for (&k, &v) in &model {
            assert_eq!(m.get(k), Some(v), "key {k}");
        }
        assert_eq!(m.get(9_999), None);
    }

    #[test]
    fn intmap_sequential_keys_survive_backward_shift_deletion() {
        // Sequential auto-increment keys are the common case; deleting every
        // other one exercises the backward-shift chains repeatedly.
        let mut m = IntMap::new();
        for k in 0..1000 {
            assert!(m.try_insert(k, k as u64));
        }
        assert!(!m.try_insert(500, 7), "duplicate claim must fail");
        for k in (0..1000).step_by(2) {
            assert_eq!(m.remove(k), Some(k as u64));
        }
        for k in 0..1000 {
            let expect = if k % 2 == 0 { None } else { Some(k as u64) };
            assert_eq!(m.get(k), expect, "key {k}");
        }
        assert_eq!(m.remove(1), Some(1));
        assert_eq!(m.remove(1), None);
    }

    #[test]
    fn text_pk_uses_ordered_fallback() {
        let schema = TableSchema::new(
            "kv",
            vec![
                Column::new("k", DataType::Text).primary_key(),
                Column::new("v", DataType::Int),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        for (k, v) in [("b", 2), ("a", 1), ("c", 3)] {
            t.insert(vec![Value::Text(k.into()), Value::Int(v)])
                .unwrap();
        }
        let err = t
            .insert(vec![Value::Text("a".into()), Value::Int(9)])
            .unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        let rid = t.pk_lookup(&Value::Text("b".into())).unwrap();
        assert_eq!(t.get(rid).unwrap()[1], Value::Int(2));
        let keys: Vec<String> = t
            .pk_range(Bound::Unbounded, Bound::Excluded(&Value::Text("c".into())))
            .unwrap()
            .map(|rid| match &t.get(rid).unwrap()[0] {
                Value::Text(s) => s.clone(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec!["a", "b"], "range in key order");
    }

    #[test]
    fn uncoercible_int_pk_is_an_error_not_a_panic() {
        // `validate` coerces the pk to its declared type before the index
        // is probed, so the integer index never meets a non-integer key.
        let mut t = table();
        let text_pk = |name: &str| {
            vec![
                Value::Text("seven".into()),
                Value::Text(name.into()),
                Value::Double(0.0),
            ]
        };
        let err = t.insert(text_pk("a")).unwrap_err();
        assert!(matches!(err, SqlError::TypeMismatch(_)), "{err:?}");
        let rid = t.insert(row(Some(1), "a", 0.0)).unwrap();
        let err = t.update(rid, text_pk("b")).unwrap_err();
        assert!(matches!(err, SqlError::TypeMismatch(_)), "{err:?}");
        assert_eq!(t.row_count(), 1, "neither attempt left a trace");
        assert_eq!(t.pk_lookup(&Value::Int(1)), Some(rid));
        // A fractional double is coerced (truncated), not rejected.
        let mut half = row(None, "c", 0.0);
        half[0] = Value::Double(2.5);
        let rid = t.insert(half).unwrap();
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn applied_at_stamps_follow_row_lifecycle() {
        let mut t = table();
        let rid = t.insert(row(Some(1), "a", 0.0)).unwrap();
        assert_eq!(t.applied_at_of(rid), None, "local insert is unstamped");
        t.stamp_applied_at(rid, 123_456);
        assert_eq!(t.applied_at_of(rid), Some(123_456));
        t.delete(rid);
        assert_eq!(t.applied_at_of(rid), None, "stamp dies with the row");
    }
}
