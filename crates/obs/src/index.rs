//! The one key index the registry and the tsdb share.
//!
//! [`KeyIndex`] maps `(Component, instance, &'static str)` to a dense slot
//! of a `Vec`. It probes first by the name's address and length, hashed
//! with [`AddrHasher`]: a probe site passes the same literal every time. On
//! a miss it looks the name's text up in a `BTreeMap`, so the same text at
//! a second address (a leaked `String`, another crate's literal) lands on
//! the first address's slot. That map also fixes iteration order: slots
//! are visited in `(component, instance, name)` order, so every export is
//! deterministic.

use crate::registry::MetricKey;
use crate::Component;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per word. Keys are static probe labels, not attacker input;
/// nothing iterates an [`AddrMap`], so the addresses it hashes never reach
/// an export.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(29) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed through [`AddrHasher`].
pub(crate) type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// `((component << 32) | instance, name address, name length)`.
type AddrKey = (u64, usize, usize);

fn addr_key(comp: Component, inst: u32, name: &'static str) -> AddrKey {
    let tag = ((comp as u64) << 32) | u64::from(inst);
    (tag, name.as_ptr() as usize, name.len())
}

/// Values of type `V` in dense slots behind the two-step key probe.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex<V> {
    by_addr: AddrMap<AddrKey, u32>,
    by_text: BTreeMap<MetricKey, u32>,
    values: Vec<V>,
}

impl<V> Default for KeyIndex<V> {
    fn default() -> Self {
        Self {
            by_addr: AddrMap::default(),
            by_text: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<V> KeyIndex<V> {
    /// The value under a key, made with `mk` on the key's first probe.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        mk: impl FnOnce() -> V,
    ) -> &mut V {
        let addr = addr_key(comp, inst, name);
        let slot = match self.by_addr.get(&addr) {
            Some(&slot) => slot,
            None => self.insert(addr, MetricKey { comp, inst, name }, mk),
        };
        &mut self.values[slot as usize]
    }

    /// The address miss: the text's slot, or the next one; either way this
    /// address finds it from now on.
    #[cold]
    fn insert(&mut self, addr: AddrKey, key: MetricKey, mk: impl FnOnce() -> V) -> u32 {
        let next = self.values.len() as u32;
        let slot = *self.by_text.entry(key).or_insert(next);
        if slot == next {
            self.values.push(mk());
        }
        self.by_addr.insert(addr, slot);
        slot
    }

    /// The value under a key, if a probe made it.
    pub(crate) fn get(&self, comp: Component, inst: u32, name: &'static str) -> Option<&V> {
        let slot = match self.by_addr.get(&addr_key(comp, inst, name)) {
            Some(&slot) => slot,
            None => *self.by_text.get(&MetricKey { comp, inst, name })?,
        };
        Some(&self.values[slot as usize])
    }

    /// Every key and its value, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricKey, &V)> {
        self.by_text
            .iter()
            .map(|(k, &slot)| (k, &self.values[slot as usize]))
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}
