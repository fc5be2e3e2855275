//! The deterministic shard map: jump consistent hash over shard keys.

use amdb_cloudstone::ShardKey;

/// Lamping–Veach jump consistent hash: maps `key` to a bucket in
/// `[0, buckets)` such that growing `buckets` by one moves only
/// ~`1/(buckets+1)` of the keyspace — and always *onto the new bucket*,
/// never between old ones. No state, no ring, no virtual nodes.
pub fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "jump_hash over zero buckets");
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        // Top 33 bits of the LCG state as a uniform draw in [0, 2^31).
        let r = ((key >> 33) + 1) as f64;
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / r)) as i64;
    }
    b as u32
}

/// SplitMix64 finalizer: full-avalanche 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a shard key into the jump-hash keyspace. The entity keyspace tag is
/// mixed in before finalizing, so `User(7)` and `Event(7)` are uncorrelated.
pub fn key_hash(key: ShardKey) -> u64 {
    mix64(
        key.space_tag()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.id() as u64),
    )
}

/// The deterministic shard map: every [`ShardKey`] maps to exactly one shard
/// in `[0, shards)` by the consistent hash. Pure and `Clone`-cheap — the
/// front and any test can evaluate it independently and agree.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` shards.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        Self { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The owning shard of `key`. Total: every key maps to exactly one
    /// shard, and the mapping changes only when the shard count changes.
    pub fn shard_of(&self, key: ShardKey) -> u32 {
        jump_hash(key_hash(key), self.shards)
    }

    /// Shard of an optional key: keyless operations (web10) pin to shard 0.
    pub fn shard_of_opt(&self, key: Option<ShardKey>) -> u32 {
        key.map_or(0, |k| self.shard_of(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let m = ShardMap::new(1);
        for id in -5..2_000 {
            assert_eq!(m.shard_of(ShardKey::User(id)), 0);
            assert_eq!(m.shard_of(ShardKey::Event(id)), 0);
        }
        assert_eq!(m.shard_of_opt(None), 0);
    }

    #[test]
    fn keyspaces_are_uncorrelated() {
        let m = ShardMap::new(8);
        let mut differs = 0;
        for id in 0..512 {
            if m.shard_of(ShardKey::User(id)) != m.shard_of(ShardKey::Event(id)) {
                differs += 1;
            }
        }
        // 8 shards: ~7/8 of equal ids should land on different shards.
        assert!(differs > 300, "only {differs}/512 ids differ across spaces");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let shards = 8u32;
        let m = ShardMap::new(shards);
        let n = 80_000;
        let mut counts = vec![0u32; shards as usize];
        for id in 0..n {
            counts[m.shard_of(ShardKey::Event(id)) as usize] += 1;
        }
        let expect = n as f64 / shards as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "shard {s} holds {c} of {n} (dev {dev:.3})");
        }
    }
}
