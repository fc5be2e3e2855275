//! Property tests for the shard map: totality, stability and minimal
//! remapping — over both synthetic keys and the actual Cloudstone operation
//! stream.

use amdb_cloudstone::{build_template, shard_key_of, DataSize, MixConfig, OpGenerator, ShardKey};
use amdb_shard::{jump_hash, key_hash, ShardMap};
use amdb_sim::Rng;
use proptest::prelude::*;

fn arb_key(space: usize, id: i64) -> ShardKey {
    match space % 4 {
        0 => ShardKey::User(id),
        1 => ShardKey::Event(id),
        2 => ShardKey::Tag(id),
        _ => ShardKey::Zip(id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Totality + stability: every key maps to exactly one in-range shard,
    /// and re-evaluating the same key on the same map never disagrees.
    #[test]
    fn map_is_total_and_stable(
        shards in 1..32u32,
        keys in prop::collection::vec((0..4usize, -1000..1_000_000i64), 1..200),
    ) {
        let m = ShardMap::new(shards);
        for (space, id) in keys {
            let k = arb_key(space, id);
            let s = m.shard_of(k);
            prop_assert!(s < shards);
            prop_assert_eq!(s, m.shard_of(k), "unstable for {:?}", k);
            prop_assert_eq!(s, ShardMap::new(shards).shard_of(k), "map-instance dependent");
        }
    }

    /// Minimal remapping: growing the shard count by one either keeps a key
    /// in place or moves it onto the *new* shard — never between old ones.
    /// This is the jump-hash contract that makes resharding cheap.
    #[test]
    fn growing_by_one_only_moves_keys_onto_the_new_shard(
        shards in 1..24u32,
        keys in prop::collection::vec((0..4usize, 0..1_000_000i64), 1..200),
    ) {
        let before = ShardMap::new(shards);
        let after = ShardMap::new(shards + 1);
        for (space, id) in keys {
            let k = arb_key(space, id);
            let (b, a) = (before.shard_of(k), after.shard_of(k));
            prop_assert!(a == b || a == shards, "{:?} moved {} -> {} of {}", k, b, a, shards + 1);
        }
    }

    /// The hash itself is stable and in range for any key/bucket pair.
    #[test]
    fn jump_hash_is_total(key in any::<u64>(), buckets in 1..1024u32) {
        let b = jump_hash(key, buckets);
        prop_assert!(b < buckets);
        prop_assert_eq!(b, jump_hash(key, buckets));
    }
}

/// Every operation the Cloudstone generator can produce yields a key that
/// maps to exactly one shard, at every sweep shard count — the front never
/// faces an unroutable op.
#[test]
fn every_cloudstone_op_routes_to_one_shard() {
    let mut rng = Rng::new(42);
    let (_, counters) = build_template(DataSize { scale: 30 }, &mut rng);
    let mut g = OpGenerator::new(counters, rng.derive("ops"));
    let maps: Vec<ShardMap> = [1u32, 2, 4, 8].iter().map(|&n| ShardMap::new(n)).collect();
    for _ in 0..5_000 {
        let op = g.generate(MixConfig::RW_50_50);
        let key = shard_key_of(&op);
        assert!(
            key.is_some(),
            "cloudstone op '{}' has no shard key",
            op.name
        );
        for m in &maps {
            let s = m.shard_of_opt(key);
            assert!(s < m.shards());
            assert_eq!(s, m.shard_of_opt(key));
        }
    }
}

/// Keyspace separation: the tag is part of the hash input.
#[test]
fn space_tags_separate_equal_ids() {
    assert_ne!(
        key_hash(ShardKey::User(123)),
        key_hash(ShardKey::Event(123))
    );
}
