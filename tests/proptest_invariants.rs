//! Property-based tests (proptest) on the core invariants.

use std::collections::{HashMap, VecDeque};

use montage::{EpochSys, EsysConfig};
use montage_ds::{tags, MontageHashMap, MontageQueue};
use pmem::{PmemConfig, PmemPool};
use proptest::prelude::*;
use ralloc::Ralloc;

type Key = [u8; 32];

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

fn strict_sys(mb: usize) -> std::sync::Arc<EpochSys> {
    EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(mb << 20)),
        EsysConfig::default(),
    )
}

#[derive(Clone, Debug)]
enum MapOp {
    Put(u8, u8),
    Remove(u8),
    Advance,
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| MapOp::Put(k % 24, v)),
        2 => any::<u8>().prop_map(|k| MapOp::Remove(k % 24)),
        1 => Just(MapOp::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Synced state always recovers exactly (the oracle), regardless of the
    /// interleaving of puts/removes/epoch advances. Value lengths 4, 4, 12
    /// and 1 make a put over a put a same-length, longer or shorter
    /// overwrite, so one payload per key must survive every arm of
    /// `overwrite_tail`.
    #[test]
    fn map_recovery_matches_oracle(ops in proptest::collection::vec(map_op_strategy(), 1..120)) {
        let s = strict_sys(32);
        let map = MontageHashMap::<Key>::new(s.clone(), tags::HASHMAP, 32);
        let tid = s.register_thread();
        let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                MapOp::Put(k, v) => {
                    let value = vec![v; [4, 4, 12, 1][(v % 4) as usize]];
                    map.put(tid, key(k as u64), &value);
                    oracle.insert(k as u64, value);
                }
                MapOp::Remove(k) => {
                    map.remove(tid, &key(k as u64));
                    oracle.remove(&(k as u64));
                }
                MapOp::Advance => s.advance_epoch(),
            }
        }
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 32, &rec);
        let tid2 = rec.esys.register_thread();
        prop_assert_eq!(map2.len(), oracle.len());
        for (k, v) in &oracle {
            let got = map2.get_owned(tid2, &key(*k));
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    /// Queue recovery equals the oracle FIFO after an arbitrary synced
    /// history, and drains in order.
    #[test]
    fn queue_recovery_matches_oracle(ops in proptest::collection::vec(any::<bool>(), 1..150)) {
        let s = strict_sys(32);
        let q = MontageQueue::new(s.clone(), tags::QUEUE);
        let tid = s.register_thread();
        let mut oracle: VecDeque<u32> = VecDeque::new();
        for (i, enq) in ops.iter().enumerate() {
            if *enq {
                q.enqueue(tid, &(i as u32).to_le_bytes());
                oracle.push_back(i as u32);
            } else {
                let got = q.dequeue(tid);
                let expect = oracle.pop_front();
                prop_assert_eq!(got.is_some(), expect.is_some());
            }
            if i % 17 == 0 {
                s.advance_epoch();
            }
        }
        s.sync();
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let q2 = MontageQueue::recover(rec.esys.clone(), tags::QUEUE, &rec);
        let tid2 = rec.esys.register_thread();
        prop_assert_eq!(q2.len(), oracle.len());
        while let Some(expect) = oracle.pop_front() {
            let got = q2.dequeue(tid2).unwrap();
            prop_assert_eq!(got, expect.to_le_bytes().to_vec());
        }
    }

    /// Allocator: live blocks never overlap and always satisfy the request,
    /// under arbitrary alloc/free interleavings.
    #[test]
    fn ralloc_no_overlap(script in proptest::collection::vec((1usize..5000, any::<bool>()), 1..200)) {
        let r = Ralloc::format(PmemPool::new(PmemConfig { size: 32 << 20, ..Default::default() }));
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for (size, free_one) in script {
            let off = r.alloc(size);
            let end = off.raw() + r.usable_size(off) as u64;
            prop_assert!(r.usable_size(off) >= size);
            for &(s0, e0) in &live {
                prop_assert!(off.raw() >= e0 || end <= s0, "overlap");
            }
            live.push((off.raw(), end));
            if free_one && live.len() > 1 {
                let (s0, _) = live.swap_remove(live.len() / 2);
                r.dealloc(pmem::POff::new(s0));
            }
        }
    }

    /// Zipfian samples stay in range for arbitrary n and theta.
    #[test]
    fn zipfian_in_range(n in 1u64..10_000, theta in 0.01f64..0.999, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = workloads::zipfian::Zipfian::new(n, theta);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
            prop_assert!(z.sample_scrambled(&mut rng) < n);
        }
    }

    /// Payload algebra: after arbitrary set/advance interleavings, the last
    /// written value is what reads observe, and uid stays fixed across
    /// copy-on-write.
    #[test]
    fn payload_set_last_write_wins(writes in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..60)) {
        let s = strict_sys(16);
        let tid = s.register_thread();
        let mut h = {
            let g = s.begin_op(tid);
            s.pnew(&g, 0, &0u64)
        };
        let mut last = 0u64;
        for (v, advance) in writes {
            if advance {
                s.advance_epoch();
            }
            let g = s.begin_op(tid);
            h = s.set(&g, h, |slot| *slot = v).unwrap();
            last = v;
            prop_assert_eq!(s.read(&g, h).unwrap(), last);
        }
        let g = s.begin_op(tid);
        prop_assert_eq!(s.read(&g, h).unwrap(), last);
    }

    /// Graph dataset generator: structurally valid for arbitrary sizes.
    #[test]
    fn graphgen_valid(v in 10u64..500, epv in 1u32..8, seed in any::<u64>()) {
        let ds = workloads::graphgen::GraphDataset::generate(workloads::graphgen::GraphGenConfig {
            vertices: v,
            edges_per_vertex: epv,
            seed,
            partitions: 3,
        });
        for part in &ds.partitions {
            for &(a, b) in part {
                prop_assert!(a != b);
                prop_assert!((a as u64) < v && (b as u64) < v);
            }
        }
        // Round-trip through the binary format.
        for p in 0..3 {
            let enc = ds.encode_partition(p);
            prop_assert_eq!(
                workloads::graphgen::GraphDataset::decode_partition(&enc),
                ds.partitions[p].clone()
            );
        }
    }
}

// ---- key→shard router properties --------------------------------------------

use kvstore::{make_key, ShardRouter};
use workloads::Zipfian;

proptest! {
    /// Routing is a pure function of (key, shard count): two independently
    /// constructed routers — e.g. before and after a server restart — agree
    /// on every key, and always stay in range.
    #[test]
    fn router_assignment_is_stable_across_restarts(
        keys in proptest::collection::vec(any::<u64>(), 1..64),
        n_shards in 1usize..16,
    ) {
        let before = ShardRouter::new(n_shards);
        let after = ShardRouter::new(n_shards);
        for k in keys {
            let key = make_key(k);
            let s = before.route(&key);
            prop_assert!(s < n_shards);
            prop_assert_eq!(s, after.route(&key), "restart changed the route");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// Shard load stays within 2× of ideal under a Zipfian key-popularity
    /// skew (YCSB's default, θ = 0.99): the hottest key carries ~13% of all
    /// ops, so per-*key* balance is impossible — but hashing must keep any
    /// single shard from absorbing the skew twice over.
    #[test]
    fn router_spreads_zipfian_load_within_2x_of_ideal(seed in any::<u64>()) {
        const N_SHARDS: usize = 4;
        const SAMPLES: usize = 8_000;
        let router = ShardRouter::new(N_SHARDS);
        let zipf = Zipfian::new(1024, 0.99);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut per_shard = [0usize; N_SHARDS];
        for _ in 0..SAMPLES {
            let k = zipf.sample_scrambled(&mut rng);
            per_shard[router.route(&make_key(k))] += 1;
        }
        let ideal = SAMPLES / N_SHARDS;
        for (s, &load) in per_shard.iter().enumerate() {
            prop_assert!(
                load <= 2 * ideal,
                "shard {} holds {} of {} ops (ideal {}): skew concentrated",
                s, load, SAMPLES, ideal
            );
        }
    }
}
