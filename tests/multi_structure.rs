//! Several Montage structures sharing one pool/epoch system, recovered
//! together from a single crash — the "manages persistent payload blocks on
//! behalf of one or more concurrent data structures" claim.

use montage::{EpochSys, EsysConfig};
use montage_ds::{tags, MontageGraph, MontageHashMap, MontageNbQueue, MontageQueue};
use pmem::{PmemConfig, PmemPool};

type Key = [u8; 32];

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

#[test]
fn four_structures_one_pool() {
    let esys = EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(128 << 20)),
        EsysConfig::default(),
    );
    let tid = esys.register_thread();

    let map = MontageHashMap::<Key>::new(esys.clone(), tags::HASHMAP, 64);
    let queue = MontageQueue::new(esys.clone(), tags::QUEUE);
    let nbq = MontageNbQueue::new(esys.clone(), tags::NBQUEUE);
    let graph = MontageGraph::new(esys.clone(), tags::GRAPH_VERTEX, tags::GRAPH_EDGE, 128);

    for i in 0..30 {
        map.put(tid, key(i), format!("m{i}").as_bytes());
        queue.enqueue(tid, format!("q{i}").as_bytes());
        nbq.enqueue(tid, format!("n{i}").as_bytes());
    }
    for v in 0..20 {
        graph.add_vertex(tid, v, b"v");
    }
    for v in 1..20 {
        graph.add_edge(tid, 0, v, b"e");
    }
    // Mutations across all structures.
    map.remove(tid, &key(7));
    queue.dequeue(tid);
    nbq.dequeue(tid);
    graph.remove_edge(tid, 0, 5);
    esys.sync();

    let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 3);
    let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 64, &rec);
    let queue2 = MontageQueue::recover(rec.esys.clone(), tags::QUEUE, &rec);
    let nbq2 = MontageNbQueue::recover(rec.esys.clone(), tags::NBQUEUE, &rec);
    let graph2 = MontageGraph::recover(
        rec.esys.clone(),
        tags::GRAPH_VERTEX,
        tags::GRAPH_EDGE,
        128,
        &rec,
    );

    assert_eq!(map2.len(), 29);
    assert_eq!(queue2.len(), 29);
    assert_eq!(queue2.seq_bounds(), (1, 30));
    assert_eq!(graph2.vertex_count(), 20);
    assert_eq!(graph2.edge_count(), 18);
    graph2.check_invariants();

    let tid2 = rec.esys.register_thread();
    assert!(map2.get_owned(tid2, &key(7)).is_none());
    assert_eq!(map2.get_owned(tid2, &key(8)).unwrap(), b"m8");
    assert_eq!(queue2.dequeue(tid2).unwrap(), b"q1");
    assert_eq!(nbq2.dequeue(tid2).unwrap(), b"n1");

    // All structures remain fully usable post-recovery.
    map2.put(tid2, key(100), b"new");
    queue2.enqueue(tid2, b"new");
    nbq2.enqueue(tid2, b"new");
    assert!(graph2.add_vertex(tid2, 99, b"new"));
    assert!(graph2.add_edge(tid2, 0, 99, b"new"));
    graph2.check_invariants();
}

#[test]
fn hashmap_and_nonblocking_queue_share_a_pool() {
    let esys = EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(128 << 20)),
        EsysConfig::default(),
    );
    let tid = esys.register_thread();

    let map = MontageHashMap::<u64>::new(esys.clone(), tags::HASHMAP, 32);
    let nbq = MontageNbQueue::new(esys.clone(), tags::NBQUEUE);

    for i in 0..40u64 {
        assert!(map.insert(tid, i, &i.to_le_bytes()));
        nbq.enqueue(tid, &i.to_le_bytes());
        if i % 7 == 0 {
            esys.advance_epoch();
        }
    }
    map.remove(tid, &5);
    // A resized value, across an epoch boundary.
    assert!(map.put(tid, 6, b"a longer value than eight bytes"));
    nbq.dequeue(tid);
    esys.sync();

    let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 3);
    let map2 = MontageHashMap::<u64>::recover(rec.esys.clone(), tags::HASHMAP, 32, &rec);
    let nbq2 = MontageNbQueue::recover(rec.esys.clone(), tags::NBQUEUE, &rec);

    assert_eq!(map2.len(), 39);
    assert_eq!(rec.report.survivors, 39 * 2, "one payload per live item");

    let tid2 = rec.esys.register_thread();
    assert!(map2.get(tid2, &5, |_| ()).is_none());
    assert_eq!(
        map2.get_owned(tid2, &6).unwrap(),
        b"a longer value than eight bytes"
    );
    assert_eq!(nbq2.dequeue(tid2).unwrap(), 1u64.to_le_bytes());
}

/// Structures share pools, so tags share one number space: every tag the
/// workspace hands out is distinct, except the two numbers `montage_ds::tags`
/// reserves on `kvstore`'s behalf.
#[test]
fn tag_registry_has_no_collisions() {
    let all = [
        ("tags::HASHMAP", tags::HASHMAP),
        ("tags::QUEUE", tags::QUEUE),
        ("tags::NBQUEUE", tags::NBQUEUE),
        ("tags::GRAPH_VERTEX", tags::GRAPH_VERTEX),
        ("tags::GRAPH_EDGE", tags::GRAPH_EDGE),
        ("tags::KVSTORE", tags::KVSTORE),
        ("tags::KV_SESSION", tags::KV_SESSION),
        ("kvstore::KV_TAG", kvstore::KV_TAG),
        ("kvstore::SESSION_TAG", kvstore::SESSION_TAG),
    ];
    let aliases = [
        ("tags::KVSTORE", "kvstore::KV_TAG"),
        ("tags::KV_SESSION", "kvstore::SESSION_TAG"),
    ];
    for (i, (a, ta)) in all.iter().enumerate() {
        for (b, tb) in &all[i + 1..] {
            assert_eq!(
                ta == tb,
                aliases.contains(&(a, b)),
                "{a} = {ta}, {b} = {tb}"
            );
        }
    }
}

#[test]
fn tags_isolate_structures() {
    // Two maps with different tags in one pool must not see each other's
    // payloads after recovery.
    let esys = EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
        EsysConfig::default(),
    );
    let tid = esys.register_thread();
    let a = MontageHashMap::<Key>::new(esys.clone(), 100, 16);
    let b = MontageHashMap::<Key>::new(esys.clone(), 101, 16);
    a.put(tid, key(1), b"from-a");
    b.put(tid, key(1), b"from-b");
    b.put(tid, key(2), b"only-b");
    esys.sync();

    let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 1);
    let a2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 100, 16, &rec);
    let b2 = MontageHashMap::<Key>::recover(rec.esys.clone(), 101, 16, &rec);
    let tid2 = rec.esys.register_thread();
    assert_eq!(a2.len(), 1);
    assert_eq!(b2.len(), 2);
    assert_eq!(a2.get_owned(tid2, &key(1)).unwrap(), b"from-a");
    assert_eq!(b2.get_owned(tid2, &key(1)).unwrap(), b"from-b");
    assert!(a2.get_owned(tid2, &key(2)).is_none());
}
