//! Microbenchmark operation mixes, matching the paper's Sec. 6.1 setup:
//! key range 1..=1,000,000 (padded-string keys), 0.5 M elements preloaded in
//! 1 M buckets, 1 KB values, uniform key choice; map mixes expressed as
//! get:insert:remove ratios.

use rand::Rng;

use crate::zipfian::{KeyDist, KeySampler};

/// One queue operation (1:1 enqueue:dequeue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    Enqueue,
    Dequeue,
}

/// One map operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapOp {
    Get(u64),
    Insert(u64),
    Remove(u64),
}

/// A get:insert:remove ratio, e.g. `MapMix::new(18, 1, 1)` for the paper's
/// read-dominant workload.
#[derive(Clone, Copy, Debug)]
pub struct MapMix {
    pub get: u32,
    pub insert: u32,
    pub remove: u32,
}

impl MapMix {
    pub const WRITE_DOMINANT: MapMix = MapMix {
        get: 0,
        insert: 1,
        remove: 1,
    };
    pub const READ_DOMINANT: MapMix = MapMix {
        get: 18,
        insert: 1,
        remove: 1,
    };
    pub const MIXED: MapMix = MapMix {
        get: 2,
        insert: 1,
        remove: 1,
    };

    pub fn new(get: u32, insert: u32, remove: u32) -> Self {
        assert!(get + insert + remove > 0);
        MapMix {
            get,
            insert,
            remove,
        }
    }

    fn total(&self) -> u32 {
        self.get + self.insert + self.remove
    }
}

/// Per-thread generator of map operations.
pub struct MapOpGen {
    mix: MapMix,
    sampler: KeySampler,
}

#[allow(clippy::should_implement_trait)] // generators, not iterators (infinite)
impl MapOpGen {
    pub fn new(mix: MapMix, dist: KeyDist, max_key: u64, seed: u64) -> Self {
        MapOpGen {
            mix,
            sampler: KeySampler::new(dist, max_key, seed),
        }
    }

    pub fn next(&mut self) -> MapOp {
        let r = self.sampler.rng().gen_range(0..self.mix.total());
        let key = self.sampler.next_key();
        if r < self.mix.get {
            MapOp::Get(key)
        } else if r < self.mix.get + self.mix.insert {
            MapOp::Insert(key)
        } else {
            MapOp::Remove(key)
        }
    }
}

/// Per-thread generator of queue operations (alternating 1:1, as in the
/// paper's enqueue:dequeue workload).
pub struct QueueOpGen {
    next_enq: bool,
}

#[allow(clippy::should_implement_trait)] // generators, not iterators (infinite)
impl QueueOpGen {
    pub fn new(start_with_enqueue: bool) -> Self {
        QueueOpGen {
            next_enq: start_with_enqueue,
        }
    }

    pub fn next(&mut self) -> QueueOp {
        let op = if self.next_enq {
            QueueOp::Enqueue
        } else {
            QueueOp::Dequeue
        };
        self.next_enq = !self.next_enq;
        op
    }
}

/// A deterministic value buffer of the given size (contents don't matter for
/// throughput; a recognizable pattern helps debugging).
pub fn value_of(size: usize, salt: u64) -> Vec<u8> {
    let mut v = vec![0u8; size];
    for (i, b) in v.iter_mut().enumerate() {
        *b = (salt as u8).wrapping_add(i as u8);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_gen_alternates() {
        let mut g = QueueOpGen::new(true);
        assert_eq!(g.next(), QueueOp::Enqueue);
        assert_eq!(g.next(), QueueOp::Dequeue);
        assert_eq!(g.next(), QueueOp::Enqueue);
    }

    #[test]
    fn map_mix_ratios_are_respected() {
        let mut g = MapOpGen::new(MapMix::READ_DOMINANT, KeyDist::Uniform, 1_000_000, 5);
        let mut gets = 0;
        let mut writes = 0;
        for _ in 0..20_000 {
            match g.next() {
                MapOp::Get(_) => gets += 1,
                _ => writes += 1,
            }
        }
        let ratio = gets as f64 / writes as f64;
        assert!((7.0..13.0).contains(&ratio), "18:2 ratio drifted: {ratio}");
    }

    #[test]
    fn write_dominant_has_no_gets() {
        let mut g = MapOpGen::new(MapMix::WRITE_DOMINANT, KeyDist::Uniform, 100, 5);
        for _ in 0..1000 {
            assert!(!matches!(g.next(), MapOp::Get(_)));
        }
    }

    #[test]
    fn values_are_sized_and_deterministic() {
        assert_eq!(value_of(1024, 3).len(), 1024);
        assert_eq!(value_of(64, 3), value_of(64, 3));
        assert_ne!(value_of(64, 3), value_of(64, 4));
    }
}
