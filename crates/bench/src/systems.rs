//! Construction of every benchmarked system behind the uniform interfaces.

use std::sync::Arc;
use std::time::Duration;

use baselines::api::{BenchMap, BenchQueue, Key32};
use baselines::dali::DaliHashMap;
use baselines::friedman::FriedmanQueue;
use baselines::mnemosyne::{Mnemosyne, MnemosyneMap, MnemosyneQueue};
use baselines::mod_ds::{ModHashMap, ModQueue};
use baselines::nvtraverse::NvTraverseHashMap;
use baselines::pronto::{Mode as ProntoMode, ProntoMap, ProntoQueue};
use baselines::soft::SoftHashMap;
use baselines::transient::{Arena, TransientHashMap, TransientQueue};
use montage::{Advancer, EpochSys, EsysConfig, ThreadId};
use montage_ds::{tags, MontageHashMap, MontageQueue};
use pmem::{LatencyModel, PmemConfig, PmemMode, PmemPool};
use ralloc::Ralloc;

use crate::harness::BenchParams;

/// Keeps background machinery (advancers, flushers, epoch systems) alive for
/// the duration of a data point.
#[derive(Default)]
pub struct SystemHold {
    items: Vec<Box<dyn std::any::Any + Send>>,
    /// Montage sync hook (None for other systems).
    pub sync: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl SystemHold {
    fn keep<T: Send + 'static>(&mut self, v: T) -> &mut Self {
        self.items.push(Box::new(v));
        self
    }
}

/// A fast-mode pool charging Optane latencies — the NVM every figure runs on.
pub fn nvm_pool(bytes: usize) -> PmemPool {
    PmemPool::new(PmemConfig {
        size: bytes.next_multiple_of(64),
        mode: PmemMode::Fast,
        latency: LatencyModel::OPTANE,
        chaos: Default::default(),
    })
}

fn map_pool_bytes(p: &BenchParams) -> usize {
    // Preload + churn headroom + allocator slack; generous but bounded.
    (64 << 20) + p.preload as usize * (p.value_size + 256) * 4
}

fn queue_pool_bytes(p: &BenchParams) -> usize {
    (64 << 20) + p.value_size * 64 * 1024
}

fn montage_sys(p: &BenchParams, cfg: EsysConfig, pool_bytes: usize) -> (Arc<EpochSys>, SystemHold) {
    let cfg = EsysConfig {
        max_threads: (p.threads + 2).max(cfg.max_threads.min(p.threads + 2)),
        ..cfg
    };
    let esys = EpochSys::format(nvm_pool(pool_bytes), cfg);
    // Pre-register worker tids 0..threads so harness tids map directly.
    for _ in 0..p.threads {
        esys.register_thread();
    }
    let mut hold = SystemHold::default();
    if cfg.persist != montage::PersistStrategy::None {
        hold.keep(Advancer::start(esys.clone()));
    }
    let e2 = esys.clone();
    hold.sync = Some(Arc::new(move || e2.sync()));
    (esys, hold)
}

/// Builds a Montage hashmap under an explicit [`EsysConfig`] — the Fig. 4
/// design-space axis (buffer size × epoch length × free strategy).
pub fn montage_map_with(cfg: EsysConfig, p: &BenchParams) -> (Arc<dyn BenchMap>, SystemHold) {
    let (esys, hold) = montage_sys(p, cfg, map_pool_bytes(p));
    (
        Arc::new(MontageMapAdapter(MontageHashMap::new(
            esys,
            tags::HASHMAP,
            p.nbuckets(),
        ))),
        hold,
    )
}

/// Builds a Montage queue under an explicit [`EsysConfig`] (Fig. 5).
pub fn montage_queue_with(cfg: EsysConfig, p: &BenchParams) -> (Arc<dyn BenchQueue>, SystemHold) {
    let (esys, hold) = montage_sys(p, cfg, queue_pool_bytes(p));
    (
        Arc::new(MontageQueueAdapter(MontageQueue::new(esys, tags::QUEUE))),
        hold,
    )
}

// ---------------------------------------------------------------------------
// Queue systems (paper Fig. 5/6/8a)
// ---------------------------------------------------------------------------

/// Queue systems in the paper's Fig. 6 legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSystem {
    DramT,
    NvmT,
    MontageT,
    Montage,
    Friedman,
    Mod,
    ProntoFull,
    ProntoSync,
    Mnemosyne,
}

impl QueueSystem {
    pub const ALL: [QueueSystem; 9] = [
        QueueSystem::DramT,
        QueueSystem::NvmT,
        QueueSystem::MontageT,
        QueueSystem::Montage,
        QueueSystem::Friedman,
        QueueSystem::Mod,
        QueueSystem::ProntoFull,
        QueueSystem::ProntoSync,
        QueueSystem::Mnemosyne,
    ];

    pub fn label(self) -> &'static str {
        match self {
            QueueSystem::DramT => "DRAM (T)",
            QueueSystem::NvmT => "NVM (T)",
            QueueSystem::MontageT => "Montage (T)",
            QueueSystem::Montage => "Montage",
            QueueSystem::Friedman => "Friedman",
            QueueSystem::Mod => "MOD",
            QueueSystem::ProntoFull => "Pronto-Full",
            QueueSystem::ProntoSync => "Pronto-Sync",
            QueueSystem::Mnemosyne => "Mnemosyne",
        }
    }
}

struct MontageQueueAdapter(MontageQueue);

impl BenchQueue for MontageQueueAdapter {
    fn enqueue(&self, tid: usize, value: &[u8]) {
        self.0.enqueue(ThreadId(tid), value);
    }
    fn dequeue(&self, tid: usize) -> bool {
        self.0.dequeue_with(ThreadId(tid), |_| ()).is_some()
    }
}

/// Builds a queue system sized for `p`.
pub fn build_queue(sys: QueueSystem, p: &BenchParams) -> (Arc<dyn BenchQueue>, SystemHold) {
    let bytes = queue_pool_bytes(p);
    match sys {
        QueueSystem::DramT => (
            Arc::new(TransientQueue::new(Arena::Dram)),
            SystemHold::default(),
        ),
        QueueSystem::NvmT => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(TransientQueue::new(Arena::Nvm(r))),
                SystemHold::default(),
            )
        }
        QueueSystem::MontageT => montage_queue_with(EsysConfig::transient(), p),
        QueueSystem::Montage => montage_queue_with(EsysConfig::default(), p),
        QueueSystem::Friedman => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(FriedmanQueue::new(r, p.threads.max(1))),
                SystemHold::default(),
            )
        }
        QueueSystem::Mod => {
            let r = Ralloc::format(nvm_pool(bytes));
            (Arc::new(ModQueue::new(r)), SystemHold::default())
        }
        QueueSystem::ProntoFull => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(ProntoQueue::new(&r, ProntoMode::Full, p.threads.max(1))),
                SystemHold::default(),
            )
        }
        QueueSystem::ProntoSync => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(ProntoQueue::new(&r, ProntoMode::Sync, p.threads.max(1))),
                SystemHold::default(),
            )
        }
        QueueSystem::Mnemosyne => {
            let r = Ralloc::format(nvm_pool(bytes));
            let sys = Mnemosyne::new(r, p.threads.max(1));
            (Arc::new(MnemosyneQueue::new(sys)), SystemHold::default())
        }
    }
}

// ---------------------------------------------------------------------------
// Map systems (paper Fig. 4/7/8b/9)
// ---------------------------------------------------------------------------

/// Map systems in the paper's Fig. 7 legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapSystem {
    DramT,
    NvmT,
    MontageT,
    Montage,
    /// Montage with per-op write-back ("Montage (dw)" in Fig. 9).
    MontageDw,
    Dali,
    Soft,
    NvTraverse,
    Mod,
    ProntoFull,
    ProntoSync,
    Mnemosyne,
}

impl MapSystem {
    /// The Fig. 7 line-up (excludes the Fig. 9-only `MontageDw`).
    pub const FIG7: [MapSystem; 11] = [
        MapSystem::DramT,
        MapSystem::NvmT,
        MapSystem::MontageT,
        MapSystem::Montage,
        MapSystem::Dali,
        MapSystem::Soft,
        MapSystem::NvTraverse,
        MapSystem::Mod,
        MapSystem::ProntoFull,
        MapSystem::ProntoSync,
        MapSystem::Mnemosyne,
    ];

    pub fn label(self) -> &'static str {
        match self {
            MapSystem::DramT => "DRAM (T)",
            MapSystem::NvmT => "NVM (T)",
            MapSystem::MontageT => "Montage (T)",
            MapSystem::Montage => "Montage",
            MapSystem::MontageDw => "Montage (dw)",
            MapSystem::Dali => "Dali",
            MapSystem::Soft => "SOFT",
            MapSystem::NvTraverse => "NVTraverse",
            MapSystem::Mod => "MOD",
            MapSystem::ProntoFull => "Pronto-Full",
            MapSystem::ProntoSync => "Pronto-Sync",
            MapSystem::Mnemosyne => "Mnemosyne",
        }
    }
}

struct MontageMapAdapter(MontageHashMap<Key32>);

impl BenchMap for MontageMapAdapter {
    fn get(&self, tid: usize, key: &Key32) -> bool {
        self.0.get(ThreadId(tid), key, |_| ()).is_some()
    }
    fn insert(&self, tid: usize, key: Key32, value: &[u8]) -> bool {
        self.0.insert(ThreadId(tid), key, value)
    }
    fn remove(&self, tid: usize, key: &Key32) -> bool {
        self.0.remove(ThreadId(tid), key)
    }
}

/// Builds a map system sized for `p`. `nbuckets` follows the paper's 0.5
/// load factor.
pub fn build_map(sys: MapSystem, p: &BenchParams) -> (Arc<dyn BenchMap>, SystemHold) {
    let bytes = map_pool_bytes(p);
    let nbuckets = p.nbuckets();
    match sys {
        MapSystem::DramT => (
            Arc::new(TransientHashMap::new(Arena::Dram, nbuckets)),
            SystemHold::default(),
        ),
        MapSystem::NvmT => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(TransientHashMap::new(Arena::Nvm(r), nbuckets)),
                SystemHold::default(),
            )
        }
        MapSystem::MontageT => montage_map_with(EsysConfig::transient(), p),
        MapSystem::Montage => montage_map_with(EsysConfig::default(), p),
        MapSystem::MontageDw => montage_map_with(
            EsysConfig {
                persist: montage::PersistStrategy::DirWB,
                ..Default::default()
            },
            p,
        ),
        MapSystem::Dali => {
            let r = Ralloc::format(nvm_pool(bytes));
            let m = Arc::new(DaliHashMap::new(r, nbuckets));
            let mut hold = SystemHold::default();
            hold.keep(m.start_flusher(Duration::from_millis(10)));
            (m, hold)
        }
        MapSystem::Soft => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(SoftHashMap::new(r, nbuckets)),
                SystemHold::default(),
            )
        }
        MapSystem::NvTraverse => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(NvTraverseHashMap::new(r, nbuckets)),
                SystemHold::default(),
            )
        }
        MapSystem::Mod => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(ModHashMap::new(r, nbuckets)),
                SystemHold::default(),
            )
        }
        MapSystem::ProntoFull => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(ProntoMap::new(
                    &r,
                    ProntoMode::Full,
                    p.threads.max(1),
                    nbuckets,
                )),
                SystemHold::default(),
            )
        }
        MapSystem::ProntoSync => {
            let r = Ralloc::format(nvm_pool(bytes));
            (
                Arc::new(ProntoMap::new(
                    &r,
                    ProntoMode::Sync,
                    p.threads.max(1),
                    nbuckets,
                )),
                SystemHold::default(),
            )
        }
        MapSystem::Mnemosyne => {
            let r = Ralloc::format(nvm_pool(bytes));
            let sys = Mnemosyne::new(r, p.threads.max(1));
            (
                Arc::new(MnemosyneMap::new(sys, nbuckets)),
                SystemHold::default(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_map_bench, run_queue_bench};
    use std::time::Duration;
    use workloads::mix::MapMix;

    fn tiny() -> BenchParams {
        BenchParams {
            threads: 1,
            duration: Duration::from_millis(20),
            value_size: 64,
            key_range: 500,
            preload: 200,
        }
    }

    #[test]
    fn every_queue_system_runs() {
        for sys in QueueSystem::ALL {
            let (q, _hold) = build_queue(sys, &tiny());
            let tput = run_queue_bench(q.as_ref(), tiny());
            assert!(tput > 0.0, "{} produced no ops", sys.label());
        }
    }

    #[test]
    fn every_map_system_runs() {
        for sys in MapSystem::FIG7 {
            let (m, _hold) = build_map(sys, &tiny());
            let tput = run_map_bench(m.as_ref(), MapMix::MIXED, tiny());
            assert!(tput > 0.0, "{} produced no ops", sys.label());
        }
    }

    #[test]
    fn montage_hold_provides_sync() {
        let (_m, hold) = build_map(MapSystem::Montage, &tiny());
        (hold.sync.as_ref().expect("montage must expose sync"))();
    }
}
