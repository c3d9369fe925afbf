//! Span recorder for the traced run.
//!
//! Every span is timed on the thread that runs it. Each thread keeps a stack
//! of open spans in thread-local memory; when a span closes, its duration is
//! added to its parent's child time, and its self time (duration minus the
//! part its child spans cover) is added to the thread's per-layer totals.
//! Those totals are registered once per thread in a global list and summed
//! by [`snapshot`] after the traced phase has joined its threads, so the hot
//! path takes no lock. A phase's figures are the difference of two
//! snapshots taken around it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The timed boundaries, one per public call or trait seam of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `workload::TraceSource::next_event`.
    NextEvent,
    /// `workload::MemoryReader::read_line` as the source sees it (a fill).
    Fill,
    /// `coset::Encoder::encode_line`.
    EncodeLine,
    /// `coset::Encoder::encode` and `encode_into` called outside `encode_line`.
    EncodeWord,
    /// `coset::Encoder::decode`.
    Decode,
    /// `protect::CorrectionScheme::can_correct`.
    Judge,
    /// `controller::WritePipeline::write_back` (sequential reference).
    WriteBack,
    /// `controller::WritePipeline::read_line` (sequential reference).
    ReadLine,
    /// `pcm::PcmMemory::write_line_with` (layer replay).
    PcmWrite,
    /// `memcrypt::MemoryEncryption::encrypt_writeback`, the pipeline's own
    /// encryption (layer replay).
    SimEncrypt,
    /// `memcrypt::CtrEngine::encrypt_line` (standalone).
    CtrEncrypt,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 11;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::NextEvent,
        Layer::Fill,
        Layer::EncodeLine,
        Layer::EncodeWord,
        Layer::Decode,
        Layer::Judge,
        Layer::WriteBack,
        Layer::ReadLine,
        Layer::PcmWrite,
        Layer::SimEncrypt,
        Layer::CtrEncrypt,
    ];

    /// The span's name in printed tables.
    pub fn name(self) -> &'static str {
        match self {
            Layer::NextEvent => "workload.next_event",
            Layer::Fill => "workload.fill",
            Layer::EncodeLine => "coset.encode_line",
            Layer::EncodeWord => "coset.encode_word",
            Layer::Decode => "coset.decode",
            Layer::Judge => "protect.can_correct",
            Layer::WriteBack => "controller.write_back",
            Layer::ReadLine => "controller.read_line",
            Layer::PcmWrite => "pcm.write_line_with",
            Layer::SimEncrypt => "memcrypt.encrypt_writeback",
            Layer::CtrEncrypt => "memcrypt.ctr_encrypt_line",
        }
    }
}

/// Accumulated figures of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of span durations minus their child spans, in nanoseconds.
    pub self_ns: u64,
}

impl Totals {
    /// Mean span duration in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ns, self.count) / 1e3
    }

    /// Mean self time in microseconds (0 without spans).
    pub fn mean_self_us(&self) -> f64 {
        per(self.self_ns, self.count) / 1e3
    }
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer totals of every layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot(pub [Totals; LAYERS]);

impl Snapshot {
    /// The totals of one layer.
    pub fn get(&self, layer: Layer) -> Totals {
        self.0[layer as usize]
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(earlier.0.iter()) {
            o.count -= e.count;
            o.total_ns -= e.total_ns;
            o.self_ns -= e.self_ns;
        }
        out
    }
}

/// One thread's totals, shared with the registry so they outlive the thread.
struct ThreadTotals([[AtomicU64; 3]; LAYERS]);

static REGISTRY: Mutex<Vec<Arc<ThreadTotals>>> = Mutex::new(Vec::new());

struct ThreadLog {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    totals: Arc<ThreadTotals>,
}

thread_local! {
    static LOG: RefCell<ThreadLog> = RefCell::new({
        let totals = Arc::new(ThreadTotals(Default::default()));
        // A push leaves the list valid at every step, so a lock poisoned
        // by a panicking thread still guards a usable list.
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&totals));
        ThreadLog { open: Vec::new(), totals }
    });
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_self(layer, f).0
}

/// Runs `f` inside a span of `layer`; also returns the span's self time in
/// nanoseconds.
pub fn span_self<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
    LOG.with(|log| log.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let self_ns = LOG.with(|log| {
        let mut log = log.borrow_mut();
        // PANIC-OK: this call pushed the entry before `f` ran, and every
        // span inside `f` popped only what it pushed.
        let children = log.open.pop().expect("span stack underflow");
        if let Some(parent) = log.open.last_mut() {
            *parent += ns;
        }
        let self_ns = ns.saturating_sub(children);
        let t = &log.totals.0[layer as usize];
        t[0].fetch_add(1, Ordering::Relaxed);
        t[1].fetch_add(ns, Ordering::Relaxed);
        t[2].fetch_add(self_ns, Ordering::Relaxed);
        self_ns
    });
    (out, self_ns)
}

/// Sums every thread's totals. Call it after the threads of a phase have
/// been joined: the join orders their updates before this read.
pub fn snapshot() -> Snapshot {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = Snapshot::default();
    for thread in registry.iter() {
        for (o, t) in out.0.iter_mut().zip(thread.0.iter()) {
            o.count += t[0].load(Ordering::Relaxed);
            o.total_ns += t[1].load(Ordering::Relaxed);
            o.self_ns += t[2].load(Ordering::Relaxed);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let before = snapshot();
        span(Layer::CtrEncrypt, || {
            span(Layer::PcmWrite, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let d = snapshot().since(&before);
        let (outer, inner) = (d.get(Layer::CtrEncrypt), d.get(Layer::PcmWrite));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
