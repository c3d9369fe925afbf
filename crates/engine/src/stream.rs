//! Streaming trace replay: feed the shard pool from a [`TraceSource`]
//! through bounded queues instead of materializing the trace first.
//!
//! [`ShardedEngine::stream_replay`] pulls events from a
//! [`workload::TraceSource`] one at a time on the calling thread (the
//! *producer*) and routes each write-back into a bounded per-shard queue —
//! a single-lane [`ShardMailbox`] from [`crate::lanes`], the substrate the
//! multi-tenant service runs on too; one dedicated worker per shard drains
//! its queue into the shard's pipeline through [`lanes::execute`], so a
//! pipeline panic quarantines the shard without stalling the stream.
//! Backpressure is built in: when a queue is full the producer
//! blocks until the worker catches up, so peak memory is `shards ×
//! queue_capacity` in-flight events plus the source's own state —
//! independent of how many events the stream produces. A 10-million-line
//! workload replays in the same footprint as a 10-thousand-line one.
//!
//! # Memory-backed fills
//!
//! The producer hands the source a [`MemoryReader`] that resolves
//! cache-miss fills against the *modeled memory itself*, on the producer's
//! own thread: a fill for line `L` locks the [`lanes::Cell`] of the shard
//! owning `L`'s row, runs every write still queued for that shard (in
//! queue order, under the same supervision the worker uses), and then
//! reads `L` through [`controller::WritePipeline::read_line`] (decode +
//! decrypt). Because the read runs behind every earlier write to that
//! shard, the fill always observes exactly the memory state a sequential
//! replay would have produced at that point in the stream — without a
//! cross-thread round trip.
//!
//! # Determinism
//!
//! The per-shard command sequences are fixed by the producer's sequential
//! loop — worker scheduling can only change *when* and *on which thread* a
//! command runs, never *which state* it sees (shards own disjoint rows;
//! every command of a shard runs under its cell lock in queue order).
//! Under [`crate::ShardKeying::Unified`] the merged
//! statistics of an N-shard streaming replay are therefore bit-identical
//! to a 1-shard run, to [`ShardedEngine::replay_trace`] over the
//! materialized trace, and to a sequential
//! [`controller::WritePipeline::stream_replay`] — the PR-2 determinism
//! contract extended to the streaming frontend (pinned by the `streaming`
//! integration tests).
//!
//! Unlike the materialized [`ShardedEngine::replay_trace`], streaming
//! spawns **one worker per shard** regardless of the configured thread
//! cap: each shard's mailbox has exactly one consumer, so a worker shared
//! across shards would have to poll several mailboxes, and a busy
//! neighbour would hold back — though never reorder — another shard's
//! writes and, with them, the producer's backpressure.

use std::sync::{Mutex, PoisonError};

use pcm::PcmConfig;
use workload::{LineData, MemoryReader, TraceSource};

use crate::lanes::{self, Cell, InFlightGauge, LaneCloser, ShardMailbox, WorkerGuard};
use crate::ShardedEngine;

/// Default bound on each shard's in-flight event queue (events, not bytes;
/// a [`workload::WriteBack`] is 72 bytes, so the default is ~288 KiB per shard).
pub const DEFAULT_STREAM_QUEUE_CAPACITY: usize = 4096;

/// Outcome of one [`ShardedEngine::stream_replay`] call (the engine's
/// merged statistics are read off the engine afterwards, as with the
/// materialized replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamSummary {
    /// Write-back events streamed through the shard pool.
    pub events: u64,
    /// Cache-miss fills served from the modeled memory (reads that found a
    /// written line; fills of never-written lines fall back to the
    /// source's synthetic pattern and are not counted here).
    pub memory_fills: u64,
    /// Highest number of commands simultaneously in flight across all
    /// shard queues (a single global gauge, not a sum of per-queue peaks)
    /// — always ≤ `shards × queue_capacity`, the structural peak-memory
    /// bound of the streaming path.
    pub max_in_flight: usize,
    /// The per-shard queue bound this replay ran with.
    pub queue_capacity: usize,
    /// Nearest-rank p50 write latency across all shards, in controller
    /// cycles (log-bucket upper bound; see `pcm::LatencyHistogram`). Zero
    /// when the stream produced no writes. Deterministic: computed from
    /// the merged integer histograms, never from wall clocks.
    pub write_p50_cycles: u64,
    /// Nearest-rank p99 write latency in cycles (see `write_p50_cycles`).
    pub write_p99_cycles: u64,
    /// Nearest-rank p99.9 write latency in cycles (see `write_p50_cycles`).
    pub write_p999_cycles: u64,
    /// Events admitted to a shard queue but discarded because the shard was
    /// quarantined (its worker panicked mid-stream, or it entered the
    /// replay already quarantined). Always zero without fault injection.
    pub events_discarded: u64,
    /// Shards quarantined by the end of this replay (including shards that
    /// entered it already quarantined).
    pub shards_quarantined: u32,
}

/// The [`MemoryReader`] the producer hands the source: runs each fill on
/// the calling thread, in the owning shard's cell, behind every write
/// still queued for that shard.
struct ShardedReader<'a, 'p> {
    mailboxes: &'a [ShardMailbox],
    /// One cell per shard (each shard's mailbox has a single lane).
    cells: &'a [Mutex<Cell<'p>>],
    gauge: &'a InFlightGauge,
    config: &'a PcmConfig,
    memory_fills: u64,
}

impl ShardedReader<'_, '_> {
    /// The shard owning a line address (`row % shards`).
    fn shard_of(&self, line_addr: u64) -> usize {
        (self.config.row_of_byte_addr(line_addr) % self.mailboxes.len() as u64) as usize
    }
}

impl MemoryReader for ShardedReader<'_, '_> {
    // PANIC-OK: the shard index is row % shard-count, in bounds by construction.
    fn read_line(&mut self, line_addr: u64) -> Option<LineData> {
        let s = self.shard_of(line_addr);
        let (mut cell, _) = self.mailboxes[s].drain_lane(0, &self.cells[s], self.gauge);
        let answer = lanes::read(&mut cell, line_addr);
        if answer.is_some() {
            self.memory_fills += 1;
        }
        answer
    }
}

impl ShardedEngine {
    /// Replays a streaming [`TraceSource`] to exhaustion across the shard
    /// pool with the default queue bound, servicing the source's
    /// cache-miss fills from the modeled memory. See the [module
    /// docs](self) for the concurrency model and the determinism contract.
    pub fn stream_replay(&mut self, source: &mut dyn TraceSource) -> StreamSummary {
        self.stream_replay_with(source, DEFAULT_STREAM_QUEUE_CAPACITY)
    }

    /// [`ShardedEngine::stream_replay`] with an explicit per-shard queue
    /// bound. Smaller bounds trade throughput for a tighter peak-memory
    /// envelope; results are identical for any capacity ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn stream_replay_with(
        &mut self,
        source: &mut dyn TraceSource,
        queue_capacity: usize,
    ) -> StreamSummary {
        assert!(queue_capacity > 0, "streaming needs a non-zero queue bound");
        let mem_config = self.shards[0].memory().config().clone();
        // One single-lane mailbox per shard: the round-robin pop is a FIFO
        // pop, and one write-back per command keeps the bound in events.
        let mailboxes: Vec<ShardMailbox> = (0..self.config.shards)
            .map(|_| ShardMailbox::new(1, queue_capacity))
            .collect();
        // One cell per shard: the shard's pipeline and quarantine record,
        // shared by its worker and the producer's fills.
        let cells: Vec<Mutex<Cell<'_>>> = self
            .shards
            .iter_mut()
            .zip(&self.quarantined)
            .map(|(pipeline, &dead)| Mutex::new(Cell::new(pipeline, dead)))
            .collect();
        let gauge = InFlightGauge::default();
        let mut events = 0u64;
        let mut memory_fills = 0u64;
        std::thread::scope(|scope| {
            for (mailbox, cell) in mailboxes.iter().zip(&cells) {
                let gauge = &gauge;
                scope.spawn(move || {
                    let _guard = WorkerGuard { mailbox };
                    let cells = std::slice::from_ref(cell);
                    let mut cursor = 0;
                    while mailbox.serve_next(&mut cursor, cells, gauge).is_some() {}
                });
            }

            // Producer: this thread. The closer also drops on a panicking
            // unwind of the source, so the workers always drain and the
            // scope always joins.
            let _closer = LaneCloser {
                mailboxes: &mailboxes,
                lane: 0,
            };
            let mut reader = ShardedReader {
                mailboxes: &mailboxes,
                cells: &cells,
                gauge: &gauge,
                config: &mem_config,
                memory_fills: 0,
            };
            while let Some(wb) = source.next_event(&mut reader) {
                let shard = reader.shard_of(wb.line_addr);
                mailboxes[shard].push(0, vec![wb], &gauge);
                events += 1;
            }
            memory_fills = reader.memory_fills;
        });
        // Each cell hands its quarantine record back to its shard.
        let mut events_discarded = 0;
        for (i, cell) in cells.into_iter().enumerate() {
            let cell = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.quarantined[i] = cell.dead;
            if cell.failure.is_some() {
                self.failures[i] = cell.failure;
            }
            events_discarded += cell.discarded;
        }
        self.discarded_events += events_discarded;

        // The latency percentiles come off the quiesced shards' merged
        // integer histograms — the same numbers a sequential replay
        // produces whenever the shard count divides the bank count (see
        // ShardedEngine::timing_stats).
        let writes = self.timing_stats().writes;
        StreamSummary {
            events,
            memory_fills,
            max_in_flight: gauge.peak(),
            queue_capacity,
            write_p50_cycles: writes.percentile_permille(500),
            write_p99_cycles: writes.percentile_permille(990),
            write_p999_cycles: writes.percentile_permille(999),
            events_discarded,
            shards_quarantined: self.quarantined.iter().filter(|&&q| q).count() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use coset::Vcc;
    use workload::WriteBack;

    use super::*;
    use crate::{relock, WritePipeline};

    /// Runs `f` on a scoped thread and reports whether it panicked.
    fn panics<F: FnOnce() + Send>(f: F) -> bool {
        std::thread::scope(|scope| scope.spawn(f).join().is_err())
    }

    fn wb(line_addr: u64) -> WriteBack {
        WriteBack {
            line_addr,
            data: [line_addr; 8],
        }
    }

    fn pipeline() -> WritePipeline {
        WritePipeline::new(
            PcmConfig::scaled(1 << 20, 1e6),
            Box::new(Vcc::paper_mlc(64)),
        )
    }

    #[test]
    fn bounded_queue_backpressure_and_close() {
        // A shard queue as the stream path runs it: one lane, one
        // write-back per command, so the bound counts events and the worker
        // serves the lane in FIFO order.
        let queues = [ShardMailbox::new(1, 2)];
        let gauge = InFlightGauge::default();
        let mut shard = pipeline();
        let cells = [Mutex::new(Cell::new(&mut shard, false))];
        queues[0].push(0, vec![wb(0)], &gauge);
        queues[0].push(0, vec![wb(64)], &gauge);
        assert_eq!(gauge.peak(), 2);
        let mut cursor = 0;
        let mut served = Vec::new();
        let mut serve = || {
            let mut turn = queues[0].serve_next(&mut cursor, &cells, &gauge).unwrap();
            // The write just served is the newest line the shard holds.
            let newest = [0, 64, 128]
                .into_iter()
                .filter(|&addr| lanes::read(&mut turn.cell, addr).is_some())
                .max();
            served.push(newest.unwrap());
        };
        // A third push must block until a pop frees a slot.
        std::thread::scope(|scope| {
            scope.spawn(|| queues[0].push(0, vec![wb(128)], &gauge));
            serve();
        });
        serve();
        serve();
        assert_eq!(served, vec![0, 64, 128]);
        // The producer's closer ends the stream: the worker's turn returns
        // None once the queue is drained.
        drop(LaneCloser {
            mailboxes: &queues,
            lane: 0,
        });
        assert!(queues[0].serve_next(&mut cursor, &cells, &gauge).is_none());
        // The peak never exceeded the capacity bound.
        assert_eq!(gauge.peak(), 2);
        assert_eq!(gauge.current(), 0);
    }

    #[test]
    fn push_fails_fast_when_the_consumer_died() {
        // A stream worker that dies outside `lanes::execute`'s supervision
        // drops its guard while unwinding: a producer blocked on the full
        // queue, and any later push, panics instead of waiting forever.
        let queue = ShardMailbox::new(1, 1);
        let gauge = InFlightGauge::default();
        queue.push(0, vec![wb(0)], &gauge);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = WorkerGuard { mailbox: &queue };
                panic!("shard worker died before draining its queue");
            });
            let blocked = panics(|| queue.push(0, vec![wb(64)], &gauge));
            assert!(blocked, "push into a dead queue must fail fast");
            assert!(worker.join().is_err());
        });
        let later = panics(|| queue.push(0, vec![wb(128)], &gauge));
        assert!(later, "push into a dead queue must fail fast");
    }

    #[test]
    fn reply_slot_round_trip_and_poison() {
        // The fill router runs each fill on the producer's thread, in the
        // owning shard's cell: a written line answers `Some` (counted as a
        // memory fill), a never-written one `None`, a quarantined shard
        // `None`, and a worker dying while it holds the cell does not hang
        // the fill.
        let (mut healthy, mut sick) = (pipeline(), pipeline());
        let config = healthy.memory().config().clone();
        let shard_of = |addr: u64| config.row_of_byte_addr(addr) % 2;
        let line_on = |shard: u64, nth: usize| {
            (0..)
                .map(|i| i * 64)
                .filter(|&addr| shard_of(addr) == shard)
                .nth(nth)
                .expect("both shards own lines")
        };
        let (written, queued, fresh) = (line_on(0, 0), line_on(0, 1), line_on(0, 2));
        let sick_line = line_on(1, 0);
        healthy.write_back(&wb(written));
        sick.write_back(&wb(sick_line));
        let queues = [ShardMailbox::new(1, 4), ShardMailbox::new(1, 4)];
        let cells = [
            Mutex::new(Cell::new(&mut healthy, false)),
            Mutex::new(Cell::new(&mut sick, true)),
        ];
        let gauge = InFlightGauge::default();
        let mut reader = ShardedReader {
            mailboxes: &queues,
            cells: &cells,
            gauge: &gauge,
            config: &config,
            memory_fills: 0,
        };
        queues[0].push(0, vec![wb(queued)], &gauge);
        assert_eq!(reader.read_line(written), Some([written; 8]));
        assert_eq!(
            reader.read_line(queued),
            Some([queued; 8]),
            "the queued write ran first"
        );
        assert_eq!(reader.read_line(fresh), None);
        assert_eq!(reader.read_line(sick_line), None, "quarantined shard");
        assert_eq!(reader.memory_fills, 2);
        assert_eq!(gauge.current(), 0);

        let (held, released) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = WorkerGuard {
                    mailbox: &queues[0],
                };
                let _cell = relock(&cells[0]);
                held.send(()).unwrap();
                panic!("shard worker died holding its cell");
            });
            released.recv().unwrap();
            assert_eq!(reader.read_line(written), Some([written; 8]));
            assert!(worker.join().is_err());
        });
        assert_eq!(reader.memory_fills, 3);
    }
}
