//! The lane substrate both concurrent frontends run on: bounded command
//! lanes with blocking producers, a round-robin shard worker, and per-lane
//! *cells* that let a lane's own producer run its fills on its own thread.
//!
//! Each shard owns one [`ShardMailbox`] holding one *lane* per producer,
//! and one [`Cell`] per lane: the lane's pipeline and its quarantine state,
//! kept behind one mutex. Every command of a lane runs under that lane's
//! cell lock, whichever thread runs it, and a command is only ever popped
//! while its cell is held, so a lane's commands execute one at a time in
//! exactly the order its producer pushed them.
//!
//! * Producers push batches into their own lane and block while it is full
//!   (backpressure, counted in write-back events, not commands, so batching
//!   cannot inflate the memory bound).
//! * The shard's worker ([`ShardMailbox::serve_next`]) picks a ready lane
//!   round-robin, locks its cell, and only then pops that lane's front
//!   command: one command per lane per turn, the fairness policy.
//! * A producer that needs a fill ([`ShardMailbox::drain_lane`]) locks its
//!   own cell and runs every command still queued in its lane. It keeps the
//!   cell locked to run its own unqueued writes and the [`read`] behind
//!   them, all on its own thread — a fill never waits on another thread
//!   except for the one command that may be running in its cell.
//!
//! Locks are always taken in the order cell → mailbox → a frontend's stats
//! slot, and no thread waits for lane room while holding a cell.
//! `service` runs one lane per tenant;
//! [`crate::ShardedEngine::stream_replay`] runs a single lane per shard.
//!
//! Failure is fail-fast, not fail-silent: [`execute`] and [`read`] catch a
//! pipeline panic and quarantine the cell while its lane keeps draining; a
//! dying worker's [`WorkerGuard`] makes blocked producers panic instead of
//! waiting forever; a dying producer's [`LaneCloser`] lets workers drain
//! and exit.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use controller::WritePipeline;
use workload::{LineData, WriteBack};

use crate::{panic_message, relock};

/// Continues a condvar wait even when the lock was poisoned by an
/// unwinding sibling: the mailbox state is a plain value, consistent at
/// every mutation boundary (the lock-free analogue of [`crate::relock`]).
/// Pipeline panics are supervised inside [`execute`] and [`read`], so
/// poisoning can only come from an unexpected infrastructure failure — and
/// even then the data stays usable.
pub fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tracks the *global* number of events sitting in lanes and the highest
/// value it ever reached (a single gauge across all mailboxes — the true
/// peak, not a sum of per-lane peaks observed at different times).
#[derive(Default)]
pub struct InFlightGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl InFlightGauge {
    /// Records `n` events entering a lane.
    fn add(&self, n: usize) {
        let now = self.current.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records `n` events leaving a lane.
    fn sub(&self, n: usize) {
        self.current.fetch_sub(n, Ordering::Relaxed);
    }

    /// Events queued right now.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// The most events ever queued at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

struct Lane {
    /// Queued commands: batches of write-backs, committed in order.
    items: VecDeque<Vec<WriteBack>>,
    /// Events currently queued in this lane (≤ capacity).
    events: usize,
    closed: bool,
}

struct MailboxState {
    lanes: Vec<Lane>,
    /// Set when the consuming worker died without draining; producers then
    /// fail fast instead of blocking on a mailbox nobody will pop.
    consumer_gone: bool,
    /// Producers waiting in [`ShardMailbox::push`] for lane room.
    blocked_producers: usize,
    /// Workers waiting in [`ShardMailbox::serve_next`] for a command.
    idle_workers: usize,
}

/// A shard's work queues: one bounded lane per producer, one worker.
///
/// Condvars are only notified when the state says someone waits on them
/// (the waiter counts are kept under the mailbox mutex), so the common
/// push into a busy worker's mailbox makes no wake-up call at all.
pub struct ShardMailbox {
    /// Per-lane bound, in events.
    capacity: usize,
    state: Mutex<MailboxState>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl ShardMailbox {
    /// A mailbox of `lanes` empty lanes, each bounded at `capacity` events
    /// (panics if `capacity` is zero).
    pub fn new(lanes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "lanes need a non-zero event bound");
        ShardMailbox {
            capacity,
            state: Mutex::new(MailboxState {
                lanes: (0..lanes)
                    .map(|_| Lane {
                        items: VecDeque::new(),
                        events: 0,
                        closed: false,
                    })
                    .collect(),
                consumer_gone: false,
                blocked_producers: 0,
                idle_workers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while the lane lacks room for `batch` (backpressure), then
    /// enqueues it. Batches must fit the lane (`len ≤ capacity`); the
    /// service enforces `batch ≤ queue_capacity` at construction.
    ///
    /// # Panics
    ///
    /// Panics if the consuming worker died (fail-fast instead of a silent
    /// producer deadlock; the worker's own panic is re-raised at scope
    /// join), or on a closed lane (producer bug).
    // PANIC-OK: `lanes[lane]` — lane ids are assigned densely at construction; out-of-bounds is a wiring bug that should fail loudly.
    pub fn push(&self, lane: usize, batch: Vec<WriteBack>, gauge: &InFlightGauge) {
        let n = batch.len();
        debug_assert!(n <= self.capacity, "command exceeds the lane bound");
        let mut st = relock(&self.state);
        loop {
            assert!(
                !st.consumer_gone,
                "shard worker terminated; cannot enqueue further commands"
            );
            let queue = &st.lanes[lane];
            assert!(!queue.closed, "push into a closed lane");
            if queue.events + n <= self.capacity {
                break;
            }
            st.blocked_producers += 1;
            st = rewait(&self.not_full, st);
            st.blocked_producers -= 1;
        }
        let queue = &mut st.lanes[lane];
        queue.events += n;
        queue.items.push_back(batch);
        gauge.add(n);
        let wake = st.idle_workers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// The worker's turn: waits for a lane with a queued command (scanning
    /// round-robin from `*cursor` and advancing it past the chosen lane),
    /// locks that lane's cell in `cells`, pops the lane's front command
    /// under it and runs it through [`execute`]. Returns `None` once every
    /// lane is closed and drained.
    ///
    /// If the lane's producer drained it between the scan and the lock
    /// (see [`ShardMailbox::drain_lane`]), the turn is simply retaken.
    // PANIC-OK: `cells[lane]` — one cell per lane by construction; the lane id comes from this mailbox's own scan.
    pub fn serve_next<'c, 'p>(
        &self,
        cursor: &mut usize,
        cells: &'c [Mutex<Cell<'p>>],
        gauge: &InFlightGauge,
    ) -> Option<Served<'c, 'p>> {
        loop {
            let lane = self.wait_ready(cursor)?;
            let mut cell = relock(&cells[lane]);
            if let Some((depth, batch)) = self.pop(lane, gauge) {
                execute(&mut cell, &batch);
                return Some(Served { lane, depth, cell });
            }
        }
    }

    /// The reader's side of a fill: locks `lane`'s own `cell` and runs
    /// every command still queued in the lane, in FIFO order, through
    /// [`execute`]. Returns the cell still locked — so the caller can run
    /// its own unqueued writes and the [`read`] behind them before anything
    /// else touches the cell — and the depth the lane held (in events) when
    /// the drain began, `None` if the lane was empty.
    ///
    /// Call only from the lane's own producer: no other thread pushes into
    /// the lane, so the drain leaves it empty.
    pub fn drain_lane<'c, 'p>(
        &self,
        lane: usize,
        cell: &'c Mutex<Cell<'p>>,
        gauge: &InFlightGauge,
    ) -> (MutexGuard<'c, Cell<'p>>, Option<usize>) {
        let mut cell = relock(cell);
        let mut depth = None;
        while let Some((events, batch)) = self.pop(lane, gauge) {
            depth.get_or_insert(events);
            execute(&mut cell, &batch);
        }
        (cell, depth)
    }

    /// Blocks until some lane holds a command and returns the first such
    /// lane at or after `*cursor`, advancing the cursor past it; `None`
    /// once every lane is closed and drained.
    // PANIC-OK: `lanes[t]` with t = turn % lanes.len(), in bounds by construction.
    fn wait_ready(&self, cursor: &mut usize) -> Option<usize> {
        let mut st = relock(&self.state);
        loop {
            let lanes = st.lanes.len();
            let ready = (0..lanes)
                .map(|turn| (*cursor + turn) % lanes)
                .find(|&t| !st.lanes[t].items.is_empty());
            if let Some(t) = ready {
                *cursor = (t + 1) % lanes;
                return Some(t);
            }
            if st.lanes.iter().all(|lane| lane.closed) {
                return None;
            }
            st.idle_workers += 1;
            st = rewait(&self.not_empty, st);
            st.idle_workers -= 1;
        }
    }

    /// Pops `lane`'s front command with the depth (in events, the popped
    /// command included) the lane held. The caller must hold the lane's
    /// cell, so the command runs before anyone else can touch the lane.
    // PANIC-OK: `lanes[lane]` — lane ids are dense by construction.
    fn pop(&self, lane: usize, gauge: &InFlightGauge) -> Option<(usize, Vec<WriteBack>)> {
        let mut st = relock(&self.state);
        let queue = &mut st.lanes[lane];
        let batch = queue.items.pop_front()?;
        let depth = queue.events;
        queue.events -= batch.len();
        gauge.sub(batch.len());
        let wake = st.blocked_producers > 0;
        drop(st);
        if wake {
            self.not_full.notify_all();
        }
        Some((depth, batch))
    }

    /// Closes one lane (no further pushes; the worker drains what remains
    /// and then skips it).
    fn close_lane(&self, lane: usize) {
        let mut st = relock(&self.state);
        st.lanes[lane].closed = true;
        let wake = st.idle_workers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_all();
        }
    }

    /// Marks the consuming worker dead so blocked producers fail fast.
    fn mark_consumer_gone(&self) {
        relock(&self.state).consumer_gone = true;
        self.not_full.notify_all();
    }

    /// Events currently queued in one lane (lane ids are dense by
    /// construction).
    pub fn lane_depth(&self, lane: usize) -> usize {
        relock(&self.state).lanes[lane].events
    }
}

/// One lane's execution state: the pipeline its commands run on and its
/// quarantine record. Each (shard, lane) keeps its cell behind one mutex,
/// and every command of the lane runs under that lock.
pub struct Cell<'p> {
    pipeline: &'p mut WritePipeline,
    /// Set when a command panicked (or the cell entered the run already
    /// quarantined): the pipeline is never touched again, writes are
    /// discarded and reads answer `None`.
    pub dead: bool,
    /// The caught panic's message, when a command of this run quarantined
    /// the cell.
    pub failure: Option<String>,
    /// Write-backs discarded because the cell is quarantined, including the
    /// write whose commit panicked (the panic fires before any mutation, so
    /// that write never landed either).
    pub discarded: u64,
}

impl<'p> Cell<'p> {
    /// A cell running `pipeline`, quarantined from the start if `dead`.
    pub fn new(pipeline: &'p mut WritePipeline, dead: bool) -> Self {
        Cell {
            pipeline,
            dead,
            failure: None,
            discarded: 0,
        }
    }

    /// The cell's pipeline, read-only (commands go through [`execute`]
    /// and [`read`]).
    pub fn pipeline(&self) -> &WritePipeline {
        self.pipeline
    }
}

/// A command [`ShardMailbox::serve_next`] ran.
pub struct Served<'c, 'p> {
    /// The lane it came from.
    pub lane: usize,
    /// The events the lane held when the worker popped it (the popped
    /// command included) — the queue occupancy sample the service's depth
    /// statistics are built from.
    pub depth: usize,
    /// The lane's cell, still locked.
    pub cell: MutexGuard<'c, Cell<'p>>,
}

/// Held by a worker for its whole loop: if the worker thread unwinds, it
/// marks the mailbox dead so blocked producers fail fast instead of
/// deadlocking. (On a normal exit this is a no-op; the worker's own panic
/// is re-raised when the thread scope joins.)
pub struct WorkerGuard<'a> {
    /// The mailbox the worker pops.
    pub mailbox: &'a ShardMailbox,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.mailbox.mark_consumer_gone();
        }
    }
}

/// Held by a producer: when it drops — on normal exit *and* on a panicking
/// unwind of the producer — it closes the producer's lane in every mailbox,
/// so workers always drain and exit and the thread scope always joins.
pub struct LaneCloser<'a> {
    /// Every shard's mailbox.
    pub mailboxes: &'a [ShardMailbox],
    /// The producer's lane id.
    pub lane: usize,
}

impl Drop for LaneCloser<'_> {
    fn drop(&mut self) {
        for mailbox in self.mailboxes {
            mailbox.close_lane(self.lane);
        }
    }
}

/// Commits `batch` on the cell's pipeline, in order, under supervision. A
/// pipeline panic (injected or real) quarantines the cell. A quarantined
/// cell's pipeline is never touched again, but its lane keeps draining —
/// writes are counted as discarded — so producers never block and the run
/// always completes.
pub fn execute(cell: &mut Cell<'_>, batch: &[WriteBack]) {
    for (i, wb) in batch.iter().enumerate() {
        if !cell.dead {
            match catch_unwind(AssertUnwindSafe(|| cell.pipeline.write_back(wb))) {
                Ok(_) => continue,
                Err(payload) => {
                    cell.dead = true;
                    cell.failure = Some(panic_message(payload));
                }
            }
        }
        cell.discarded += (batch.len() - i) as u64;
        break;
    }
}

/// Reads the current contents of a line through the cell's pipeline
/// (decode + decrypt), under the same supervision as [`execute`]: a
/// quarantined cell answers `None`, and a panicking read quarantines the
/// cell and answers `None`.
pub fn read(cell: &mut Cell<'_>, line_addr: u64) -> Option<LineData> {
    if cell.dead {
        return None;
    }
    catch_unwind(AssertUnwindSafe(|| cell.pipeline.read_line(line_addr))).unwrap_or_else(
        |payload| {
            cell.dead = true;
            cell.failure = Some(panic_message(payload));
            None
        },
    )
}

#[cfg(test)]
mod tests {
    use coset::Unencoded;
    use pcm::PcmConfig;

    use super::*;

    fn wb(addr: u64) -> WriteBack {
        WriteBack {
            line_addr: addr,
            data: [addr; 8],
        }
    }

    fn pipeline() -> WritePipeline {
        WritePipeline::new(
            PcmConfig::scaled(1 << 20, 1e6),
            Box::new(Unencoded::new(64)),
        )
    }

    fn cells(pipelines: &mut [WritePipeline]) -> Vec<Mutex<Cell<'_>>> {
        pipelines
            .iter_mut()
            .map(|p| Mutex::new(Cell::new(p, false)))
            .collect()
    }

    fn written(cell: &Mutex<Cell<'_>>) -> u64 {
        relock(cell).pipeline().stats().lines_written
    }

    #[test]
    fn round_robin_serves_lanes_fairly() {
        let mb = ShardMailbox::new(3, 16);
        let gauge = InFlightGauge::default();
        let mut pipelines: Vec<WritePipeline> = (0..3).map(|_| pipeline()).collect();
        let cells = cells(&mut pipelines);
        // Lane 0 floods; lanes 1 and 2 each queue one command.
        for i in 0..4 {
            mb.push(0, vec![wb(64 * i)], &gauge);
        }
        mb.push(1, vec![wb(64)], &gauge);
        mb.push(2, vec![wb(128)], &gauge);
        let mut cursor = 0;
        let order: Vec<usize> = (0..6)
            .map(|_| mb.serve_next(&mut cursor, &cells, &gauge).unwrap().lane)
            .collect();
        // One command per lane per turn: 0,1,2 then 0,0,0 as 1/2 empty.
        assert_eq!(order, vec![0, 1, 2, 0, 0, 0]);
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 6);
        // Each command ran exactly once, in its own lane's cell.
        let runs: Vec<u64> = cells.iter().map(written).collect();
        assert_eq!(runs, vec![4, 1, 1]);
    }

    #[test]
    fn backpressure_bounds_events_not_commands() {
        let mb = ShardMailbox::new(1, 4);
        let gauge = InFlightGauge::default();
        let mut pipelines = [pipeline()];
        let cells = cells(&mut pipelines);
        mb.push(0, vec![wb(0), wb(64), wb(128)], &gauge);
        // A 2-event batch exceeds the bound (3+2 > 4): must block until the
        // first batch is popped.
        std::thread::scope(|scope| {
            scope.spawn(|| mb.push(0, vec![wb(192), wb(256)], &gauge));
            let mut cursor = 0;
            let served = mb.serve_next(&mut cursor, &cells, &gauge).unwrap();
            assert_eq!((served.lane, served.depth), (0, 3));
            assert_eq!(served.cell.pipeline().stats().lines_written, 3);
        });
        assert_eq!(mb.lane_depth(0), 2);
        assert!(gauge.peak() <= 5, "bound is capacity + one in-pop batch");
    }

    #[test]
    fn close_and_drain_terminates_the_consumer() {
        let mb = ShardMailbox::new(2, 4);
        let gauge = InFlightGauge::default();
        let mut pipelines = [pipeline(), pipeline()];
        let cells = cells(&mut pipelines);
        mb.push(0, vec![wb(0)], &gauge);
        mb.push(0, vec![wb(64), wb(128)], &gauge);
        mb.close_lane(0);
        mb.close_lane(1);
        let mut cursor = 0;
        // A lane is FIFO, and a closed lane still drains: the one-event
        // batch first (lane depth 3), then the two-event one (depth 2).
        for (depth, total) in [(3, 1), (2, 3)] {
            let served = mb.serve_next(&mut cursor, &cells, &gauge).unwrap();
            assert_eq!((served.lane, served.depth), (0, depth));
            assert_eq!(served.cell.pipeline().stats().lines_written, total);
        }
        assert!(mb.serve_next(&mut cursor, &cells, &gauge).is_none());
    }

    #[test]
    fn push_fails_fast_when_the_consumer_died() {
        let mb = ShardMailbox::new(1, 1);
        let gauge = InFlightGauge::default();
        mb.push(0, vec![wb(0)], &gauge);
        mb.mark_consumer_gone();
        let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mb.push(0, vec![wb(64)], &gauge)
        }));
        assert!(blocked.is_err(), "push into a dead mailbox must fail fast");
    }

    #[test]
    fn reply_slot_round_trip_and_poison() {
        // The fill path: the reader drains its own lane in its cell and
        // reads behind it. A written line answers `Some`, a never-written
        // one `None`.
        let mb = ShardMailbox::new(1, 4);
        let gauge = InFlightGauge::default();
        let mut pipelines = [pipeline()];
        let cells = cells(&mut pipelines);
        mb.push(0, vec![wb(64)], &gauge);
        {
            let (mut cell, depth) = mb.drain_lane(0, &cells[0], &gauge);
            assert_eq!(depth, Some(1));
            assert_eq!(read(&mut cell, 64), Some([64; 8]));
            assert_eq!(read(&mut cell, 1 << 16), None);
            assert_eq!(cell.pipeline().stats().lines_written, 1);
        }
        assert_eq!(gauge.current(), 0);

        // A quarantined cell discards its queued writes and answers `None`.
        let mut sick = pipeline();
        let sick_cell = Mutex::new(Cell::new(&mut sick, true));
        mb.push(0, vec![wb(128)], &gauge);
        {
            let (mut cell, _) = mb.drain_lane(0, &sick_cell, &gauge);
            assert_eq!(read(&mut cell, 128), None);
            assert_eq!(cell.discarded, 1);
            assert_eq!(cell.pipeline().stats().lines_written, 0);
        }

        // A worker dying while it holds the cell poisons the lock, but the
        // reader waiting on that cell still gets through and reads.
        let (held, released) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = WorkerGuard { mailbox: &mb };
                let _cell = relock(&cells[0]);
                held.send(()).unwrap();
                panic!("shard worker died holding a cell");
            });
            released.recv().unwrap();
            let (mut cell, _) = mb.drain_lane(0, &cells[0], &gauge);
            assert_eq!(read(&mut cell, 64), Some([64; 8]));
            drop(cell);
            assert!(worker.join().is_err());
        });
    }

    #[test]
    fn reader_drains_race_the_worker_without_losing_or_reordering_commands() {
        // A reader draining its lane while the worker pops concurrently:
        // every command runs exactly once and in push order, so the
        // pipeline ends bit-identical to a sequential replay of the same
        // writes and reads, and every read sees the sequential answer.
        let ops: Vec<(bool, u64)> = (0..600u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                (x % 5 == 0, 64 * (x % 48))
            })
            .collect();
        let write = |i: usize, addr: u64| WriteBack {
            line_addr: addr,
            data: [i as u64; 8],
        };

        let mut sequential = pipeline();
        let mut expected = Vec::new();
        for (i, &(is_read, addr)) in ops.iter().enumerate() {
            if is_read {
                expected.push(sequential.read_line(addr));
            } else {
                sequential.write_back(&write(i, addr));
            }
        }

        let mb = ShardMailbox::new(1, 8);
        let gauge = InFlightGauge::default();
        let mut pipelines = [pipeline()];
        let cells = cells(&mut pipelines);
        let mut answers = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = WorkerGuard { mailbox: &mb };
                let mut cursor = 0;
                while mb.serve_next(&mut cursor, &cells, &gauge).is_some() {}
            });
            let _closer = LaneCloser {
                mailboxes: std::slice::from_ref(&mb),
                lane: 0,
            };
            for (i, &(is_read, addr)) in ops.iter().enumerate() {
                if is_read {
                    let (mut cell, _) = mb.drain_lane(0, &cells[0], &gauge);
                    answers.push(read(&mut cell, addr));
                } else {
                    mb.push(0, vec![write(i, addr)], &gauge);
                }
            }
        });
        assert_eq!(answers, expected);
        let fingerprint = |p: &WritePipeline| {
            format!(
                "{:?}|{:?}|{:?}",
                p.stats(),
                p.memory_stats(),
                p.timing_stats()
            )
        };
        assert_eq!(fingerprint(&pipelines[0]), fingerprint(&sequential));
    }
}
