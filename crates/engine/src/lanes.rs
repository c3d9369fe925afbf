//! The lane substrate both concurrent frontends run on: bounded command
//! lanes with blocking producers, round-robin consumers, a one-slot fill
//! rendezvous and supervised command execution with fail-fast coupling.
//!
//! Each shard owns one [`ShardMailbox`] holding one *lane* per producer.
//! Producers push into their own lane and block while it is full
//! (backpressure, counted in write-back events, not commands, so batching
//! cannot inflate the memory bound); the shard's one worker pops across
//! lanes round-robin, one command per lane per turn. `service` runs one
//! lane per tenant; [`crate::ShardedEngine::stream_replay`] runs a single
//! lane per shard, where the round-robin pop is a FIFO pop.
//!
//! Failure is fail-fast, not fail-silent: [`execute`] catches a pipeline
//! panic and quarantines the pipeline while its lane keeps draining; a
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
/// unwinding sibling: the mailbox/reply state is a plain value, consistent
/// at every mutation boundary (the lock-free analogue of
/// [`crate::relock`]). Pipeline panics are supervised inside [`execute`],
/// so poisoning can only come from an unexpected infrastructure failure —
/// and even then the data stays usable.
pub fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One command in a lane: a batch of write-backs to commit or a fill read
/// to answer through the producer's [`ReplySlot`].
pub enum Cmd {
    /// Commit every write-back, in order.
    Batch(Vec<WriteBack>),
    /// Read the current contents of a line (fill-read rendezvous).
    Read(u64),
}

impl Cmd {
    /// How many in-flight events this command represents (a read counts as
    /// one event; a batch as its length).
    fn events(&self) -> usize {
        match self {
            Cmd::Batch(batch) => batch.len(),
            Cmd::Read(_) => 1,
        }
    }
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
    items: VecDeque<Cmd>,
    /// Events currently queued in this lane (≤ capacity).
    events: usize,
    closed: bool,
}

struct MailboxState {
    lanes: Vec<Lane>,
    /// Set when the consuming worker died without draining; producers then
    /// fail fast instead of blocking on a mailbox nobody will pop.
    consumer_gone: bool,
}

/// A shard's work queues: one bounded lane per producer, one consumer.
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
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocks while the lane lacks room for `cmd` (backpressure), then
    /// enqueues it. Commands must fit the lane (`events() ≤ capacity`);
    /// the service enforces `batch ≤ queue_capacity` at construction.
    ///
    /// # Panics
    ///
    /// Panics if the consuming worker died (fail-fast instead of a silent
    /// producer deadlock; the worker's own panic is re-raised at scope
    /// join), or on a closed lane (producer bug).
    // PANIC-OK: `lanes[lane]` — lane ids are assigned densely at construction; out-of-bounds is a wiring bug that should fail loudly.
    pub fn push(&self, lane: usize, cmd: Cmd, gauge: &InFlightGauge) {
        let n = cmd.events();
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
            st = rewait(&self.not_full, st);
        }
        let queue = &mut st.lanes[lane];
        queue.events += n;
        queue.items.push_back(cmd);
        gauge.add(n);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Pops the next command round-robin across lanes, starting the scan at
    /// `*cursor` and advancing it past the served lane (each lane gets at
    /// most one command per turn — the fairness policy). Blocks while all
    /// lanes are empty but at least one is open; returns `None` once every
    /// lane is closed and drained.
    ///
    /// Returns `(lane, depth, cmd)`, where `depth` is the number of events
    /// the served lane held when the worker turned to it (popped command
    /// included) — the queue occupancy sample the service's p50 depth
    /// statistics are built from.
    // PANIC-OK: `lanes[t]` with t = turn % lanes.len(), in bounds by construction.
    pub fn pop_round_robin(
        &self,
        cursor: &mut usize,
        gauge: &InFlightGauge,
    ) -> Option<(usize, usize, Cmd)> {
        let mut st = relock(&self.state);
        loop {
            let lanes = st.lanes.len();
            for turn in 0..lanes {
                let t = (*cursor + turn) % lanes;
                let lane = &mut st.lanes[t];
                if let Some(cmd) = lane.items.pop_front() {
                    let depth = lane.events;
                    lane.events -= cmd.events();
                    gauge.sub(cmd.events());
                    *cursor = (t + 1) % lanes;
                    drop(st);
                    self.not_full.notify_all();
                    return Some((t, depth, cmd));
                }
            }
            if st.lanes.iter().all(|lane| lane.closed) {
                return None;
            }
            st = rewait(&self.not_empty, st);
        }
    }

    /// Closes one lane (no further pushes; the worker drains what remains
    /// and then skips it).
    fn close_lane(&self, lane: usize) {
        let mut st = relock(&self.state);
        st.lanes[lane].closed = true;
        drop(st);
        self.not_empty.notify_all();
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

/// The current state of a pending fill-read answer.
#[derive(Default)]
struct ReplyState {
    value: Option<Option<LineData>>,
    poisoned: bool,
}

/// A producer's one-slot rendezvous for fill-read answers (each producer
/// issues at most one read at a time, so one slot per producer suffices).
#[derive(Default)]
pub struct ReplySlot {
    slot: Mutex<ReplyState>,
    ready: Condvar,
}

impl ReplySlot {
    /// Delivers a fill-read answer to the waiting producer.
    fn put(&self, value: Option<LineData>) {
        relock(&self.slot).value = Some(value);
        self.ready.notify_one();
    }

    /// Marks the slot dead so a producer waiting for an answer fails fast
    /// (used when a worker thread dies outside [`execute`]'s supervision).
    fn poison(&self) {
        relock(&self.slot).poisoned = true;
        self.ready.notify_all();
    }

    /// Blocks until the answer arrives and takes it; panics instead if the
    /// slot is poisoned while no answer is pending.
    pub fn take(&self) -> Option<LineData> {
        let mut st = relock(&self.slot);
        loop {
            if let Some(value) = st.value.take() {
                return value;
            }
            assert!(
                !st.poisoned,
                "shard worker terminated while a fill read was pending"
            );
            st = rewait(&self.ready, st);
        }
    }
}

/// Held by a worker for its whole loop: if the worker thread unwinds, it
/// marks the mailbox dead and poisons every reply slot the worker answers,
/// so blocked producers fail fast instead of deadlocking. (On a normal exit
/// this is a no-op; the worker's own panic is re-raised when the thread
/// scope joins.)
pub struct WorkerGuard<'a> {
    /// The mailbox the worker pops.
    pub mailbox: &'a ShardMailbox,
    /// The reply slots the worker answers fill reads through.
    pub replies: &'a [ReplySlot],
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.mailbox.mark_consumer_gone();
            for slot in self.replies {
                slot.poison();
            }
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

/// What [`execute`] did with one command.
#[derive(Default)]
pub struct Executed {
    /// Fill reads answered (0 or 1).
    pub reads: u64,
    /// Write-backs discarded because the pipeline is quarantined, including
    /// the write whose commit panicked (the panic fires before any
    /// mutation, so that write never landed either).
    pub discarded: u64,
    /// The caught panic's message, when this command quarantined the
    /// pipeline.
    pub failure: Option<String>,
}

/// Runs one command on `pipeline` under supervision. A pipeline panic
/// (injected or real) sets `*dead`, quarantining the pipeline. A dead
/// pipeline is never touched again, but its lane keeps draining —
/// writes are discarded and reads are answered with `None` — so producers
/// never block and the run always completes. Every read is answered
/// through `reply`.
pub fn execute(
    pipeline: &mut WritePipeline,
    cmd: Cmd,
    dead: &mut bool,
    reply: &ReplySlot,
) -> Executed {
    let mut done = Executed::default();
    match cmd {
        Cmd::Batch(batch) => {
            for (i, wb) in batch.iter().enumerate() {
                if !*dead {
                    match catch_unwind(AssertUnwindSafe(|| pipeline.write_back(wb))) {
                        Ok(_) => continue,
                        Err(payload) => {
                            *dead = true;
                            done.failure = Some(panic_message(payload));
                        }
                    }
                }
                done.discarded = (batch.len() - i) as u64;
                break;
            }
        }
        Cmd::Read(addr) => {
            let answer = if *dead {
                None
            } else {
                catch_unwind(AssertUnwindSafe(|| pipeline.read_line(addr))).unwrap_or_else(
                    |payload| {
                        *dead = true;
                        done.failure = Some(panic_message(payload));
                        None
                    },
                )
            };
            reply.put(answer);
            done.reads = 1;
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb(addr: u64) -> WriteBack {
        WriteBack {
            line_addr: addr,
            data: [addr; 8],
        }
    }

    #[test]
    fn round_robin_serves_lanes_fairly() {
        let mb = ShardMailbox::new(3, 16);
        let gauge = InFlightGauge::default();
        // Lane 0 floods; lanes 1 and 2 each queue one command.
        for i in 0..4 {
            mb.push(0, Cmd::Batch(vec![wb(i)]), &gauge);
        }
        mb.push(1, Cmd::Read(64), &gauge);
        mb.push(2, Cmd::Read(128), &gauge);
        let mut cursor = 0;
        let order: Vec<usize> = (0..6)
            .map(|_| {
                let (t, _, _) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
                t
            })
            .collect();
        // One command per lane per turn: 0,1,2 then 0,0,0 as 1/2 empty.
        assert_eq!(order, vec![0, 1, 2, 0, 0, 0]);
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 6);
    }

    #[test]
    fn backpressure_bounds_events_not_commands() {
        let mb = ShardMailbox::new(1, 4);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Batch(vec![wb(0), wb(1), wb(2)]), &gauge);
        // A 2-event batch exceeds the bound (3+2 > 4): must block until the
        // first batch is popped.
        std::thread::scope(|scope| {
            scope.spawn(|| mb.push(0, Cmd::Batch(vec![wb(3), wb(4)]), &gauge));
            let mut cursor = 0;
            let (t, depth, cmd) = mb.pop_round_robin(&mut cursor, &gauge).unwrap();
            assert_eq!((t, depth), (0, 3));
            assert_eq!(cmd.events(), 3);
        });
        assert_eq!(mb.lane_depth(0), 2);
        assert!(gauge.peak() <= 5, "bound is capacity + one in-pop batch");
    }

    #[test]
    fn close_and_drain_terminates_the_consumer() {
        let mb = ShardMailbox::new(2, 4);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Read(0), &gauge);
        mb.push(0, Cmd::Read(64), &gauge);
        mb.close_lane(0);
        mb.close_lane(1);
        let mut cursor = 0;
        // A lane is FIFO, and a closed lane still drains.
        for addr in [0, 64] {
            let popped = mb.pop_round_robin(&mut cursor, &gauge);
            assert!(matches!(popped, Some((0, _, Cmd::Read(a))) if a == addr));
        }
        assert!(mb.pop_round_robin(&mut cursor, &gauge).is_none());
    }

    #[test]
    fn push_fails_fast_when_the_consumer_died() {
        let mb = ShardMailbox::new(1, 1);
        let gauge = InFlightGauge::default();
        mb.push(0, Cmd::Read(0), &gauge);
        mb.mark_consumer_gone();
        let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mb.push(0, Cmd::Read(64), &gauge)
        }));
        assert!(blocked.is_err(), "push into a dead mailbox must fail fast");
    }

    #[test]
    fn reply_slot_round_trip_and_poison() {
        let slot = ReplySlot::default();
        std::thread::scope(|scope| {
            scope.spawn(|| slot.put(Some([3u64; 8])));
            assert_eq!(slot.take(), Some([3u64; 8]));
        });
        std::thread::scope(|scope| {
            scope.spawn(|| slot.put(None));
            assert_eq!(slot.take(), None);
        });
        slot.poison();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.take()));
        assert!(
            poisoned.is_err(),
            "take from a poisoned slot must fail fast"
        );
    }
}
