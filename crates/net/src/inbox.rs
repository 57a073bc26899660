//! The shard inbox, and the bounded event queue the runtimes publish
//! transitions on.
//!
//! [`Inbox`] is the one queue between the ingest path and a shard
//! worker. Its contract:
//!
//! * **Bounded, drop-oldest, never blocking.** [`Inbox::push`] enqueues
//!   a batch under one lock and evicts the oldest jobs to make room —
//!   queued ones first, then the front of the batch itself if the batch
//!   alone exceeds the capacity — and returns how many it evicted.
//! * **One producer, in arrival order.** The worker's sweep horizon is
//!   exact only if no queued job arrived before one already taken
//!   ([`crate::shard`]'s `sweep_horizon`). The inbox does not enforce
//!   that: `push` counts each job whose arrival is earlier than the
//!   latest arrival already pushed (one compare per job, under the lock
//!   it holds anyway), so a second producer shows in
//!   `twofd_shard_out_of_order_total`. It never panics on one and never
//!   reorders.
//! * **One consumer, the worker.** [`Inbox::take`] moves up to a pass's
//!   worth of the oldest jobs out under one lock. [`Inbox::park`] is one
//!   bounded wait that a push or [`Inbox::close`] ends; the worker
//!   re-checks after it, so a timeout or a spurious wake is harmless and
//!   nothing here reads a clock. A push notifies only a parked worker.
//! * **An `applied` watermark.** `take` is called by a worker that has
//!   finished applying what its previous `take` returned, so every job
//!   ahead of the queue's head is then applied or evicted; `take`
//!   records that position. [`Inbox::flush`] waits until the watermark
//!   covers every job pushed before it, and `take` notifies only when a
//!   flusher waits. A worker always takes again after a pass that
//!   applied something, so the last pass's jobs are covered by the next
//!   take, which finds the queue empty and parks.
//!
//! The inbox's primitives come from a facade: `std::sync` in ordinary
//! builds, `twofd-check`'s instrumented shims under `--cfg twofd_check`,
//! so the model-check suite explores the real queue. [`Events`] has no
//! model suite and uses `std::sync` directly.

use crate::shard::Job;
use crate::unpoison;
use std::collections::VecDeque;
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::time::Duration;
use twofd_obs::Counter;
use twofd_sim::time::Nanos;

#[cfg(not(twofd_check))]
use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(twofd_check)]
use twofd_check::sync::{Condvar, Mutex, MutexGuard};

/// A shard's bounded, drop-oldest job queue (see the module docs for
/// its contract).
pub struct Inbox {
    state: Mutex<InboxState>,
    capacity: usize,
    /// Ends the worker's park; signalled only while it is parked.
    work: Condvar,
    /// Wakes flushers when the watermark moves; signalled only while
    /// one waits.
    applied: Condvar,
}

struct InboxState {
    queue: VecDeque<Job>,
    /// Jobs ever pushed, the evicted included: the queue holds
    /// positions `pushed - queue.len()..pushed`.
    pushed: u64,
    /// Every job at a position below this one is applied or evicted.
    applied: u64,
    /// The latest arrival pushed so far.
    latest: Nanos,
    parked: bool,
    flushers: usize,
    closed: bool,
}

/// What one [`Inbox::push`] did besides enqueueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pushed {
    /// Jobs evicted to make room, oldest first.
    pub evicted: usize,
    /// Jobs whose arrival was earlier than the latest arrival pushed
    /// before them.
    pub out_of_order: usize,
}

impl Inbox {
    /// An empty inbox holding at most `capacity` jobs.
    pub fn new(capacity: usize) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                // Pre-sized (capped, so a huge bound reserves nothing
                // it may never use): no growth on the push path.
                queue: VecDeque::with_capacity(capacity.min(1 << 16)),
                pushed: 0,
                applied: 0,
                latest: Nanos(0),
                parked: false,
                flushers: 0,
                closed: false,
            }),
            capacity,
            work: Condvar::new(),
            applied: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState> {
        unpoison(self.state.lock())
    }

    /// Enqueues `jobs` in order under one lock, evicting the oldest
    /// jobs as needed, and wakes the worker if it is parked.
    pub fn push(&self, jobs: &[Job]) -> Pushed {
        let mut state = self.lock();
        let mut latest = state.latest;
        let mut out_of_order = 0;
        for &(_, _, arrival, _) in jobs {
            if arrival < latest {
                out_of_order += 1;
            } else {
                latest = arrival;
            }
        }
        state.latest = latest;
        let evicted = (state.queue.len() + jobs.len()).saturating_sub(self.capacity);
        let from_queue = evicted.min(state.queue.len());
        state.queue.drain(..from_queue);
        state.queue.extend(&jobs[evicted - from_queue..]);
        state.pushed += jobs.len() as u64;
        let wake = state.parked;
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Pushed {
            evicted,
            out_of_order,
        }
    }

    /// Moves up to `max` of the oldest jobs onto the end of `out` under
    /// one lock, and advances the watermark to the first of them. The
    /// caller must be the one worker, done applying what its previous
    /// `take` returned. Returns how many jobs stay queued, or `None`
    /// once the inbox is closed and this call emptied it.
    pub fn take(&self, out: &mut Vec<Job>, max: usize) -> Option<usize> {
        let mut state = self.lock();
        let head = state.pushed - state.queue.len() as u64;
        let wake = state.flushers > 0 && head > state.applied;
        state.applied = head;
        let n = max.min(state.queue.len());
        out.extend(state.queue.drain(..n));
        let left = state.queue.len();
        let open = !state.closed || left > 0;
        drop(state);
        if wake {
            self.applied.notify_all();
        }
        open.then_some(left)
    }

    /// Parks the worker until a push or close, or for at most `timeout`
    /// (`None`: no bound). Returns at once if a job is queued or the
    /// inbox is closed.
    pub fn park(&self, timeout: Option<Duration>) {
        let mut state = self.lock();
        if !state.queue.is_empty() || state.closed {
            return;
        }
        state.parked = true;
        let mut state = match timeout {
            Some(timeout) => unpoison(self.work.wait_timeout(state, timeout)).0,
            None => unpoison(self.work.wait(state)),
        };
        state.parked = false;
    }

    /// Blocks until the watermark covers every job pushed before the
    /// call: each one applied by a finished pass, or evicted.
    pub fn flush(&self) {
        let mut state = self.lock();
        let target = state.pushed;
        while state.applied < target {
            state.flushers += 1;
            state = unpoison(self.applied.wait(state));
            state.flushers -= 1;
        }
    }

    /// Closes the inbox: the worker's `take` reports the end once the
    /// queue is drained, and its park returns at once.
    pub fn close(&self) {
        self.lock().closed = true;
        self.work.notify_one();
    }

    /// Jobs queued now.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// True when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().queue.is_empty()
    }
}

/// A bounded queue of transition events: any thread publishes, any
/// thread reads. A full queue refuses the newest event and counts it.
/// Unlike `std::sync::mpsc::Receiver` it is `Sync`, so a runtime that
/// owns one can be shared across threads.
pub struct Events<T> {
    state: std::sync::Mutex<EventState<T>>,
    capacity: usize,
    /// Signalled by a publish while a reader waits.
    ready: std::sync::Condvar,
    pub(crate) dropped: Counter,
}

struct EventState<T> {
    queue: VecDeque<T>,
    waiting: usize,
}

impl<T> Events<T> {
    /// An empty queue of at most `capacity` events (at least one),
    /// counting refused events in `dropped`.
    pub(crate) fn new(capacity: usize, dropped: Counter) -> Events<T> {
        let capacity = capacity.max(1);
        Events {
            state: std::sync::Mutex::new(EventState {
                queue: VecDeque::with_capacity(capacity.min(1 << 16)),
                waiting: 0,
            }),
            capacity,
            ready: std::sync::Condvar::new(),
            dropped,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventState<T>> {
        unpoison(self.state.lock())
    }

    /// Queues `event`, or counts it dropped when the queue is full.
    pub(crate) fn publish(&self, event: T) {
        let mut state = self.lock();
        if state.queue.len() >= self.capacity {
            drop(state);
            self.dropped.inc();
            return;
        }
        state.queue.push_back(event);
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Events refused because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The oldest queued event, without waiting.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.lock().queue.pop_front().ok_or(TryRecvError::Empty)
    }

    /// The oldest queued event, waiting for one for up to `timeout`.
    /// `Timeout` means the whole `timeout` passed with none to take: a
    /// spurious wakeup, or a racing reader taking the event first, only
    /// resumes the wait (std tracks its deadline).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let mut state = self.lock();
        if state.queue.is_empty() {
            state.waiting += 1;
            state = unpoison(
                self.ready
                    .wait_timeout_while(state, timeout, |s| s.queue.is_empty()),
            )
            .0;
            state.waiting -= 1;
        }
        state.queue.pop_front().ok_or(RecvTimeoutError::Timeout)
    }

    /// Drains whatever is queued right now, oldest first.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.try_recv().ok())
    }

    /// Events queued now.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// True when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn job(at: u64) -> Job {
        (0, at, Nanos(at), 0)
    }

    fn jobs(ats: &[u64]) -> Vec<Job> {
        ats.iter().map(|&at| job(at)).collect()
    }

    fn drain(inbox: &Inbox) -> Vec<u64> {
        let mut out = Vec::new();
        inbox.take(&mut out, usize::MAX);
        out.iter().map(|j| j.1).collect()
    }

    #[test]
    fn push_evicts_oldest_across_queue_and_batch() {
        let inbox = Inbox::new(4);
        assert_eq!(inbox.push(&jobs(&[1, 2, 3])).evicted, 0);
        // Two evictions: the two oldest queued jobs.
        assert_eq!(inbox.push(&jobs(&[4, 5, 6])).evicted, 2);
        assert_eq!(drain(&inbox), [3, 4, 5, 6]);
        // A batch longer than the capacity sheds its own front.
        assert_eq!(inbox.push(&jobs(&[10, 11, 12, 13, 14, 15])).evicted, 2);
        assert_eq!(drain(&inbox), [12, 13, 14, 15]);
        assert_eq!(inbox.push(&[]).evicted, 0);
    }

    #[test]
    fn take_drains_in_order_up_to_max_then_reports_the_close() {
        let inbox = Inbox::new(8);
        inbox.push(&jobs(&[1, 2, 3, 4, 5]));
        let mut out = vec![job(0)];
        assert_eq!(inbox.take(&mut out, 3), Some(2), "appends, oldest first");
        assert_eq!(inbox.take(&mut out, 0), Some(2));
        assert_eq!(inbox.take(&mut out, 10), Some(0));
        assert_eq!(inbox.take(&mut out, 10), Some(0));
        // Queued jobs outlive the close; the end shows once they are out.
        inbox.push(&jobs(&[6, 7]));
        inbox.close();
        assert_eq!(inbox.take(&mut out, 1), Some(1));
        assert_eq!(inbox.take(&mut out, 1), None);
        assert_eq!(inbox.take(&mut out, 1), None);
        let seqs: Vec<u64> = out.iter().map(|j| j.1).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn push_counts_arrivals_behind_the_latest_and_keeps_their_order() {
        let inbox = Inbox::new(8);
        assert_eq!(inbox.push(&jobs(&[10, 20, 20])).out_of_order, 0);
        let pushed = inbox.push(&jobs(&[15, 30, 25]));
        assert_eq!(pushed.out_of_order, 2, "15 < 20, then 25 < 30");
        assert_eq!(drain(&inbox), [10, 20, 20, 15, 30, 25]);
    }

    #[test]
    fn push_wakes_a_parked_worker_and_close_ends_the_park() {
        let inbox = Arc::new(Inbox::new(8));
        let worker = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let mut out = Vec::new();
                while inbox.take(&mut out, 8).is_some() {
                    if out.is_empty() {
                        inbox.park(None);
                    } else {
                        out.clear();
                    }
                }
            })
        };
        thread::sleep(Duration::from_millis(20));
        inbox.push(&jobs(&[42]));
        // Returns only once a take after the pass that applied 42.
        inbox.flush();
        assert!(inbox.is_empty());
        inbox.close();
        worker.join().unwrap();
    }

    #[test]
    fn flush_returns_at_once_when_everything_left_the_queue() {
        let inbox = Inbox::new(2);
        inbox.flush();
        inbox.push(&jobs(&[1, 2, 3]));
        drain(&inbox);
        // The watermark moves at the take after the one that took them.
        drain(&inbox);
        inbox.flush();
    }

    #[test]
    fn events_refuse_the_newest_when_full_and_count_it() {
        let events = Events::new(2, Counter::new());
        for e in 1..=3 {
            events.publish(e);
        }
        assert_eq!((events.len(), events.dropped()), (2, 1));
        assert_eq!(events.try_recv(), Ok(1));
        events.publish(4);
        assert_eq!(events.try_iter().collect::<Vec<_>>(), [2, 4]);
        assert_eq!(events.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let events = Arc::new(Events::new(4, Counter::new()));
        assert_eq!(
            events.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        let publisher = {
            let events = Arc::clone(&events);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                events.publish(9);
            })
        };
        assert_eq!(events.recv_timeout(Duration::from_secs(2)), Ok(9));
        publisher.join().unwrap();
    }

    #[test]
    fn recv_timeout_outwaits_a_reader_that_takes_the_event_first() {
        let events = Arc::new(Events::new(4, Counter::new()));
        let reader = {
            let events = Arc::clone(&events);
            thread::spawn(move || events.recv_timeout(Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        // The publish wakes the reader; this thread may take the event
        // before it does, which must not end the reader's wait.
        events.publish(1);
        let stolen = events.try_recv().ok();
        thread::sleep(Duration::from_millis(20));
        events.publish(2);
        let got = reader.join().unwrap();
        let mut seen: Vec<i32> = stolen.into_iter().chain(got.ok()).collect();
        seen.extend(events.try_iter());
        seen.sort_unstable();
        assert!(got.is_ok(), "the reader timed out early");
        assert_eq!(seen, [1, 2]);
    }
}
