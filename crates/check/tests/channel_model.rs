//! Model-check suite for the vendored crossbeam channel: the wake
//! elision on the send path, `force_send_many`'s drop-oldest eviction,
//! `try_recv_many`'s batch dequeue racing it, and the shard runtime's
//! counter-reconciliation protocol, explored under every schedule
//! within bounds.
//!
//! Compiled only with `RUSTFLAGS="--cfg twofd_check"` — without the cfg
//! the channel's sync facade points at real `std` primitives, which
//! would hang the model scheduler.

#![cfg(twofd_check)]

use std::sync::Arc;

use crossbeam::channel::{self, TryRecvError};
use twofd_check::sync::atomic::{AtomicU64, Ordering};
use twofd_check::{model, thread, Builder};

/// No lost wakeup across the send/park race: the sender elides the
/// condvar notification when `recv_waiting == 0`, so a stale decision
/// there would leave the receiver parked forever — which the checker
/// would report as a deadlock.
#[test]
fn send_never_loses_a_parked_receiver() {
    let report = model(|| {
        let (tx, rx) = channel::bounded::<u32>(1);
        let t = thread::spawn(move || rx.recv().expect("sender alive"));
        tx.send(7).expect("receiver alive");
        assert_eq!(t.join().unwrap(), 7);
    });
    assert!(report.complete, "schedule space should be exhausted");
}

/// The symmetric race: a sender parked on a full channel must be woken
/// by the receiver's dequeue (wake elision on `send_waiting`).
#[test]
fn recv_never_loses_a_parked_sender() {
    let report = model(|| {
        let (tx, rx) = channel::bounded::<u32>(1);
        tx.send(1).expect("receiver alive");
        let t = thread::spawn(move || {
            // Parks while the queue is at capacity.
            tx.send(2).expect("receiver alive");
        });
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// Same invariant for the batch enqueue: `force_send_many` wakes a
/// parked receiver (at most one notification per batch — but never
/// zero when someone is parked).
#[test]
fn force_send_many_wakes_a_parked_receiver() {
    let report = model(|| {
        let (tx, rx) = channel::bounded::<u32>(2);
        let t = thread::spawn(move || rx.recv().expect("sender alive"));
        let evicted = tx.force_send_many(&[1, 2]).expect("receiver alive");
        assert_eq!(evicted, 0, "capacity 2 holds a 2-element batch");
        let got = t.join().unwrap();
        assert_eq!(got, 1, "FIFO: the parked receiver gets the oldest");
    });
    assert!(report.complete);
}

/// The shard worker's dequeue racing the ingest path's enqueue, with
/// room for everything: whatever the interleaving, the batches come out
/// whole, once, in order — and `Disconnected` is only ever reported on
/// an empty queue whose last sender is gone.
#[test]
fn try_recv_many_loses_and_duplicates_nothing() {
    let report = model(|| {
        let (tx, rx) = channel::bounded::<u32>(4);
        let producer = thread::spawn(move || {
            let evicted = tx.force_send_many(&[1, 2]).expect("receiver alive")
                + tx.force_send_many(&[3, 4]).expect("receiver alive");
            assert_eq!(evicted, 0, "capacity 4 holds both batches");
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if rx.try_recv_many(&mut got, 3) == Err(TryRecvError::Disconnected) {
                assert_eq!(got, [1, 2, 3, 4], "disconnected with messages unaccounted");
            }
        }
        producer.join().unwrap();
        // The producer's sender is gone: one more call takes whatever
        // is left, and the next can only say so.
        let _ = rx.try_recv_many(&mut got, 8);
        assert_eq!(got, [1, 2, 3, 4]);
        assert_eq!(
            rx.try_recv_many(&mut got, 8),
            Err(TryRecvError::Disconnected)
        );
    });
    assert!(report.complete);
}

/// The same race when the enqueue has to evict: every message is either
/// dequeued exactly once or counted evicted, survivors keep FIFO order,
/// and the newest message is never the one shed.
#[test]
fn try_recv_many_racing_eviction_accounts_for_every_message() {
    let report = model(|| {
        let (tx, rx) = channel::bounded::<u32>(2);
        let producer = thread::spawn(move || {
            tx.force_send_many(&[1, 2]).expect("receiver alive")
                + tx.force_send_many(&[3, 4, 5]).expect("receiver alive")
        });
        let mut got = Vec::new();
        let _ = rx.try_recv_many(&mut got, 1);
        let _ = rx.try_recv_many(&mut got, 2);
        let evicted = producer.join().unwrap();
        let _ = rx.try_recv_many(&mut got, 8);
        assert_eq!(got.len() + evicted, 5, "got {got:?}, evicted {evicted}");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "duplicate or reordered: {got:?}"
        );
        assert_eq!(got.last(), Some(&5));
    });
    assert!(report.complete);
}

/// One batch dequeue can free room for several parked senders, so it
/// must wake all of them: with a single `notify_one` the second sender
/// here would stay parked beside a free slot, and the checker would
/// report the deadlock.
#[test]
fn try_recv_many_wakes_every_parked_sender() {
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(50_000)
        .check(|| {
            let (tx, rx) = channel::bounded::<u32>(2);
            tx.force_send_many(&[1, 2]).expect("receiver alive");
            let senders: Vec<_> = [3, 4]
                .into_iter()
                .map(|v| {
                    let tx = tx.clone();
                    // Parks while the queue is at capacity.
                    thread::spawn(move || tx.send(v).expect("receiver alive"))
                })
                .collect();
            let mut got = Vec::new();
            assert_eq!(rx.try_recv_many(&mut got, 2), Ok(2));
            for t in senders {
                t.join().unwrap();
            }
            assert_eq!(rx.try_recv_many(&mut got, 2), Ok(2));
            got[2..].sort_unstable();
            assert_eq!(got, [1, 2, 3, 4]);
        });
    // Three threads: bounded like the observer suite below.
    assert!(report.iterations > 0);
}

/// The dequeue-and-count half of `shard_worker`'s loop, pass for pass:
/// one `try_recv_many` into the inbox (which may already hold the job
/// that ended a park), one `applied` bump for the whole pass, exit once
/// the queue reports `Disconnected`, and a blocking `recv` into the
/// inbox when a pass found nothing. `MAX_BATCH` is 2 here so that a
/// pass can both fill up and fall short within the models' bounds.
fn worker_passes(rx: &channel::Receiver<u32>, applied: &AtomicU64) {
    const MAX_BATCH: usize = 2;
    let mut inbox = Vec::with_capacity(MAX_BATCH);
    loop {
        let room = MAX_BATCH - inbox.len();
        let disconnected = rx.try_recv_many(&mut inbox, room) == Err(TryRecvError::Disconnected);
        let batch = inbox.len() as u64;
        inbox.clear();
        if batch > 0 {
            applied.fetch_add(batch, Ordering::Release);
        }
        if disconnected {
            return;
        }
        if batch == 0 {
            inbox.extend(rx.recv().ok());
        }
    }
}

/// The shard reconciliation contract end to end: `received` is bumped
/// before the enqueue, eviction bumps `dropped`, the worker bumps
/// `applied` once per pass by the number of jobs the pass dequeued, and
/// once the worker drains, `received == applied + dropped` exactly —
/// under every schedule, including the ones where `force_send_many`
/// evicts.
#[test]
fn overflow_reconciles_received_applied_dropped() {
    let report = model(|| {
        let received = Arc::new(AtomicU64::new(0));
        let applied = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel::bounded::<u32>(1);

        let a2 = Arc::clone(&applied);
        // Drain until every sender is gone, counting each pass.
        let worker = thread::spawn(move || worker_passes(&rx, &a2));

        // Ingest a 2-element batch into capacity 1: at least one job is
        // evicted unless the worker dequeues in between.
        received.fetch_add(2, Ordering::Release);
        let evicted = tx.force_send_many(&[1, 2]).expect("worker alive");
        dropped.fetch_add(evicted as u64, Ordering::Release);
        drop(tx); // disconnect so the worker's loop ends
        worker.join().unwrap();

        let r = received.load(Ordering::Acquire);
        let a = applied.load(Ordering::Acquire);
        let d = dropped.load(Ordering::Acquire);
        assert_eq!(r, a + d, "received {r} != applied {a} + dropped {d}");
    });
    assert!(report.complete);
}

/// Mid-flight, a concurrent observer that reads `applied` and `dropped`
/// first and `received` *last* must never see `applied + dropped`
/// ahead of `received`: the ingester bumps `received` (Release) before
/// the job can possibly be applied or dropped, and the Acquire reads
/// preserve that order. This is exactly the window `ShardRuntime::flush`
/// and the Prometheus scrape read.
#[test]
fn observer_never_sees_counters_ahead_of_received() {
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(50_000)
        .check(|| {
            let received = Arc::new(AtomicU64::new(0));
            let applied = Arc::new(AtomicU64::new(0));
            let dropped = Arc::new(AtomicU64::new(0));
            let (tx, rx) = channel::bounded::<u32>(1);

            let a2 = Arc::clone(&applied);
            let worker = thread::spawn(move || worker_passes(&rx, &a2));

            let (r3, a3, d3) = (
                Arc::clone(&received),
                Arc::clone(&applied),
                Arc::clone(&dropped),
            );
            let observer = thread::spawn(move || {
                let a = a3.load(Ordering::Acquire);
                let d = d3.load(Ordering::Acquire);
                let r = r3.load(Ordering::Acquire);
                assert!(
                    a + d <= r,
                    "observed applied {a} + dropped {d} > received {r}"
                );
            });

            received.fetch_add(2, Ordering::Release);
            let evicted = tx.force_send_many(&[1, 2]).expect("worker alive");
            dropped.fetch_add(evicted as u64, Ordering::Release);
            drop(tx);
            worker.join().unwrap();
            observer.join().unwrap();
        });
    // Three threads: the preemption/iteration bounds may stop short of
    // exhaustion; the suite still covers every schedule within them.
    assert!(report.iterations > 0);
}
