//! Model-check suite for the shard inbox (`twofd_net::inbox::Inbox`):
//! the wake elision on the push path, drop-oldest eviction, the batch
//! take racing it, the shard runtime's counter-reconciliation protocol,
//! and the `applied` watermark `flush` waits on, explored under every
//! schedule within bounds.
//!
//! Compiled only with `RUSTFLAGS="--cfg twofd_check"` — without the cfg
//! the inbox's sync facade points at real `std` primitives, which would
//! hang the model scheduler.

#![cfg(twofd_check)]

use std::sync::Arc;

use twofd_check::sync::atomic::{AtomicU64, Ordering};
use twofd_check::{model, thread, Builder};
use twofd_net::inbox::Inbox;
use twofd_net::Job;
use twofd_sim::time::Nanos;

/// A job whose sequence number and arrival are both `n`.
fn job(n: u64) -> Job {
    (0, n, Nanos(n), 0)
}

fn jobs(ns: &[u64]) -> Vec<Job> {
    ns.iter().map(|&n| job(n)).collect()
}

fn seqs(jobs: &[Job]) -> Vec<u64> {
    jobs.iter().map(|j| j.1).collect()
}

/// No lost wakeup across the push/park race: the push elides the
/// condvar notification unless the worker is parked, so a stale
/// decision there would leave the worker parked forever — which the
/// checker reports as a deadlock. The parked worker gets the whole
/// batch, oldest first.
#[test]
fn push_never_loses_a_parked_worker() {
    let report = model(|| {
        let inbox = Arc::new(Inbox::new(2));
        let worker = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let mut got = Vec::new();
                while got.is_empty() {
                    inbox.take(&mut got, 2);
                    if got.is_empty() {
                        inbox.park(None);
                    }
                }
                got
            })
        };
        let pushed = inbox.push(&jobs(&[1, 2]));
        assert_eq!(pushed.evicted, 0, "capacity 2 holds a 2-job batch");
        assert_eq!(
            seqs(&worker.join().unwrap()),
            [1, 2],
            "the whole batch, FIFO"
        );
    });
    assert!(report.complete, "schedule space should be exhausted");
}

/// The worker's take racing the ingest path's push, with room for
/// everything: whatever the interleaving, the batches come out whole,
/// once, in order — and the end is only ever reported on an empty,
/// closed inbox.
#[test]
fn take_loses_and_duplicates_nothing() {
    let report = model(|| {
        let inbox = Arc::new(Inbox::new(4));
        let producer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let evicted =
                    inbox.push(&jobs(&[1, 2])).evicted + inbox.push(&jobs(&[3, 4])).evicted;
                assert_eq!(evicted, 0, "capacity 4 holds both batches");
                inbox.close();
            })
        };
        let mut got = Vec::new();
        for _ in 0..2 {
            if inbox.take(&mut got, 3).is_none() {
                assert_eq!(seqs(&got), [1, 2, 3, 4], "ended with jobs unaccounted");
            }
        }
        producer.join().unwrap();
        // Closed: one more take has whatever is left, and then the end.
        let _ = inbox.take(&mut got, 8);
        assert_eq!(seqs(&got), [1, 2, 3, 4]);
        assert_eq!(inbox.take(&mut got, 8), None);
    });
    assert!(report.complete);
}

/// The same race when the push has to evict: every job is either taken
/// exactly once or counted evicted, survivors keep FIFO order, and the
/// newest job is never the one shed.
#[test]
fn take_racing_eviction_accounts_for_every_job() {
    let report = model(|| {
        let inbox = Arc::new(Inbox::new(2));
        let producer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                inbox.push(&jobs(&[1, 2])).evicted + inbox.push(&jobs(&[3, 4, 5])).evicted
            })
        };
        let mut got = Vec::new();
        let _ = inbox.take(&mut got, 1);
        let _ = inbox.take(&mut got, 2);
        let evicted = producer.join().unwrap();
        let _ = inbox.take(&mut got, 8);
        let got = seqs(&got);
        assert_eq!(got.len() + evicted, 5, "got {got:?}, evicted {evicted}");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "duplicate or reordered: {got:?}"
        );
        assert_eq!(got.last(), Some(&5));
    });
    assert!(report.complete);
}

/// The take-and-count half of `shard_worker`'s loop, pass for pass: one
/// `take` into the batch, one `applied` bump for the whole pass, exit
/// once the take reports the end, and a park when a pass found nothing.
/// `MAX_BATCH` is 2 here so that a pass can both fill up and fall short
/// within the models' bounds.
fn worker_passes(inbox: &Inbox, applied: &AtomicU64) {
    const MAX_BATCH: usize = 2;
    let mut batch = Vec::with_capacity(MAX_BATCH);
    loop {
        let left = inbox.take(&mut batch, MAX_BATCH);
        let taken = batch.len() as u64;
        batch.clear();
        if taken > 0 {
            applied.fetch_add(taken, Ordering::Release);
        }
        match left {
            None => return,
            Some(_) if taken == 0 => inbox.park(None),
            Some(_) => {}
        }
    }
}

/// The shard reconciliation contract end to end: `received` is bumped
/// before the push, eviction bumps `dropped`, the worker bumps
/// `applied` once per pass by the number of jobs the pass took, and
/// once the worker drains, `received == applied + dropped` exactly —
/// under every schedule, including the ones where the push evicts.
#[test]
fn overflow_reconciles_received_applied_dropped() {
    let report = model(|| {
        let received = Arc::new(AtomicU64::new(0));
        let applied = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let inbox = Arc::new(Inbox::new(1));

        let worker = {
            let (inbox, applied) = (Arc::clone(&inbox), Arc::clone(&applied));
            thread::spawn(move || worker_passes(&inbox, &applied))
        };

        // Push a 2-job batch into capacity 1: at least one job is
        // evicted unless the worker takes in between.
        received.fetch_add(2, Ordering::Release);
        let evicted = inbox.push(&jobs(&[1, 2])).evicted;
        dropped.fetch_add(evicted as u64, Ordering::Release);
        inbox.close(); // so the worker's loop ends
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
/// preserve that order. This is exactly the window the Prometheus
/// scrape and `RuntimeStats` read.
#[test]
fn observer_never_sees_counters_ahead_of_received() {
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(50_000)
        .check(|| {
            let received = Arc::new(AtomicU64::new(0));
            let applied = Arc::new(AtomicU64::new(0));
            let dropped = Arc::new(AtomicU64::new(0));
            let inbox = Arc::new(Inbox::new(1));

            let worker = {
                let (inbox, applied) = (Arc::clone(&inbox), Arc::clone(&applied));
                thread::spawn(move || worker_passes(&inbox, &applied))
            };
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
            let evicted = inbox.push(&jobs(&[1, 2])).evicted;
            dropped.fetch_add(evicted as u64, Ordering::Release);
            inbox.close();
            worker.join().unwrap();
            observer.join().unwrap();
        });
    // Three threads: the preemption/iteration bounds may stop short of
    // exhaustion; the suite still covers every schedule within them.
    assert!(report.iterations > 0);
}

/// `ShardRuntime::flush`'s barrier: a flusher waiting on the `applied`
/// watermark is always woken by the take after the worker's last pass,
/// and on return sees every job of that pass applied (or evicted). The
/// take elides the notification unless a flusher waits, so a lost wake
/// leaves the flusher and the parked worker both waiting — the checker's
/// deadlock.
#[test]
fn flush_is_woken_by_the_workers_last_pass() {
    let report = model(|| {
        let applied = Arc::new(AtomicU64::new(0));
        let inbox = Arc::new(Inbox::new(2));
        let worker = {
            let (inbox, applied) = (Arc::clone(&inbox), Arc::clone(&applied));
            thread::spawn(move || worker_passes(&inbox, &applied))
        };
        let evicted = inbox.push(&jobs(&[1, 2, 3])).evicted as u64;
        inbox.flush();
        assert_eq!(applied.load(Ordering::Acquire) + evicted, 3);
        inbox.close();
        worker.join().unwrap();
    });
    assert!(report.complete);
}
