//! Lock discipline, one test per lock owner of the serving plane.
//!
//! Every lock a request can meet is a private field of one of five
//! small types, taken through one helper: `FifoCache::inner`, a worker
//! shard's inbox, `obs::TraceRing::inner`, `Singleflight::slots` and
//! `parallel_map`'s result slots. Each test drives its owner the way
//! the server does and fails if the owner holds its lock across work
//! another thread waits on, or takes it twice. Each runs under
//! [`within`], so a deadlock fails the test instead of hanging the
//! suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use harness::{Grid, Speed};
use obs::{ClockDomain, TraceRing};
use service::cache::FifoCache;
use service::client::Client;
use service::registry::ModelRegistry;
use service::server::{Server, ServerConfig};
use vmcore::parallel::{parallel_map, Flight, Singleflight};

/// Far beyond any test's run time, even in debug builds on a loaded
/// machine; only a deadlock reaches it.
const LIMIT: Duration = Duration::from_secs(60);

/// Low-fidelity preset so the one battery fit takes about a second.
const TINY: Speed = Speed {
    name: "tiny",
    footprint_div: 1024,
    min_footprint: 48 << 20,
    accesses: 12_000,
    max_reps: 1,
};

/// Runs `test` on its own thread and fails if it has not finished
/// within `limit`. A panic inside `test` fails the caller as usual.
fn within(limit: Duration, test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("no result within {limit:?}: deadlock");
    }
    if let Err(panic) = runner.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn fifo_cache_takes_its_lock_once_per_call() {
    within(LIMIT, || {
        const CAPACITY: usize = 16;
        let cache = Arc::new(FifoCache::<u64, u64>::new(CAPACITY));
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (i * 7 + t) % 64;
                        match cache.get(&key) {
                            Some(value) => assert_eq!(value, key * 2),
                            None => cache.insert(key, key * 2),
                        }
                        assert!(cache.len() <= CAPACITY);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let counters = cache.counters();
        assert_eq!(counters.hits + counters.misses, 8_000);
    });
}

#[test]
fn trace_ring_takes_its_lock_once_per_call() {
    within(LIMIT, || {
        const CAPACITY: usize = 32;
        let ring = Arc::new(TraceRing::new(CAPACITY));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for _ in 0..500 {
                        ring.push("predict", ClockDomain::Wall, Vec::new(), 0);
                        assert!(ring.last(8).len() <= 8);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        let kept = ring.last(CAPACITY);
        assert_eq!(kept.len(), CAPACITY);
        assert_eq!(ring.dropped(), 2_000 - CAPACITY as u64);
        assert!(kept.windows(2).all(|w| w[0].seq < w[1].seq));
    });
}

#[test]
fn singleflight_runs_hold_no_lock() {
    within(LIMIT, || {
        let memo = Arc::new(Singleflight::<u32, u64, String>::new(|msg| msg));
        let (started, run_started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let runner = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                memo.get_or_run(&1, || {
                    started.send(()).unwrap();
                    released.recv().unwrap();
                    Ok(10)
                })
            })
        };
        run_started.recv().unwrap();
        // With key 1's run in flight, the memo stays readable and other
        // keys run to completion.
        assert_eq!(memo.snapshot(), vec![(1, None)]);
        let other = memo.get_or_run(&2, || Ok(20));
        assert!(matches!(other, Flight::Ran(Ok(20))), "{other:?}");
        release.send(()).unwrap();
        let first = runner.join().unwrap();
        assert!(matches!(first, Flight::Ran(Ok(10))), "{first:?}");
    });
}

#[test]
fn parallel_map_runs_items_with_no_lock_held() {
    within(LIMIT, || {
        // Item 0 finishes only after item 1 has run, so the two must run
        // at once, and item 1 fans out again from inside a worker.
        let second_ran = AtomicBool::new(false);
        let got = parallel_map(&[0u64, 1], 2, |_, &item| {
            if item == 0 {
                while !second_ran.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                return 0;
            }
            let inner = parallel_map(&[1u64, 2, 3], 2, |_, &x| x * 10).unwrap();
            second_ran.store(true, Ordering::Release);
            inner.iter().sum()
        });
        assert_eq!(got, Some(vec![0, 60]));
    });
}

#[test]
fn a_shard_inside_a_request_leaves_its_inbox_free() {
    within(LIMIT, || {
        let config = ServerConfig {
            workers: 2,
            ..Default::default()
        };
        let server =
            Server::start(config, ModelRegistry::new(Grid::in_memory(TINY), None)).unwrap();
        let addr = server.addr();
        // Connections are dealt to the shards round-robin, so after one
        // round trip each, `fitter` is on shard 0 and `observer` on 1.
        let mut fitter = Client::connect(addr).unwrap();
        fitter.stats().unwrap();
        let mut observer = Client::connect(addr).unwrap();
        observer.stats().unwrap();
        let cold = thread::spawn(move || fitter.warm("gups/8GB", "sandybridge"));
        while observer.stats().unwrap().registry.fitting < 1 {
            assert!(!cold.is_finished(), "the fit ended before it was seen");
            thread::sleep(Duration::from_millis(2));
        }
        // Shard 0 is inside the fit. Dealing it a connection must not
        // wait for the fit to end, or the acceptor stalls and the next
        // connection, dealt to the idle shard 1, is not served either.
        let _queued = std::net::TcpStream::connect(addr).unwrap();
        let mut late = Client::connect(addr).unwrap();
        let snap = late.stats().unwrap();
        assert!(
            snap.registry.fitting >= 1,
            "shard 1 answered only after shard 0's fit: {snap:?}"
        );
        assert!(cold.join().unwrap().unwrap() >= 1);
        server.shutdown();
    });
}
