//! The arrival feed: a large session's request stream, generated on a
//! helper thread ahead of the event loop that consumes it.
//!
//! A session's merged arrival stream is a pure function of the session,
//! the seed and the duration: generating it never reads engine state,
//! so it may run ahead of the simulated clock. [`prefetched`] builds
//! the stream on a scoped helper thread, which fills fixed-capacity
//! batches and hands them to the event loop over one bounded channel;
//! a second channel returns each drained batch for refilling. The loop
//! sees exactly the inline sequence, and once the batches exist nothing
//! is allocated. `DESIGN.md` ("The arrival feed") derives
//! [`PREFETCH_MIN_REQUESTS`] and the batch sizes.

use std::panic;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

use xrbench_workload::SessionRequest;

/// The fewest requests a session must issue (as
/// [`SessionSpec::request_count`](xrbench_workload::SessionSpec::request_count)
/// counts them) for the simulator to generate its arrivals on a helper
/// thread, when the host has a second core to run it on. Below it the
/// thread's set-up would cost more than about 1% of the arrival work it
/// moves off the event loop's thread.
pub const PREFETCH_MIN_REQUESTS: u64 = 1 << 16;

/// Requests per batch.
const BATCH: usize = 2048;
/// Batches in circulation. Each channel can hold every one of them, so
/// a send never blocks and only an empty channel makes a thread wait.
const BATCHES: usize = 4;

type Batch = Vec<SessionRequest>;

/// Whether a session issuing `requests` requests gets the helper
/// thread: it is chosen only from the request count and the core count.
pub(crate) fn prefetch_pays(requests: u64) -> bool {
    requests >= PREFETCH_MIN_REQUESTS && thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// The builder of the helper thread.
pub(crate) fn helper() -> thread::Builder {
    thread::Builder::new().name("xrbench-arrivals".to_string())
}

/// Runs `consume` over the stream `arrivals` builds, advanced on a
/// thread spawned from `builder`. The stream is built on the calling
/// thread, so its state comes from the caller's allocator arena; if the
/// spawn is refused, `consume` runs over a second `arrivals()` inline.
///
/// # Panics
///
/// Resumes a panic of the producer on the calling thread, with the
/// producer's own payload, once `consume` has read every request
/// produced before it: the loop never sees a stream that silently ended
/// early. A panic in `consume` ends the producer, which then finds its
/// channels closed.
pub(crate) fn prefetched<I, R>(
    builder: thread::Builder,
    arrivals: impl Fn() -> I,
    consume: impl FnOnce(&mut dyn Iterator<Item = SessionRequest>) -> R,
) -> R
where
    I: Iterator<Item = SessionRequest> + Send,
{
    let (full_tx, full_rx) = sync_channel(BATCHES);
    let (empty_tx, empty_rx) = sync_channel(BATCHES);
    // The feed holds the last batch, drained, until its first refill.
    for _ in 1..BATCHES {
        empty_tx
            .send(Batch::with_capacity(BATCH))
            .expect("the channel holds every batch");
    }
    let stream = arrivals();
    thread::scope(|scope| {
        match builder.spawn_scoped(scope, move || produce(stream, empty_rx, full_tx)) {
            Ok(producer) => consume(&mut Feed {
                batch: Batch::with_capacity(BATCH),
                next: 0,
                last: false,
                full: full_rx,
                empty: empty_tx,
                producer: Some(producer),
            }),
            Err(_) => consume(&mut arrivals()),
        }
    })
}

/// The helper thread: fills each drained batch from `arrivals` and
/// passes it on. A short batch, possibly empty, ends the stream; a
/// closed channel means the feed is gone, and ends the producer too.
fn produce(
    mut arrivals: impl Iterator<Item = SessionRequest>,
    empty: Receiver<Batch>,
    full: SyncSender<Batch>,
) {
    while let Ok(mut batch) = empty.recv() {
        batch.clear();
        batch.extend(arrivals.by_ref().take(BATCH));
        let last = batch.len() < BATCH;
        if full.send(batch).is_err() || last {
            return;
        }
    }
}

/// The event loop's end of the feed: the requests of the batches the
/// producer fills, in order.
struct Feed<'scope> {
    /// The batch being read, and the index of its next request.
    batch: Batch,
    next: usize,
    /// Whether `batch` is the stream's short last batch.
    last: bool,
    full: Receiver<Batch>,
    empty: SyncSender<Batch>,
    producer: Option<ScopedJoinHandle<'scope, ()>>,
}

impl Feed<'_> {
    /// Hands the drained batch back and takes the next full one.
    fn refill(&mut self) {
        // A producer that has panicked takes nothing back: the batch
        // is dropped here.
        let _ = self.empty.send(std::mem::take(&mut self.batch));
        let Ok(batch) = self.full.recv() else {
            // Only a panic ends the producer before its last batch.
            let producer = self.producer.take().expect("the producer fails once");
            match producer.join() {
                Err(payload) => panic::resume_unwind(payload),
                Ok(()) => unreachable!("the producer returned before its last batch"),
            }
        };
        self.last = batch.len() < BATCH;
        self.batch = batch;
        self.next = 0;
    }
}

impl Iterator for Feed<'_> {
    type Item = SessionRequest;

    fn next(&mut self) -> Option<SessionRequest> {
        while self.next == self.batch.len() {
            if self.last {
                return None;
            }
            self.refill();
        }
        let req = self.batch[self.next].clone();
        self.next += 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::thread::ThreadId;

    use super::*;
    use xrbench_models::ModelId;
    use xrbench_workload::{InferenceRequest, ScenarioCatalog, ScenarioSpec, SessionSpec};

    fn request(k: u64) -> SessionRequest {
        let t = k as f64 * 1e-4;
        SessionRequest {
            user: (k % 3) as u32,
            req: InferenceRequest {
                model: ModelId::HandTracking,
                frame_id: k,
                sensor_frame: k,
                t_req: t,
                t_deadline: t + 0.01,
            },
        }
    }

    fn stream(n: usize) -> impl Iterator<Item = SessionRequest> {
        (0..n as u64).map(request)
    }

    /// Everything the feed yields for `arrivals`, and the threads that
    /// generated it, in order of first use.
    fn fed<I>(
        builder: thread::Builder,
        arrivals: impl Fn() -> I,
    ) -> (Vec<SessionRequest>, Vec<ThreadId>)
    where
        I: Iterator<Item = SessionRequest> + Send,
    {
        let threads = Mutex::new(Vec::new());
        let requests = prefetched(
            builder,
            || {
                arrivals().inspect(|_| {
                    let mut threads = threads.lock().unwrap();
                    let id = thread::current().id();
                    if !threads.contains(&id) {
                        threads.push(id);
                    }
                })
            },
            |feed| feed.collect(),
        );
        (requests, threads.into_inner().unwrap())
    }

    #[test]
    fn feed_yields_the_inline_sequence() {
        // Empty, shorter than one batch, one short of a batch, and an
        // exact multiple of the batch size (whose end is an empty
        // batch).
        for n in [0, 5, BATCH - 1, BATCH, 3 * BATCH] {
            let (requests, threads) = fed(helper(), || stream(n));
            assert_eq!(requests, stream(n).collect::<Vec<_>>(), "{n} requests");
            if n > 0 {
                assert_eq!(threads.len(), 1, "{n} requests");
                assert_ne!(
                    threads[0],
                    thread::current().id(),
                    "{n} requests ran inline"
                );
            }
        }
    }

    #[test]
    fn feed_yields_a_1024_user_session_in_order() {
        let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
        let session = SessionSpec::mixed("feed", &specs, 1024, 0.002);
        let (requests, threads) = fed(helper(), || session.arrivals(11, 0.5));
        assert_ne!(threads, [thread::current().id()]);
        // Every batch is refilled several times.
        assert!(requests.len() > 4 * BATCH * BATCHES);
        assert_eq!(requests, session.generate(11, 0.5));
    }

    #[test]
    #[should_panic(expected = "the stream broke")]
    fn a_producer_panic_fails_the_run() {
        let breaking = || {
            stream(4 * BATCH).inspect(|r| {
                assert!(r.req.frame_id != BATCH as u64 + 5, "the stream broke");
            })
        };
        // Without the resumed panic the loop would count BATCH + 5
        // requests and return.
        let seen = prefetched(helper(), breaking, |feed| feed.count());
        panic!("the feed ended after {seen} requests without failing");
    }

    #[test]
    #[should_panic(expected = "the loop failed")]
    fn an_event_loop_panic_lets_the_producer_exit() {
        // An endless stream: the scope joins the producer before the
        // panic leaves it, so the test ends only if the producer stops
        // once the feed is dropped.
        prefetched(
            helper(),
            || (0..).map(request),
            |feed| {
                let seen = feed.take(2 * BATCH + 7).count();
                panic!("the loop failed after {seen} requests");
            },
        );
    }

    #[test]
    fn a_refused_spawn_falls_back_inline() {
        // No address space holds a 2^62-byte stack, so the spawn fails
        // before any thread starts.
        let refused = thread::Builder::new().stack_size(1 << 62);
        let n = BATCH + 3;
        let (requests, threads) = fed(refused, || stream(n));
        assert_eq!(requests, stream(n).collect::<Vec<_>>());
        assert_eq!(threads, [thread::current().id()]);
    }
}
