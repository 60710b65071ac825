//! A fixed-size worker-thread pool — the reactor's *compute* pool.
//!
//! The build environment is offline — no tokio, no crossbeam — so this
//! is the classic `std` construction: one `mpsc` channel of boxed jobs
//! behind a mutex, N named worker threads pulling from it. Dropping the
//! pool closes the channel and joins every worker, so shutdown is
//! deterministic: queued jobs finish, then the threads exit.
//!
//! Workers never own a connection. Each job is one connection's batch
//! of up to 64 requests, already decoded by the shard's event loop; the
//! worker evaluates them in order, encodes their frames, and posts the
//! completion back to the loop through a wakeup pipe. Requests the
//! loop can answer from the caches alone never become jobs. Pool width
//! therefore bounds concurrent evaluations, not clients.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads executing queued jobs.
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `size` workers (minimum 1) named `name-0..name-N`.
    pub fn new(size: usize, name: &str) -> ThreadPool {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Holding the lock only for the recv keeps workers
                        // independent while a job runs.
                        let job = match receiver.lock().expect("pool receiver").recv() {
                            Ok(job) => job,
                            Err(_) => break, // channel closed: pool dropped
                        };
                        // A panicking job must not take the worker (and
                        // eventually the whole pool) down with it.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job; some idle worker will pick it up.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Waits for all queued jobs to finish and joins the workers
    /// (equivalent to dropping the pool, but explicit at call sites).
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.sender.take()); // close the channel: workers drain + exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_across_workers() {
        let pool = ThreadPool::new(4, "test-pool");
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = counter.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(1, "drain-pool");
            for _ in 0..10 {
                let counter = counter.clone();
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = ThreadPool::new(1, "panic-pool");
        pool.execute(|| panic!("job blew up"));
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0, "tiny");
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
