//! The bounded admission queue: one FIFO behind one mutex/condvar pair,
//! plus the load-shedding admission policy.
//!
//! `std::sync::mpsc` cannot serve as the job queue directly because every
//! shard worker must pull from the same stream (an mpsc `Receiver` has one
//! owner), because graceful shutdown needs "closed" to mean *drain, then
//! stop* rather than *drop everything*, and because admission must be
//! **bounded**: an unbounded FIFO in front of slow workers is an OOM under
//! sustained traffic.  This queue gives all three:
//!
//! * **Bounded admission** — at most `capacity` jobs wait at any time.  A
//!   push against a full queue follows the caller's [`AdmissionPolicy`]:
//!   block until a slot frees, or shed immediately.
//! * **One FIFO** — every worker pops the oldest waiting job.  A worker
//!   busy with one giant circuit holds no jobs back: the others take the
//!   next ones.  Which worker executes a job never changes the job's result
//!   (each job runs start-to-finish on one worker).
//! * **Drain-on-close** — `pop` blocks until a job arrives, and returns
//!   `None` only once the queue is closed **and** empty; pushes against a
//!   closed queue hand the job back so the caller keeps its circuit.
//!
//! The queue can also be **paused**: workers finish their in-flight job and
//! then idle, while admission (and its policy) keeps operating.  That is
//! both a maintenance valve and what makes overload tests deterministic —
//! a paused service fills its queue the same way every run.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a submit should do when the admission queue is full.
///
/// The shed policy, `Reject`, surfaces as
/// [`SubmitError::Overloaded`](crate::SubmitError::Overloaded) with the
/// caller's circuit handed back, and is counted in
/// [`ServiceStats`](crate::ServiceStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Wait for a slot — backpressure propagates to the submitting client,
    /// nothing is ever shed.  The default.
    Block,
    /// Shed immediately: a full queue fails the submit without blocking.
    Reject,
}

/// Why a push failed; the job itself travels back so the caller keeps it.
#[cfg_attr(test, derive(Debug))]
pub(crate) enum PushError<T> {
    /// The queue has been closed (service shutdown).
    Closed(T),
    /// The queue stayed full past what the admission policy tolerates.
    Overloaded(T),
}

struct QueueState<T> {
    /// The waiting jobs, oldest first.
    jobs: VecDeque<T>,
    closed: bool,
    paused: bool,
    /// Threads currently blocked in `pop` / a full-queue `push` — lets tests
    /// wait for a waiter deterministically instead of `yield_now` guessing.
    #[cfg(test)]
    pop_waiters: usize,
    #[cfg(test)]
    push_waiters: usize,
}

/// A closable, bounded, multi-consumer FIFO (see module docs).
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    /// Signals waiting poppers (new job, close, resume).
    available: Condvar,
    /// Signals pushers blocked on a full queue (slot freed, close).
    space: Condvar,
}

impl<T> JobQueue<T> {
    /// Creates a queue with room for `capacity` jobs (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                paused: false,
                #[cfg(test)]
                pop_waiters: 0,
                #[cfg(test)]
                push_waiters: 0,
            }),
            capacity: capacity.max(1),
            available: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Locks the queue state.  A poisoned mutex only means some thread
    /// panicked while holding the lock; the state itself (deque + flags)
    /// is kept consistent at every await point, so the queue keeps operating
    /// instead of cascading the panic into every worker and client.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a job under `policy`, returning the queue depth after the
    /// push, or the job itself when the queue is closed or stays full past
    /// what the policy tolerates.
    pub(crate) fn push(&self, job: T, policy: AdmissionPolicy) -> Result<usize, PushError<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed(job));
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                let depth = state.jobs.len();
                drop(state);
                self.available.notify_one();
                return Ok(depth);
            }
            match policy {
                AdmissionPolicy::Reject => return Err(PushError::Overloaded(job)),
                AdmissionPolicy::Block => {
                    #[cfg(test)]
                    {
                        state.push_waiters += 1;
                    }
                    state = self
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    #[cfg(test)]
                    {
                        state.push_waiters -= 1;
                    }
                }
            }
        }
    }

    /// Blocks until a job is available, returning the oldest one together
    /// with the number of jobs still waiting.  Returns `None` once the queue
    /// is closed and fully drained — the worker-shutdown signal.  While the
    /// queue is paused, `pop` waits even if jobs are queued (close overrides
    /// pause so shutdown always drains).
    pub(crate) fn pop(&self) -> Option<(T, usize)> {
        let mut state = self.lock();
        loop {
            if !state.paused || state.closed {
                if let Some(job) = state.jobs.pop_front() {
                    let depth = state.jobs.len();
                    drop(state);
                    self.space.notify_one();
                    return Some((job, depth));
                }
                if state.closed {
                    return None;
                }
            }
            #[cfg(test)]
            {
                state.pop_waiters += 1;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            #[cfg(test)]
            {
                state.pop_waiters -= 1;
            }
        }
    }

    /// Closes the queue: pending jobs are still handed out (even while
    /// paused), new pushes fail with the job handed back, blocked pushers
    /// wake with their job handed back, and blocked `pop`s return `None`
    /// once the backlog drains.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.available.notify_all();
        self.space.notify_all();
    }

    /// Pauses or resumes job hand-out.  Paused workers idle after their
    /// in-flight job; admission keeps operating under its policy.
    pub(crate) fn set_paused(&self, paused: bool) {
        let mut state = self.lock();
        state.paused = paused;
        drop(state);
        if !paused {
            self.available.notify_all();
        }
    }

    /// Number of jobs currently waiting.
    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Threads currently blocked in `pop` and in a full-queue `push` — the
    /// deterministic replacement for "yield and hope the waiter blocked".
    #[cfg(test)]
    pub(crate) fn waiters(&self) -> (usize, usize) {
        let state = self.lock();
        (state.pop_waiters, state.push_waiters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Spins until `queue` reports exactly `pops` blocked poppers and
    /// `pushes` blocked pushers — the explicit gate the old
    /// `yield_now`-based tests lacked.
    fn wait_for_waiters<T>(queue: &JobQueue<T>, pops: usize, pushes: usize) {
        while queue.waiters() != (pops, pushes) {
            std::thread::yield_now();
        }
    }

    fn unbounded<T>() -> JobQueue<T> {
        JobQueue::new(usize::MAX)
    }

    #[test]
    fn fifo_order_and_depth_on_one_shard() {
        let queue = unbounded();
        assert_eq!(queue.push(1, AdmissionPolicy::Block).unwrap(), 1);
        assert_eq!(queue.push(2, AdmissionPolicy::Block).unwrap(), 2);
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.pop(), Some((1, 1)));
        assert_eq!(queue.pop(), Some((2, 0)));
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn close_drains_then_stops() {
        let queue = unbounded();
        queue.push("a", AdmissionPolicy::Block).unwrap();
        queue.close();
        assert!(matches!(
            queue.push("b", AdmissionPolicy::Block),
            Err(PushError::Closed("b"))
        ));
        assert_eq!(queue.pop(), Some(("a", 0)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let queue = Arc::new(unbounded::<u32>());
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        // Close only once the waiter has provably blocked.
        wait_for_waiters(&queue, 1, 0);
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let queue = Arc::new(unbounded::<u32>());
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        wait_for_waiters(&queue, 1, 0);
        queue.push(7, AdmissionPolicy::Block).unwrap();
        assert_eq!(waiter.join().unwrap(), Some((7, 0)));
        queue.close();
    }

    #[test]
    fn reject_policy_sheds_at_capacity_without_blocking() {
        let queue = JobQueue::new(2);
        assert!(queue.push(1, AdmissionPolicy::Reject).is_ok());
        assert!(queue.push(2, AdmissionPolicy::Reject).is_ok());
        // The full queue hands the job straight back...
        assert!(matches!(
            queue.push(3, AdmissionPolicy::Reject),
            Err(PushError::Overloaded(3))
        ));
        // ...and a freed slot admits again.
        assert!(queue.pop().is_some());
        assert_eq!(queue.push(4, AdmissionPolicy::Reject).unwrap(), 2);
    }

    #[test]
    fn blocked_push_wakes_on_pop_and_on_close() {
        let queue = Arc::new(JobQueue::new(1));
        queue.push(1, AdmissionPolicy::Block).unwrap();
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(2, AdmissionPolicy::Block))
        };
        wait_for_waiters(&queue, 0, 1);
        // Freeing the slot admits the blocked pusher.
        assert_eq!(queue.pop(), Some((1, 0)));
        assert_eq!(pusher.join().unwrap().ok(), Some(1));
        // A pusher blocked at close gets its job handed back.
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(3, AdmissionPolicy::Block))
        };
        wait_for_waiters(&queue, 0, 1);
        queue.close();
        assert!(matches!(pusher.join().unwrap(), Err(PushError::Closed(3))));
    }

    #[test]
    fn jobs_leave_oldest_first_whichever_worker_pops() {
        let queue = Arc::new(JobQueue::new(16));
        for job in 0..4 {
            queue.push(job, AdmissionPolicy::Block).unwrap();
        }
        // Two workers, each popping twice.  A round-robin deal onto
        // per-worker deques would hand the first worker jobs 0 and 2.
        let worker = |queue: &Arc<JobQueue<i32>>| {
            let queue = Arc::clone(queue);
            std::thread::spawn(move || [queue.pop(), queue.pop()])
                .join()
                .unwrap()
        };
        assert_eq!(worker(&queue), [Some((0, 3)), Some((1, 2))]);
        assert_eq!(worker(&queue), [Some((2, 1)), Some((3, 0))]);
    }

    #[test]
    fn pause_holds_jobs_and_resume_releases_them() {
        let queue = Arc::new(JobQueue::new(8));
        queue.set_paused(true);
        queue.push(5, AdmissionPolicy::Block).unwrap();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        // The popper blocks even though a job is queued.
        wait_for_waiters(&queue, 1, 0);
        assert_eq!(queue.depth(), 1);
        queue.set_paused(false);
        assert_eq!(waiter.join().unwrap(), Some((5, 0)));
        // Close overrides pause so shutdown still drains.
        queue.set_paused(true);
        queue.push(6, AdmissionPolicy::Block).unwrap();
        queue.close();
        assert_eq!(queue.pop(), Some((6, 0)));
        assert_eq!(queue.pop(), None);
    }
}
