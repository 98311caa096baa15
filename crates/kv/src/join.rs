//! Count-down join over concurrently completing continuations.
//!
//! Every fan-out in the coordinator (read refreshes, the two-phase intent
//! flush, staging-recovery probes) and in the SQL executor (`join_all`)
//! waits for N results the same way; this is the one copy of that
//! bookkeeping. What each arrival *does* stays with its caller.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cluster::{Cluster, Cont};

/// One concurrent task of a [`join_all`]: runs, then reports through the
/// continuation it is handed.
pub type Task<T, E> = Box<dyn FnOnce(&mut Cluster, Cont<Result<T, E>>)>;

struct Inner<T, E> {
    slots: Vec<Option<T>>,
    remaining: usize,
    /// Taken when the join delivers; `None` drops whatever arrives later.
    done: Option<Cont<Result<Vec<T>, E>>>,
}

/// A join of `n` arms. `done` fires exactly once: with every arm's value in
/// arm order once all have reported `Ok`, or with the first `Err` the moment
/// it arrives. Results arriving after that are dropped. Clones share the
/// join; each arm reports through [`Join::arrive`] once.
pub struct Join<T, E>(Rc<RefCell<Inner<T, E>>>);

impl<T, E> Clone for Join<T, E> {
    fn clone(&self) -> Self {
        Join(Rc::clone(&self.0))
    }
}

impl<T, E> Join<T, E> {
    /// A join of `n > 0` arms (a join of none would never fire).
    pub fn new(n: usize, done: Cont<Result<Vec<T>, E>>) -> Self {
        debug_assert!(n > 0, "a join of no arms never fires");
        Join(Rc::new(RefCell::new(Inner {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
            done: Some(done),
        })))
    }

    /// Arm `i` reports its result.
    pub fn arrive(&self, c: &mut Cluster, i: usize, res: Result<T, E>) {
        let mut s = self.0.borrow_mut();
        if s.done.is_none() {
            return;
        }
        let out = match res {
            Ok(v) => {
                s.slots[i] = Some(v);
                s.remaining -= 1;
                if s.remaining > 0 {
                    return;
                }
                Ok(s.slots.drain(..).flatten().collect())
            }
            Err(e) => Err(e),
        };
        let done = s.done.take().expect("checked above");
        drop(s);
        done(c, out);
    }
}

/// Run all tasks concurrently; deliver all results in task order, or the
/// first error.
pub fn join_all<T: 'static, E: 'static>(
    cluster: &mut Cluster,
    tasks: Vec<Task<T, E>>,
    done: Cont<Result<Vec<T>, E>>,
) {
    if tasks.is_empty() {
        done(cluster, Ok(Vec::new()));
        return;
    }
    let join = Join::new(tasks.len(), done);
    for (i, task) in tasks.into_iter().enumerate() {
        let join = join.clone();
        task(cluster, Box::new(move |c, res| join.arrive(c, i, res)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use mr_sim::{RttMatrix, SimDuration, SimTime, Topology};

    type Outcome = Rc<RefCell<Vec<Result<Vec<u32>, String>>>>;

    fn tiny_cluster() -> Cluster {
        let topo = Topology::build(&["r0"], 3, RttMatrix::uniform(1, SimDuration::ZERO));
        Cluster::new(topo, ClusterConfig::default())
    }

    /// A task that reports `res` after `millis` of simulated time.
    fn after(millis: u64, res: Result<u32, String>) -> Task<u32, String> {
        Box::new(move |c, cont| {
            c.schedule(
                SimDuration::from_millis(millis),
                Box::new(move |c2| cont(c2, res)),
            );
        })
    }

    /// Run `tasks` under `join_all`; every delivery lands in the log.
    fn run(c: &mut Cluster, tasks: Vec<Task<u32, String>>) -> Outcome {
        let out = Outcome::default();
        let log = Rc::clone(&out);
        join_all(c, tasks, Box::new(move |_, res| log.borrow_mut().push(res)));
        out
    }

    #[test]
    fn join_all_collects_in_order() {
        let mut c = tiny_cluster();
        // Complete in reverse order: results are slot-ordered regardless.
        let tasks = (0..4u32)
            .map(|i| after(100 - 10 * i as u64, Ok(i)))
            .collect();
        let out = run(&mut c, tasks);
        c.run_until(SimTime(SimDuration::from_secs(1).nanos()));
        assert_eq!(*out.borrow(), vec![Ok(vec![0, 1, 2, 3])]);
    }

    #[test]
    fn join_all_first_error_wins_and_late_results_are_dropped() {
        let mut c = tiny_cluster();
        let tasks = vec![
            after(50, Ok(1)),
            after(10, Err("boom".into())),
            after(30, Err("late".into())),
        ];
        let out = run(&mut c, tasks);
        c.run_until(SimTime(SimDuration::from_millis(20).nanos()));
        // Error delivered as soon as it happens.
        assert_eq!(*out.borrow(), vec![Err("boom".to_string())]);
        c.run_until(SimTime(SimDuration::from_secs(1).nanos()));
        // The second error and the slow Ok found the join already settled.
        assert_eq!(out.borrow().len(), 1);
    }

    #[test]
    fn join_of_nothing_delivers_at_once() {
        let mut c = tiny_cluster();
        let out = run(&mut c, Vec::new());
        assert_eq!(*out.borrow(), vec![Ok(Vec::new())]);
    }
}
