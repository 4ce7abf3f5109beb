//! Access-tracing hooks: the seam between the interpreter and the
//! dependence sanitizer (`irr-sanitizer`).
//!
//! The sanitizer cross-checks every static parallelization verdict
//! against the dependences a run *actually* exhibits. To observe them it
//! needs the interpreter's dynamic access stream: which array element
//! (or scalar) each loop iteration reads and writes. An [`AccessTracer`]
//! attached to an [`Interp`](crate::Interp) receives exactly that —
//! loop entries (with the live store, so inspectors can replay guard
//! decisions), iteration boundaries, and every element/scalar access
//! executed while the program runs sequentially.
//!
//! Tracing is **zero-cost when off**: the interpreter carries an
//! `Option` and every hook site is a single pointer-null check on the
//! `None` path. A [`TraceConfig`] restricts which `do` loops emit
//! enter/iteration/exit events; element and scalar accesses are
//! forwarded whenever a tracer is attached, and the tracer drops them
//! when no traced loop is active.
//!
//! Parallel-dispatched loop executions are *not* traced: the sanitizer
//! audits the sequential semantics of a loop (the specification every
//! parallel execution must match), so traced runs use the sequential
//! dispatcher.

use crate::interp::Store;
use irr_frontend::{StmtId, VarId};
use std::collections::HashSet;

/// Which `do` loops emit trace events.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Loops to trace; `None` traces every `do` loop.
    pub loops: Option<HashSet<StmtId>>,
}

impl TraceConfig {
    /// Traces every `do` loop in the program.
    pub fn all() -> TraceConfig {
        TraceConfig { loops: None }
    }

    /// Traces only the given loops.
    pub fn only(loops: impl IntoIterator<Item = StmtId>) -> TraceConfig {
        TraceConfig {
            loops: Some(loops.into_iter().collect()),
        }
    }

    /// Whether `loop_stmt` emits enter/iteration/exit events.
    pub fn traces(&self, loop_stmt: StmtId) -> bool {
        self.loops.as_ref().is_none_or(|l| l.contains(&loop_stmt))
    }
}

/// Receiver of the interpreter's dynamic access stream.
///
/// Loop events are properly nested: every `loop_enter` is matched by a
/// `loop_exit` (unless execution aborts with an error in between), and
/// `loop_iter` arrives once per iteration, before the body executes.
/// Access events fire for *all* accesses executed while a tracer is
/// attached, including accesses inside untraced loops, conditionals,
/// and called procedures — attribution to loop iterations is the
/// tracer's job (it knows which traced loops are active).
pub trait AccessTracer {
    /// A traced loop is entered, with its bounds already evaluated. The
    /// live store is provided so the tracer can replay run-time guard
    /// inspections at exactly the point the hybrid runtime would.
    fn loop_enter(&mut self, store: &Store, loop_stmt: StmtId, lo: i64, hi: i64, step: i64);

    /// A traced loop begins iteration `iter` (the induction variable's
    /// value for this trip).
    fn loop_iter(&mut self, loop_stmt: StmtId, iter: i64);

    /// A traced loop is exited (zero-trip loops exit immediately after
    /// entering).
    fn loop_exit(&mut self, loop_stmt: StmtId);

    /// An array element is read (`idx` is the flat, bounds-checked
    /// index).
    fn read_element(&mut self, array: VarId, idx: usize);

    /// An array element is written.
    fn write_element(&mut self, array: VarId, idx: usize);

    /// A scalar is read.
    fn read_scalar(&mut self, var: VarId);

    /// A scalar is written by an assignment statement. Loop induction
    /// variable updates are *not* reported — the iteration boundary
    /// already carries that information.
    fn write_scalar(&mut self, var: VarId);
}

/// The tracer attachment the interpreter carries: a config plus the
/// boxed hook.
pub(crate) struct TracerSlot {
    pub(crate) config: TraceConfig,
    pub(crate) hook: Box<dyn AccessTracer>,
}

impl std::fmt::Debug for TracerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerSlot")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use irr_frontend::parse_program;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the raw event stream for assertions.
    #[derive(Default)]
    struct EventLog {
        events: Vec<String>,
    }

    struct Recorder {
        log: Rc<RefCell<EventLog>>,
    }

    impl AccessTracer for Recorder {
        fn loop_enter(&mut self, _store: &Store, s: StmtId, lo: i64, hi: i64, step: i64) {
            self.log
                .borrow_mut()
                .events
                .push(format!("enter {s:?} {lo}..{hi} step {step}"));
        }
        fn loop_iter(&mut self, s: StmtId, iter: i64) {
            self.log
                .borrow_mut()
                .events
                .push(format!("iter {s:?} {iter}"));
        }
        fn loop_exit(&mut self, s: StmtId) {
            self.log.borrow_mut().events.push(format!("exit {s:?}"));
        }
        fn read_element(&mut self, a: VarId, idx: usize) {
            self.log
                .borrow_mut()
                .events
                .push(format!("rd {a:?}[{idx}]"));
        }
        fn write_element(&mut self, a: VarId, idx: usize) {
            self.log
                .borrow_mut()
                .events
                .push(format!("wr {a:?}[{idx}]"));
        }
        fn read_scalar(&mut self, v: VarId) {
            self.log.borrow_mut().events.push(format!("rds {v:?}"));
        }
        fn write_scalar(&mut self, v: VarId) {
            self.log.borrow_mut().events.push(format!("wrs {v:?}"));
        }
    }

    #[test]
    fn loop_events_are_nested_and_iterations_numbered() {
        let p = parse_program(
            "program t
             integer i
             real x(4)
             do i = 2, 4
               x(i) = i
             enddo
             end",
        )
        .unwrap();
        let log = Rc::new(RefCell::new(EventLog::default()));
        let mut it = Interp::new(&p);
        it.attach_tracer(TraceConfig::all(), Box::new(Recorder { log: log.clone() }));
        it.run().unwrap();
        let events = log.borrow().events.clone();
        let enters: Vec<&String> = events.iter().filter(|e| e.starts_with("enter")).collect();
        let iters: Vec<&String> = events.iter().filter(|e| e.starts_with("iter")).collect();
        let exits: Vec<&String> = events.iter().filter(|e| e.starts_with("exit")).collect();
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1);
        assert_eq!(iters.len(), 3, "{events:?}");
        assert!(enters[0].contains("2..4 step 1"), "{events:?}");
        // Three element writes, one per iteration.
        assert_eq!(
            events.iter().filter(|e| e.starts_with("wr ")).count(),
            3,
            "{events:?}"
        );
    }

    #[test]
    fn zero_trip_loop_enters_and_exits_without_iterations() {
        let p = parse_program(
            "program t
             integer i
             real x(4)
             do i = 5, 1
               x(1) = 9
             enddo
             end",
        )
        .unwrap();
        let log = Rc::new(RefCell::new(EventLog::default()));
        let mut it = Interp::new(&p);
        it.attach_tracer(TraceConfig::all(), Box::new(Recorder { log: log.clone() }));
        it.run().unwrap();
        let events = log.borrow().events.clone();
        assert_eq!(events.iter().filter(|e| e.starts_with("enter")).count(), 1);
        assert_eq!(events.iter().filter(|e| e.starts_with("exit")).count(), 1);
        assert_eq!(events.iter().filter(|e| e.starts_with("iter")).count(), 0);
        assert_eq!(events.iter().filter(|e| e.starts_with("wr ")).count(), 0);
    }

    #[test]
    fn config_filters_loop_events_but_not_accesses() {
        let p = parse_program(
            "program t
             integer i, j
             real x(4), y(4)
             do i = 1, 2
               do j = 1, 2
                 x(j) = y(j) + i
               enddo
             enddo
             end",
        )
        .unwrap();
        let outer = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| p.stmt(*s).kind.is_loop())
            .unwrap();
        let log = Rc::new(RefCell::new(EventLog::default()));
        let mut it = Interp::new(&p);
        it.attach_tracer(
            TraceConfig::only([outer]),
            Box::new(Recorder { log: log.clone() }),
        );
        it.run().unwrap();
        let events = log.borrow().events.clone();
        // Only the outer loop emits loop events; the inner loop's
        // accesses still arrive.
        assert_eq!(
            events.iter().filter(|e| e.starts_with("enter")).count(),
            1,
            "{events:?}"
        );
        assert_eq!(events.iter().filter(|e| e.starts_with("iter")).count(), 2);
        assert_eq!(events.iter().filter(|e| e.starts_with("wr ")).count(), 4);
    }
}
