//! The application abstraction and per-task execution context.

use ndpb_dram::{DataAddr, UnitId};

use crate::task::{Task, TaskArgs, TaskFnId, Timestamp};

/// What one task did while executing: compute cycles, DRAM traffic to its
/// local bank, and child tasks it spawned. The simulator prices the
/// accesses through the bank model and routes the children.
///
/// A fresh `ExecCtx` is handed to [`Application::execute`] for every
/// task; the runner drains it afterwards.
///
/// # Example
///
/// ```
/// use ndpb_tasks::{ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};
/// use ndpb_dram::{DataAddr, UnitId};
///
/// let mut ctx = ExecCtx::new(UnitId(3));
/// ctx.compute(50);
/// ctx.read(DataAddr(0x100), 64);
/// ctx.enqueue_task(TaskFnId(2), Timestamp(0), DataAddr(0x4000), 10, TaskArgs::EMPTY);
/// assert_eq!(ctx.compute_cycles(), 50);
/// assert_eq!(ctx.spawned().len(), 1);
/// ```
#[derive(Debug)]
pub struct ExecCtx {
    unit: UnitId,
    compute_cycles: u64,
    reads: Vec<(DataAddr, u32)>,
    writes: Vec<(DataAddr, u32)>,
    spawned: Vec<Task>,
}

impl ExecCtx {
    /// A fresh context for a task running on `unit`.
    pub fn new(unit: UnitId) -> Self {
        ExecCtx {
            unit,
            compute_cycles: 0,
            reads: Vec::new(),
            writes: Vec::new(),
            spawned: Vec::new(),
        }
    }

    /// The unit this task is executing on (after any migration).
    pub fn unit(&self) -> UnitId {
        self.unit
    }

    /// Declares `cycles` NDP-core cycles of computation (SRAM-resident
    /// work; cache hits are folded in here by the applications).
    pub fn compute(&mut self, cycles: u64) {
        self.compute_cycles += cycles;
    }

    /// Declares a DRAM read of `bytes` at `addr`. The address should
    /// belong to the task's data element (data-local execution); the
    /// simulator maps it to wherever the element currently lives.
    pub fn read(&mut self, addr: DataAddr, bytes: u32) {
        self.reads.push((addr, bytes));
    }

    /// Declares a DRAM write of `bytes` at `addr`.
    pub fn write(&mut self, addr: DataAddr, bytes: u32) {
        self.writes.push((addr, bytes));
    }

    /// Spawns a child task — the paper's
    /// `enqueue_task(func, ts, addr, workload, args…)` API. The child is
    /// routed to the unit currently holding `addr`.
    pub fn enqueue_task(
        &mut self,
        func: TaskFnId,
        ts: Timestamp,
        addr: DataAddr,
        est_workload: u32,
        args: TaskArgs,
    ) {
        self.spawned
            .push(Task::new(func, ts, addr, est_workload, args));
    }

    /// Spawns an already-built child task.
    pub fn spawn(&mut self, task: Task) {
        self.spawned.push(task);
    }

    /// Total declared compute cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// Declared DRAM reads.
    pub fn reads(&self) -> &[(DataAddr, u32)] {
        &self.reads
    }

    /// Declared DRAM writes.
    pub fn writes(&self) -> &[(DataAddr, u32)] {
        &self.writes
    }

    /// Spawned child tasks.
    pub fn spawned(&self) -> &[Task] {
        &self.spawned
    }

    /// Consumes the context, returning the spawned tasks.
    pub fn into_spawned(self) -> Vec<Task> {
        self.spawned
    }

    /// Takes the spawned tasks out, leaving the context reusable (its
    /// other buffers keep their contents until the next [`reset`]).
    ///
    /// [`reset`]: Self::reset
    pub fn take_spawned(&mut self) -> Vec<Task> {
        std::mem::take(&mut self.spawned)
    }

    /// Resets this context for reuse on `unit`, adopting `spawned`
    /// (cleared) as the spawn buffer. Together with
    /// [`take_spawned`](Self::take_spawned) this lets an event loop
    /// execute every task without per-task heap allocation: the
    /// read/write buffers keep their capacity, and spawn `Vec`s cycle
    /// through a caller-owned free list.
    pub fn reset(&mut self, unit: UnitId, mut spawned: Vec<Task>) {
        spawned.clear();
        self.unit = unit;
        self.compute_cycles = 0;
        self.reads.clear();
        self.writes.clear();
        self.spawned = spawned;
    }
}

/// A workload expressed in the task model.
///
/// Implementations own their (synthetic) dataset, are deterministic given
/// their construction seed, and must tolerate tasks of one timestamp
/// executing in any order — the guarantee the bulk-synchronous model
/// gives them.
///
/// `Send` is a supertrait so a boxed application — and the `System`
/// that owns it — can be handed to a sweep-engine worker thread.
/// Applications are owned data (no shared interior mutability), so this
/// costs implementors nothing.
pub trait Application: Send {
    /// Short name, e.g. `"tree"`.
    fn name(&self) -> &str;

    /// The tasks that seed timestamp 0.
    fn initial_tasks(&mut self) -> Vec<Task>;

    /// Runs one task, declaring its costs and children through `ctx`.
    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx);

    /// Optional application-level result checksum, used by integration
    /// tests to confirm scheduling/migration do not change results.
    fn checksum(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Application for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn initial_tasks(&mut self) -> Vec<Task> {
            vec![Task::new(
                TaskFnId(0),
                Timestamp(0),
                DataAddr(0),
                1,
                TaskArgs::EMPTY,
            )]
        }
        fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
            ctx.compute(5);
            ctx.read(task.data, 64);
            if task.ts.0 < 1 {
                ctx.enqueue_task(task.func, task.ts.next(), task.data, 1, TaskArgs::EMPTY);
            }
        }
    }

    #[test]
    fn ctx_records_everything() {
        let mut app = Echo;
        let tasks = app.initial_tasks();
        let mut ctx = ExecCtx::new(UnitId(0));
        app.execute(&tasks[0], &mut ctx);
        assert_eq!(ctx.compute_cycles(), 5);
        assert_eq!(ctx.reads(), &[(DataAddr(0), 64)]);
        assert!(ctx.writes().is_empty());
        assert_eq!(ctx.spawned().len(), 1);
        assert_eq!(ctx.spawned()[0].ts, Timestamp(1));
        assert_eq!(ctx.unit(), UnitId(0));
    }

    #[test]
    fn second_epoch_task_spawns_nothing() {
        let mut app = Echo;
        let t1 = Task::new(TaskFnId(0), Timestamp(1), DataAddr(0), 1, TaskArgs::EMPTY);
        let mut ctx = ExecCtx::new(UnitId(0));
        app.execute(&t1, &mut ctx);
        assert!(ctx.into_spawned().is_empty());
    }

    #[test]
    fn default_checksum_is_zero() {
        assert_eq!(Echo.checksum(), 0);
    }
}
