//! Task records.

use std::fmt;

use ndpb_dram::DataAddr;

/// Selects the task function to run; the paper's "function pointer"
/// field. Applications define their own numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskFnId(pub u16);

/// Bulk-synchronization timestamp (Section IV, following Swarm-style
/// ordered parallelism). Tasks with equal timestamps may run in
/// parallel; timestamp `t+1` tasks wait for the global completion of
/// timestamp `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u32);

impl Timestamp {
    /// The next epoch.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// Handle to a live task stored once in the simulator's task arena.
///
/// Queues, mailboxes and messages carry this 4-byte id instead of the
/// task record; it is opaque (no ordering or arithmetic is meaningful)
/// and its slot is reused once the task finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub u32);

/// Up to four inline 64-bit task arguments ("any number of additional
/// arguments" in the paper, bounded here by the 64-byte message format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskArgs {
    vals: [u64; 4],
    len: u8,
}

impl TaskArgs {
    /// No arguments.
    pub const EMPTY: TaskArgs = TaskArgs {
        vals: [0; 4],
        len: 0,
    };

    /// Builds from a slice.
    ///
    /// # Panics
    ///
    /// Panics if more than four arguments are given.
    pub fn from_slice(args: &[u64]) -> Self {
        assert!(args.len() <= 4, "at most 4 inline task arguments");
        let mut vals = [0u64; 4];
        vals[..args.len()].copy_from_slice(args);
        TaskArgs {
            vals,
            len: args.len() as u8,
        }
    }

    /// One argument.
    pub fn one(a: u64) -> Self {
        Self::from_slice(&[a])
    }

    /// Two arguments.
    pub fn two(a: u64, b: u64) -> Self {
        Self::from_slice(&[a, b])
    }

    /// The arguments as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }

    /// Argument `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes these arguments occupy on the wire.
    pub fn wire_bytes(&self) -> u32 {
        self.len as u32 * 8
    }
}

/// A task: the unit of work, scheduling and migration.
///
/// # Example
///
/// ```
/// use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};
/// use ndpb_dram::DataAddr;
///
/// let t = Task::new(TaskFnId(1), Timestamp(0), DataAddr(0x40), 10, TaskArgs::one(7));
/// assert_eq!(t.args.get(0), 7);
/// assert!(t.wire_bytes() <= 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Which function to run.
    pub func: TaskFnId,
    /// Bulk-synchronization epoch.
    pub ts: Timestamp,
    /// Physical address of the data element this task operates on; the
    /// task is routed to (and executed at) the unit currently holding it.
    pub data: DataAddr,
    /// Estimated workload in NDP-core cycles. May be inaccurate or zero
    /// ("unspecified"); dynamic scheduling tolerates both (Section IV).
    pub est_workload: u32,
    /// Inline arguments.
    pub args: TaskArgs,
}

impl Task {
    /// Creates a task; this is the model's `enqueue_task` payload.
    pub fn new(
        func: TaskFnId,
        ts: Timestamp,
        data: DataAddr,
        est_workload: u32,
        args: TaskArgs,
    ) -> Self {
        Task {
            func,
            ts,
            data,
            est_workload,
            args,
        }
    }

    /// Workload estimate used by the load balancer: the declared estimate
    /// or a default of 1 cycle-unit when unspecified.
    pub fn workload_or_default(&self) -> u64 {
        if self.est_workload == 0 {
            1
        } else {
            self.est_workload as u64
        }
    }

    /// Size of this task in a task message (Figure 5): type+index header
    /// (2 B), function selector (2 B), timestamp (4 B), data address
    /// (8 B), workload estimate (4 B), plus inline arguments.
    pub fn wire_bytes(&self) -> u32 {
        2 + 2 + 4 + 8 + 4 + self.args.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip() {
        let a = TaskArgs::from_slice(&[1, 2, 3]);
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.get(2), 3);
        assert_eq!(a.wire_bytes(), 24);
    }

    #[test]
    fn empty_args() {
        assert!(TaskArgs::EMPTY.is_empty());
        assert_eq!(TaskArgs::EMPTY.wire_bytes(), 0);
        assert_eq!(TaskArgs::default(), TaskArgs::EMPTY);
    }

    #[test]
    #[should_panic(expected = "at most 4")]
    fn too_many_args_panics() {
        TaskArgs::from_slice(&[0; 5]);
    }

    #[test]
    fn wire_size_fits_message() {
        let t = Task::new(
            TaskFnId(1),
            Timestamp(3),
            DataAddr(0xdead),
            100,
            TaskArgs::from_slice(&[1, 2, 3, 4]),
        );
        assert_eq!(t.wire_bytes(), 2 + 2 + 4 + 8 + 4 + 32);
        assert!(t.wire_bytes() <= 64, "task must fit a 64 B message");
    }

    #[test]
    fn workload_default() {
        let mut t = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 0, TaskArgs::EMPTY);
        assert_eq!(t.workload_or_default(), 1);
        t.est_workload = 42;
        assert_eq!(t.workload_or_default(), 42);
    }

    #[test]
    fn timestamp_next() {
        assert_eq!(Timestamp(4).next(), Timestamp(5));
        assert_eq!(Timestamp(0).to_string(), "ts0");
    }
}
