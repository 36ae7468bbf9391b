//! Tasks: the unit of scheduling in the MapReduce engine.

use crate::cluster::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a task within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

/// Map or Reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Processes one input split.
    Map,
    /// Processes one partition of the shuffled intermediate data.
    Reduce,
}

/// Lifecycle of a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskState {
    /// Input data is not yet at an acceptable location.
    WaitingForData,
    /// Ready to be assigned to a free slot.
    Runnable,
    /// Executing on a node; finishes at the recorded hour.
    Running {
        /// Node executing the task.
        node: NodeId,
        /// Simulation hour at which the task completes.
        finish_at: f64,
    },
    /// Finished at the recorded hour.
    Completed {
        /// Completion time in hours.
        at: f64,
    },
}

/// A schedulable unit of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Identifier within the job.
    pub id: TaskId,
    /// Map or Reduce.
    pub kind: TaskKind,
    /// Amount of data the task processes, in GB.
    pub data_gb: f64,
    /// Current state.
    pub state: TaskState,
}

impl Task {
    /// Creates a task in the `WaitingForData` state.
    pub fn new(id: TaskId, kind: TaskKind, data_gb: f64) -> Self {
        Self {
            id,
            kind,
            data_gb,
            state: TaskState::WaitingForData,
        }
    }

    /// `true` once the task has completed.
    pub fn is_completed(&self) -> bool {
        matches!(self.state, TaskState::Completed { .. })
    }

    /// `true` while the task is executing.
    pub fn is_running(&self) -> bool {
        matches!(self.state, TaskState::Running { .. })
    }
}

/// Builds the task list for a job: `map_tasks` map tasks splitting
/// `input_gb` evenly, plus `reduce_tasks` reduce tasks splitting `shuffle_gb`
/// evenly.
pub fn build_tasks(
    map_tasks: usize,
    input_gb: f64,
    reduce_tasks: usize,
    shuffle_gb: f64,
) -> Vec<Task> {
    let mut tasks = Vec::with_capacity(map_tasks + reduce_tasks);
    let map_share = if map_tasks > 0 {
        input_gb / map_tasks as f64
    } else {
        0.0
    };
    for i in 0..map_tasks {
        tasks.push(Task::new(TaskId(i), TaskKind::Map, map_share));
    }
    let reduce_share = if reduce_tasks > 0 {
        shuffle_gb / reduce_tasks as f64
    } else {
        0.0
    };
    for i in 0..reduce_tasks {
        tasks.push(Task::new(
            TaskId(map_tasks + i),
            TaskKind::Reduce,
            reduce_share,
        ));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_list_partitions_data_evenly() {
        let tasks = build_tasks(512, 32.0, 16, 0.64);
        assert_eq!(tasks.len(), 528);
        let map_total: f64 = tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map)
            .map(|t| t.data_gb)
            .sum();
        let reduce_total: f64 = tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Reduce)
            .map(|t| t.data_gb)
            .sum();
        assert!((map_total - 32.0).abs() < 1e-9);
        assert!((reduce_total - 0.64).abs() < 1e-9);
    }

    #[test]
    fn task_ids_are_dense_and_unique() {
        let tasks = build_tasks(4, 1.0, 2, 0.1);
        let ids: Vec<usize> = tasks.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn state_transitions_and_queries() {
        let mut t = Task::new(TaskId(0), TaskKind::Map, 0.0625);
        assert!(!t.is_completed());
        assert!(!t.is_running());
        t.state = TaskState::Running {
            node: NodeId(3),
            finish_at: 1.5,
        };
        assert!(t.is_running());
        t.state = TaskState::Completed { at: 1.5 };
        assert!(t.is_completed());
    }

    #[test]
    fn zero_task_jobs_are_empty() {
        assert!(build_tasks(0, 0.0, 0, 0.0).is_empty());
    }
}
