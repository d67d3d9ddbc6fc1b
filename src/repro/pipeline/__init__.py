"""DiBELLA pipeline stages 1-2 outputs: partitions, tasks, workloads.

The paper treats "the alignment tasks computed from each dataset, and their
partitioning, as fixed inputs" (§4).  This package produces those fixed
inputs in two interchangeable forms:

* :class:`ConcreteWorkload` — real reads + real candidate tasks from the
  sequence-level pipeline (tests, examples, micro-scale validation);
* :class:`StatisticalWorkload` — Table-1-exact totals with calibrated
  distributions, generated deterministically from a seed (figure benches up
  to 32,768 simulated cores);
* :class:`ShardedWorkload` — task rows (a concrete table's, or generated
  from a statistical preset) streamed in fixed-size shards under a
  bounded resident-shard budget, so paper-scale task tables (10^7–10^8
  rows) never exist in memory at once.

All render, for any machine size P, a :class:`WorkloadAssignment`: the
per-rank arrays (task counts, compute seconds, exchange volumes, lookup
counts, partition bytes) the BSP and Async engines consume.  Concrete and
sharded workloads render through one task-row renderer, the concrete
table being its one-resident-chunk case.
"""

from repro.pipeline.partition import (
    partition_reads_by_size,
    assign_tasks_balanced,
    check_ownership_invariant,
)
from repro.pipeline.sharded import ShardedWorkload, ShardStore
from repro.pipeline.tasks import Candidate, TaskTable
from repro.pipeline.workload import (
    WorkloadAssignment,
    ConcreteWorkload,
    StatisticalWorkload,
)

__all__ = [
    "partition_reads_by_size",
    "assign_tasks_balanced",
    "check_ownership_invariant",
    "Candidate",
    "TaskTable",
    "WorkloadAssignment",
    "ConcreteWorkload",
    "StatisticalWorkload",
    "ShardedWorkload",
    "ShardStore",
]
