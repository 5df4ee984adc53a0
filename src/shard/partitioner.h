// Deterministic cell partitioner (DESIGN.md §18): splits an instance's
// machines and tasks into K cells so the shard coordinator can solve them
// independently under per-cell energy budgets.
//
// Machines are spread LPT-style (largest speed first, seeded tie-break) so
// every cell gets a comparable slice of the fleet's throughput; tasks follow
// in deadline order onto the cell with the least relative load
// (assigned fmax / cell speed). The partition is a pure function of
// (instance, options) — same inputs, same cells, bit for bit — which is
// what makes sharded serving runs replayable.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/types.h"

namespace dsct::shard {

struct PartitionOptions {
  /// Requested cell count; clamped to [1, numMachines] so every cell owns
  /// at least one machine.
  int cells = 1;
  /// Seed for the machine tie-break hash. Machines of equal speed are
  /// ordered by a seeded hash of their index, so distinct seeds explore
  /// distinct (equally balanced) partitions deterministically.
  std::uint64_t seed = 0;
};

struct Partition {
  int cells = 0;
  std::vector<int> machineCell;   ///< machine index -> cell
  std::vector<int> taskCell;      ///< task index -> cell
  std::vector<double> cellSpeed;  ///< Σ machine speed per cell (TFLOPS)
  std::vector<double> cellFmax;   ///< Σ assigned task fmax per cell (TFLOP)

  /// Global machine indices per cell, ascending (stable sub-instance order).
  std::vector<std::vector<int>> machinesOf() const;
  /// Global task indices per cell, ascending — deadline order within the
  /// cell because the instance's tasks are deadline-sorted.
  std::vector<std::vector<int>> tasksOf() const;
};

Partition partitionInstance(const Instance& inst,
                            const PartitionOptions& options);

}  // namespace dsct::shard
