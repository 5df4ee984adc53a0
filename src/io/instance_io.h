// Plain-text serialisation of instances and schedules.
//
// Format (line-oriented, '#' comments, whitespace-separated):
//   dsct-instance v1
//   budget <J>
//   machine <name> <speed_tflops> <efficiency_tflop_per_joule>
//   task <name> <deadline_s> <numPoints> <f0> <a0> <f1> <a1> ...
//   end
//
//   dsct-schedule v1
//   assign <taskIndex> <machineIndex> <duration_s>   # at most one line per
//                                                    # task; machineIndex -1
//                                                    # drops
//   end
//
// The closing `end` line is required, so a truncated file is rejected rather
// than read as a shorter instance; nothing may follow it. Numbers must be
// finite.
//
// Task accuracy points are the piecewise-linear breakpoints (f in TFLOP,
// a in [0,1], f0 == 0). Instances read back sorted by deadline, exactly as
// the Instance constructor guarantees.
#pragma once

#include <iosfwd>
#include <string>

#include "sched/schedule.h"
#include "sched/types.h"

namespace dsct::io {

void writeInstance(std::ostream& os, const Instance& inst);
void writeInstanceFile(const std::string& path, const Instance& inst);

/// Throws CheckError with a line-number message on malformed input.
Instance readInstance(std::istream& is);
/// As readInstance; errors read `PATH: line N: …`.
Instance readInstanceFile(const std::string& path);

void writeSchedule(std::ostream& os, const IntegralSchedule& schedule);
void writeScheduleFile(const std::string& path,
                       const IntegralSchedule& schedule);

/// Reads assignments and rebuilds the timeline against `inst`.
IntegralSchedule readSchedule(std::istream& is, const Instance& inst);
/// As readSchedule; errors are prefixed with the file path.
IntegralSchedule readScheduleFile(const std::string& path,
                                  const Instance& inst);

}  // namespace dsct::io
