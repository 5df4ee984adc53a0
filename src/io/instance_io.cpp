#include "io/instance_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"

namespace dsct::io {

namespace {

/// Tokenised, comment-stripped line reader that tracks line numbers for
/// error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty line's tokens; empty vector at EOF.
  std::vector<std::string> next() {
    std::string line;
    while (std::getline(is_, line)) {
      ++lineNumber_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ss(line);
      std::vector<std::string> tokens;
      std::string token;
      while (ss >> token) tokens.push_back(token);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  int lineNumber() const { return lineNumber_; }

 private:
  std::istream& is_;
  int lineNumber_ = 0;
};

double parseDouble(const std::string& token, int line) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    DSCT_ENSURE(false, "line " << line << ": expected number, got '"
                               << token << "'");
  }
  DSCT_ENSURE(consumed == token.size(),
              "line " << line << ": trailing characters in '" << token
                      << "'");
  DSCT_ENSURE(std::isfinite(value),
              "line " << line << ": non-finite number '" << token << "'");
  return value;
}

int parseInt(const std::string& token, int line) {
  const double value = parseDouble(token, line);
  // Range and integrality first: casting an out-of-range double is UB.
  DSCT_ENSURE(value >= std::numeric_limits<int>::min() &&
                  value <= std::numeric_limits<int>::max() &&
                  std::trunc(value) == value,
              "line " << line << ": expected integer, got '" << token
                      << "'");
  return static_cast<int>(value);
}

/// The next record of a file whose records close with an `end` line:
/// empty once `end` is read. A file that stops before `end` was truncated,
/// and anything after `end` is rejected.
std::vector<std::string> nextRecord(LineReader& reader) {
  const int previous = reader.lineNumber();
  std::vector<std::string> tokens = reader.next();
  DSCT_ENSURE(!tokens.empty(), "line " << previous
                                       << ": file ends without an 'end' "
                                          "line (truncated?)");
  if (tokens[0] != "end") return tokens;
  const int line = reader.lineNumber();
  DSCT_ENSURE(tokens.size() == 1,
              "line " << line << ": 'end' takes no arguments");
  const std::vector<std::string> after = reader.next();
  DSCT_ENSURE(after.empty(), "line " << reader.lineNumber() << ": '"
                                     << after[0]
                                     << "' after 'end' (line " << line
                                     << ")");
  return {};
}

/// Names are written as single tokens; spaces are escaped as '\s'.
std::string escapeName(const std::string& name) {
  std::string out;
  for (char ch : name) {
    if (ch == ' ') {
      out += "\\s";
    } else {
      out += ch;
    }
  }
  return out.empty() ? std::string("_") : out;
}

std::string unescapeName(const std::string& token) {
  std::string out;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '\\' && i + 1 < token.size() && token[i + 1] == 's') {
      out += ' ';
      ++i;
    } else {
      out += token[i];
    }
  }
  return out == "_" ? std::string() : out;
}

}  // namespace

void writeInstance(std::ostream& os, const Instance& inst) {
  os << "dsct-instance v1\n";
  os << std::setprecision(17);
  os << "budget " << inst.energyBudget() << '\n';
  for (const Machine& m : inst.machines()) {
    os << "machine " << escapeName(m.name) << ' ' << m.speed << ' '
       << m.efficiency << '\n';
  }
  for (const Task& t : inst.tasks()) {
    const PiecewiseLinearAccuracy& acc = t.accuracy;
    os << "task " << escapeName(t.name) << ' ' << t.deadline << ' '
       << (acc.numSegments() + 1);
    for (int k = 0; k <= acc.numSegments(); ++k) {
      os << ' ' << acc.breakpoint(k) << ' ' << acc.valueAt(k);
    }
    os << '\n';
  }
  os << "end\n";
}

void writeInstanceFile(const std::string& path, const Instance& inst) {
  std::ofstream out(path);
  DSCT_CHECK_MSG(out, "cannot open " << path << " for writing");
  writeInstance(out, inst);
}

Instance readInstance(std::istream& is) {
  LineReader reader(is);
  auto header = reader.next();
  DSCT_ENSURE(header.size() == 2 && header[0] == "dsct-instance" &&
                  header[1] == "v1",
              "line " << reader.lineNumber()
                      << ": expected 'dsct-instance v1' header");
  double budget = 0.0;
  bool sawBudget = false;
  std::vector<Machine> machines;
  std::vector<Task> tasks;
  for (auto tokens = nextRecord(reader); !tokens.empty();
       tokens = nextRecord(reader)) {
    const int line = reader.lineNumber();
    if (tokens[0] == "budget") {
      DSCT_ENSURE(tokens.size() == 2, "line " << line << ": budget <J>");
      budget = parseDouble(tokens[1], line);
      DSCT_ENSURE(budget >= 0.0, "line " << line << ": budget must be >= 0");
      sawBudget = true;
    } else if (tokens[0] == "machine") {
      DSCT_ENSURE(tokens.size() == 4,
                  "line " << line << ": machine <name> <speed> <eff>");
      const double speed = parseDouble(tokens[2], line);
      const double efficiency = parseDouble(tokens[3], line);
      DSCT_ENSURE(speed > 0.0 && efficiency > 0.0,
                  "line " << line
                          << ": machine speed and efficiency must be > 0");
      machines.push_back(Machine{speed, efficiency, unescapeName(tokens[1])});
    } else if (tokens[0] == "task") {
      DSCT_ENSURE(tokens.size() >= 4,
                  "line " << line
                          << ": task <name> <deadline> <numPoints> ...");
      const double deadline = parseDouble(tokens[2], line);
      DSCT_ENSURE(deadline >= 0.0,
                  "line " << line << ": deadline must be >= 0");
      const int points = parseInt(tokens[3], line);
      DSCT_ENSURE(points >= 2, "line " << line << ": need >= 2 points");
      DSCT_ENSURE(tokens.size() == 4 + 2 * static_cast<std::size_t>(points),
                  "line " << line << ": expected " << 2 * points
                          << " coordinates");
      std::vector<double> flops;
      std::vector<double> values;
      for (int k = 0; k < points; ++k) {
        flops.push_back(
            parseDouble(tokens[4 + 2 * static_cast<std::size_t>(k)], line));
        values.push_back(
            parseDouble(tokens[5 + 2 * static_cast<std::size_t>(k)], line));
      }
      try {
        tasks.push_back(Task{deadline,
                             PiecewiseLinearAccuracy::fromPoints(
                                 std::move(flops), std::move(values)),
                             unescapeName(tokens[1])});
      } catch (const CheckError& e) {
        // The curve's own contract, reported at this record's line.
        DSCT_ENSURE(false, "line " << line << ": " << e.message());
      }
    } else {
      DSCT_ENSURE(false,
                  "line " << line << ": unknown directive '" << tokens[0]
                          << "'");
    }
  }
  DSCT_ENSURE(sawBudget, "missing 'budget' line");
  DSCT_ENSURE(!machines.empty(), "missing 'machine' line");
  return Instance(std::move(tasks), std::move(machines), budget);
}

Instance readInstanceFile(const std::string& path) {
  std::ifstream in(path);
  DSCT_ENSURE(in, path << ": cannot open for reading");
  try {
    return readInstance(in);
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

void writeSchedule(std::ostream& os, const IntegralSchedule& schedule) {
  os << "dsct-schedule v1\n";
  os << std::setprecision(17);
  for (int j = 0; j < schedule.numTasks(); ++j) {
    os << "assign " << j << ' ' << schedule.machineOf(j) << ' '
       << schedule.duration(j) << '\n';
  }
  os << "end\n";
}

void writeScheduleFile(const std::string& path,
                       const IntegralSchedule& schedule) {
  std::ofstream out(path);
  DSCT_CHECK_MSG(out, "cannot open " << path << " for writing");
  writeSchedule(out, schedule);
}

IntegralSchedule readSchedule(std::istream& is, const Instance& inst) {
  LineReader reader(is);
  auto header = reader.next();
  DSCT_ENSURE(header.size() == 2 && header[0] == "dsct-schedule" &&
                  header[1] == "v1",
              "line " << reader.lineNumber()
                      << ": expected 'dsct-schedule v1' header");
  std::vector<int> machineOf(static_cast<std::size_t>(inst.numTasks()), -1);
  std::vector<double> duration(static_cast<std::size_t>(inst.numTasks()), 0.0);
  std::vector<int> assignedAt(static_cast<std::size_t>(inst.numTasks()), 0);
  for (auto tokens = nextRecord(reader); !tokens.empty();
       tokens = nextRecord(reader)) {
    const int line = reader.lineNumber();
    DSCT_ENSURE(tokens.size() == 4 && tokens[0] == "assign",
                "line " << line
                        << ": assign <task> <machine> <duration>");
    const int task = parseInt(tokens[1], line);
    DSCT_ENSURE(task >= 0 && task < inst.numTasks(),
                "line " << line << ": task index out of range");
    int& firstLine = assignedAt[static_cast<std::size_t>(task)];
    DSCT_ENSURE(firstLine == 0, "line " << line << ": task " << task
                                        << " already assigned at line "
                                        << firstLine);
    firstLine = line;
    const int machine = parseInt(tokens[2], line);
    DSCT_ENSURE(machine >= -1 && machine < inst.numMachines(),
                "line " << line << ": machine index out of range");
    const double seconds = parseDouble(tokens[3], line);
    DSCT_ENSURE(machine < 0 || seconds >= -IntegralSchedule::kDurationSlack,
                "line " << line << ": negative duration");
    machineOf[static_cast<std::size_t>(task)] = machine;
    duration[static_cast<std::size_t>(task)] = seconds;
  }
  return IntegralSchedule::build(inst, std::move(machineOf),
                                 std::move(duration));
}

IntegralSchedule readScheduleFile(const std::string& path,
                                  const Instance& inst) {
  std::ifstream in(path);
  DSCT_ENSURE(in, path << ": cannot open for reading");
  try {
    return readSchedule(in, inst);
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

}  // namespace dsct::io
