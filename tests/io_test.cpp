#include "io/instance_io.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "sched/approx.h"
#include "sched/validator.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

void expectSameInstance(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.numTasks(), b.numTasks());
  ASSERT_EQ(a.numMachines(), b.numMachines());
  EXPECT_DOUBLE_EQ(a.energyBudget(), b.energyBudget());
  for (int r = 0; r < a.numMachines(); ++r) {
    EXPECT_DOUBLE_EQ(a.machine(r).speed, b.machine(r).speed);
    EXPECT_DOUBLE_EQ(a.machine(r).efficiency, b.machine(r).efficiency);
    EXPECT_EQ(a.machine(r).name, b.machine(r).name);
  }
  for (int j = 0; j < a.numTasks(); ++j) {
    EXPECT_DOUBLE_EQ(a.task(j).deadline, b.task(j).deadline);
    EXPECT_EQ(a.task(j).name, b.task(j).name);
    EXPECT_TRUE(a.task(j).accuracy == b.task(j).accuracy);
  }
}

TEST(InstanceIo, RoundTripTiny) {
  const Instance inst = tinyInstance(37.5);
  std::stringstream buffer;
  io::writeInstance(buffer, inst);
  const Instance back = io::readInstance(buffer);
  expectSameInstance(inst, back);
}

TEST(InstanceIo, RoundTripRandomGenerated) {
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = randomInstance(deriveSeed(900, trial), 12, 4);
    std::stringstream buffer;
    io::writeInstance(buffer, inst);
    const Instance back = io::readInstance(buffer);
    expectSameInstance(inst, back);
  }
}

TEST(InstanceIo, RoundTripFiles) {
  const std::string path = ::testing::TempDir() + "/dsct_inst.txt";
  const Instance inst = randomInstance(3, 6, 2);
  io::writeInstanceFile(path, inst);
  expectSameInstance(inst, io::readInstanceFile(path));
}

TEST(InstanceIo, NamesWithSpacesSurvive) {
  std::vector<Task> tasks{
      Task{1.0, testing::twoSegment(), "my little task"}};
  std::vector<Machine> machines{Machine{1.0, 0.01, "RTX A2000 12GB"}};
  const Instance inst(std::move(tasks), std::move(machines), 5.0);
  std::stringstream buffer;
  io::writeInstance(buffer, inst);
  const Instance back = io::readInstance(buffer);
  EXPECT_EQ(back.task(0).name, "my little task");
  EXPECT_EQ(back.machine(0).name, "RTX A2000 12GB");
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "dsct-instance v1\n"
      "# a comment\n"
      "\n"
      "budget 10.0   # trailing comment\n"
      "machine m0 2.0 0.05\n"
      "task t0 1.5 2 0 0.1 3 0.9\n"
      "end\n");
  const Instance inst = io::readInstance(in);
  EXPECT_EQ(inst.numTasks(), 1);
  EXPECT_DOUBLE_EQ(inst.energyBudget(), 10.0);
  EXPECT_DOUBLE_EQ(inst.task(0).fmax(), 3.0);
}

TEST(InstanceIo, RejectsMalformedInput) {
  // Each input is rejected with a CheckError whose message contains
  // `names` (the offending line, where there is one).
  const auto expectReject = [](const std::string& text,
                               const std::string& names = "") {
    std::stringstream in(text);
    try {
      io::readInstance(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << e.what();
    }
  };
  expectReject("not-a-header\nbudget 1\nend\n");
  expectReject("dsct-instance v2\nbudget 1\nend\n");
  expectReject("dsct-instance v1\nmachine m0 1.0 0.01\nend\n");  // no budget
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0\nend\n");
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 2 0 0.1\nend\n");  // too few coordinates
  expectReject("dsct-instance v1\nbudget abc\nmachine m0 1.0 0.01\nend\n");
  expectReject("dsct-instance v1\nbudget 1\nfrobnicate x\nend\n");
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 2 0 0.9 3 0.1\nend\n");  // decreasing accuracy
  // Truncated: cut off before the closing `end`, even mid-file.
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n",
               "line 3: file ends without an 'end' line");
  expectReject("dsct-instance v1\nbudget 1\n", "line 2: file ends");
  // Nothing may follow `end`.
  expectReject("dsct-instance v1\nbudget 1\nend\nmachine m0 1.0 0.01\n",
               "line 4: 'machine' after 'end' (line 3)");
  expectReject("dsct-instance v1\nbudget 1\nend now\n",
               "line 3: 'end' takes no arguments");
  // Non-finite numbers are rejected where they are read.
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 nan 0.01\nend\n",
               "line 3: non-finite number 'nan'");
  expectReject("dsct-instance v1\nbudget inf\nend\n",
               "line 2: non-finite number 'inf'");
  // Integer fields are range-checked before conversion.
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 1e10 0 0.1 3 0.9\nend\n",
               "line 4: expected integer, got '1e10'");
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 2.5 0 0.1 3 0.9\nend\n",
               "line 4: expected integer, got '2.5'");
}

TEST(InstanceIo, StreamErrorsCarryNoCheckInternals) {
  // The reader's own format errors read `line N: …`, without the check
  // macro's expression text and source location.
  const auto expectClean = [](const std::string& text,
                              const std::string& prefix) {
    std::stringstream in(text);
    try {
      io::readInstance(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  };
  expectClean("dsct-instance v1\nbudget abc\nend\n", "line 2: ");
  expectClean("dsct-instance v1\nbudget 1\nfrobnicate x\nend\n", "line 3: ");
  expectClean("dsct-instance v1\nbudget 1\nmachine m0 1.0\nend\n",
              "line 3: ");
  expectClean("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n",
              "line 3: ");
  const Instance inst = tinyInstance();
  std::stringstream sched("dsct-schedule v1\nassign 0 0 abc\nend\n");
  try {
    io::readSchedule(sched, inst);
    ADD_FAILURE() << "accepted a non-numeric assignment";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("line 2: ", 0), 0u) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

TEST(InstanceIo, RecordContractErrorsNameTheirLine) {
  // A record that parses but breaks a Task/Instance contract is reported at
  // its own line, in the contract's words, without check internals.
  const auto expectContract = [](const std::string& text,
                                 const std::string& prefix) {
    std::stringstream in(text);
    try {
      io::readInstance(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  };
  expectContract("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
                 "task t0 1.0 2 0 0.9 3 0.1\nend\n",
                 "line 4: accuracy must be non-decreasing");
  expectContract("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
                 "task t0 1.0 2 1 0.1 3 0.9\nend\n",
                 "line 4: first breakpoint must be 0");
  expectContract("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
                 "task t0 -1.0 2 0 0.1 3 0.9\nend\n",
                 "line 4: deadline must be >= 0");
  expectContract("dsct-instance v1\nbudget 1\nmachine m0 0 0.01\nend\n",
                 "line 3: machine speed and efficiency must be > 0");
  expectContract("dsct-instance v1\nbudget -1\nmachine m0 1.0 0.01\nend\n",
                 "line 2: budget must be >= 0");
  expectContract("dsct-instance v1\nbudget 1\nend\n",
                 "missing 'machine' line");
}

TEST(InstanceIo, GarbageInputsThrowCleanly) {
  // Deterministic pseudo-random byte soup: the reader must throw CheckError
  // (never crash or accept) on every sample.
  Rng rng(20202);
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup = "dsct-instance v1\n";
    const int lines = rng.uniformInt(1, 6);
    for (int l = 0; l < lines; ++l) {
      const int len = rng.uniformInt(1, 40);
      for (int i = 0; i < len; ++i) {
        soup += static_cast<char>(rng.uniformInt(32, 126));
      }
      soup += '\n';
    }
    std::stringstream in(soup);
    try {
      const Instance inst = io::readInstance(in);
      // Accepting is fine only if the soup happened to be vacuous (no
      // budget line would already throw, so this is unreachable unless a
      // line formed a valid directive set — astronomically unlikely but
      // not an error per se).
      SUCCEED();
    } catch (const CheckError&) {
      SUCCEED();
    } catch (...) {
      FAIL() << "non-CheckError escape on trial " << trial << ": " << soup;
    }
  }
}

TEST(ScheduleIo, RoundTrip) {
  const Instance inst = randomInstance(5, 8, 3);
  const IntegralSchedule schedule = solveApprox(inst).schedule;
  std::stringstream buffer;
  io::writeSchedule(buffer, schedule);
  const IntegralSchedule back = io::readSchedule(buffer, inst);
  ASSERT_EQ(back.numTasks(), schedule.numTasks());
  for (int j = 0; j < schedule.numTasks(); ++j) {
    EXPECT_EQ(back.machineOf(j), schedule.machineOf(j));
    EXPECT_DOUBLE_EQ(back.duration(j), schedule.duration(j));
    EXPECT_DOUBLE_EQ(back.start(j), schedule.start(j));
  }
  EXPECT_DOUBLE_EQ(back.totalAccuracy(inst), schedule.totalAccuracy(inst));
}

TEST(ScheduleIo, RejectsBadIndices) {
  const Instance inst = tinyInstance();
  const auto expectReject = [&inst](const std::string& text,
                                    const std::string& names = "") {
    std::stringstream in(text);
    try {
      io::readSchedule(in, inst);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << e.what();
    }
  };
  expectReject("dsct-schedule v1\nassign 7 0 1.0\nend\n");
  expectReject("dsct-schedule v1\nassign 0 9 1.0\nend\n");
  expectReject("dsct-schedule v1\nassign 0 0\nend\n");
  // Out-of-int-range and NaN indices are rejected before any conversion.
  expectReject("dsct-schedule v1\nassign 0 1e10 0.1\nend\n",
               "line 2: expected integer, got '1e10'");
  expectReject("dsct-schedule v1\nassign nan 0 0.1\nend\n",
               "line 2: non-finite number 'nan'");
  // A second assign for one task names both lines.
  expectReject("dsct-schedule v1\nassign 0 0 0.1\nassign 0 1 0.1\nend\n",
               "line 3: task 0 already assigned at line 2");
  // Truncated before `end`, and records after it.
  expectReject("dsct-schedule v1\nassign 0 0 0.1\n",
               "line 2: file ends without an 'end' line");
  expectReject("dsct-schedule v1\nend\nassign 0 0 0.1\n",
               "line 3: 'assign' after 'end' (line 2)");
}

TEST(ScheduleIo, NegativeDurationNamesItsLine) {
  // A negative duration on an assigned task is rejected at its `assign`
  // line without check-macro text, through a stream and through a file.
  // Rounding noise within the schedule's slack and any duration of an
  // unassigned task (machine -1) are accepted as before.
  const Instance inst = tinyInstance();
  std::stringstream in(
      "dsct-schedule v1\nassign 1 0 0.5\nassign 0 0 -1\nend\n");
  try {
    io::readSchedule(in, inst);
    ADD_FAILURE() << "accepted a negative duration";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), "line 3: negative duration");
  }
  const std::string path = ::testing::TempDir() + "/io_negative_sched.txt";
  {
    std::ofstream out(path);
    out << "dsct-schedule v1\nassign 0 1 -0.25\nend\n";
  }
  try {
    io::readScheduleFile(path, inst);
    ADD_FAILURE() << "accepted " << path;
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), path + ": line 2: negative duration");
  }
  std::stringstream noise(
      "dsct-schedule v1\nassign 0 0 -1e-12\nassign 1 -1 -3\nend\n");
  const IntegralSchedule accepted = io::readSchedule(noise, inst);
  EXPECT_EQ(accepted.machineOf(0), 0);
  EXPECT_EQ(accepted.machineOf(1), -1);
}

TEST(ScheduleIo, FullPipelineThroughFiles) {
  // Solve, persist, reload, validate: the tool workflow.
  const std::string dir = ::testing::TempDir();
  const Instance inst = randomInstance(11, 10, 3);
  io::writeInstanceFile(dir + "/pipeline_inst.txt", inst);
  const Instance loaded = io::readInstanceFile(dir + "/pipeline_inst.txt");
  const ApproxResult res = solveApprox(loaded);
  io::writeScheduleFile(dir + "/pipeline_sched.txt", res.schedule);
  const IntegralSchedule back =
      io::readScheduleFile(dir + "/pipeline_sched.txt", loaded);
  EXPECT_TRUE(validate(loaded, back).feasible);
  EXPECT_NEAR(back.totalAccuracy(loaded), res.totalAccuracy, 1e-12);
}

TEST(InstanceIo, FileErrorsNameThePathNotTheCheck) {
  // File readers report `PATH: line N: …` and a missing file by its path,
  // without the check macro's expression text and source location.
  const std::string dir = ::testing::TempDir();
  const auto expectFileError = [](const auto& read, const std::string& path,
                                  const std::string& names) {
    try {
      read();
      ADD_FAILURE() << "accepted " << path;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << what;
      EXPECT_NE(what.find(names), std::string::npos) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    }
  };
  const std::string truncated = dir + "/io_truncated_inst.txt";
  {
    std::ofstream out(truncated);
    out << "dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n";
  }
  expectFileError([&] { io::readInstanceFile(truncated); }, truncated,
                  "line 3: file ends without an 'end' line");
  const std::string missing = dir + "/io_no_such_file.txt";
  expectFileError([&] { io::readInstanceFile(missing); }, missing,
                  "cannot open");
  const Instance inst = tinyInstance();
  const std::string badSchedule = dir + "/io_bad_sched.txt";
  {
    std::ofstream out(badSchedule);
    out << "dsct-schedule v1\nassign 0 0 abc\nend\n";
  }
  expectFileError([&] { io::readScheduleFile(badSchedule, inst); },
                  badSchedule, "line 2: expected number");
}

TEST(InstanceIo, ContractErrorInFileNamesPathAndLine) {
  // A contract error read from a file carries the path and the record's
  // line, as the reader's own format errors do.
  const std::string path = ::testing::TempDir() + "/io_decreasing_inst.txt";
  {
    std::ofstream out(path);
    out << "dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
           "task t0 1.0 2 0 0.9 3 0.1\nend\n";
  }
  try {
    io::readInstanceFile(path);
    ADD_FAILURE() << "accepted " << path;
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(path + ": line 4: accuracy must be non-decreasing",
                         0),
              0u)
        << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dsct
