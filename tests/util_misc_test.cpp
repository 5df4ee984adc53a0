#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dsct {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    DSCT_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, EnsureThrowsMessageAlone) {
  // DSCT_ENSURE reports bad user input: the streamed message is the whole
  // text, without the expression or the source location, and a passing
  // check never builds it.
  int built = 0;
  const auto note = [&built] { return ++built; };
  DSCT_ENSURE(2 > 1, "never shown " << note());
  EXPECT_EQ(built, 0);
  try {
    DSCT_ENSURE(1 == 2, "rate must be positive, got " << -3);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), "rate must be positive, got -3");
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniformInt(1, 3));
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3}));
}

TEST(Rng, ExponentialPositive) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 2000.0, 0.25, 0.03);  // mean 1/rate
}

TEST(Rng, InvalidArgsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), CheckError);
  EXPECT_THROW(rng.exponential(0.0), CheckError);
}

TEST(SplitMix, DerivedSeedsDiffer) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(deriveSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  ThreadPool pool(3);
  const auto out =
      pool.parallelMap(50, [](std::size_t i) { return 2 * static_cast<int>(i); });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 2 * static_cast<int>(i));
  }
}

TEST(ThreadPool, ParallelMapInsideWorkerRunsInline) {
  // A nested parallelMap from inside a worker must not block on the queue:
  // with every worker occupied by an outer task, inner tasks queued behind
  // the remaining outer ones could never start, deadlocking the pool. The
  // nested call runs inline on the worker instead.
  ThreadPool pool(2);
  EXPECT_FALSE(pool.insideWorker());
  const auto outer = pool.parallelMap(4, [&pool](std::size_t i) {
    EXPECT_TRUE(pool.insideWorker());
    const auto inner = pool.parallelMap(8, [i](std::size_t k) {
      return static_cast<int>(8 * i + k);
    });
    int sum = 0;
    for (int v : inner) sum += v;
    return sum;
  });
  ASSERT_EQ(outer.size(), 4u);
  for (std::size_t i = 0; i < outer.size(); ++i) {
    // Σ_{k<8} (8i + k) = 64i + 28.
    EXPECT_EQ(outer[i], static_cast<int>(64 * i + 28));
  }
}

TEST(ThreadPool, InsideWorkerDistinguishesPools) {
  ThreadPool a(1);
  ThreadPool b(1);
  const auto out = a.parallelMap(1, [&](std::size_t) {
    return a.insideWorker() && !b.insideWorker();
  });
  EXPECT_TRUE(out[0]);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.addRow(std::vector<std::string>{"alpha", "1"});
  t.addRow(std::vector<double>{2.5, 3.25}, 2);
  const std::string rendered = t.toString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("3.25"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), CheckError);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
  EXPECT_EQ(formatFixed(2.0, 0), "2");
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/dsct_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    ASSERT_TRUE(w.ok());
    w.addRow(std::vector<std::string>{"1", "a,b"});
    w.addRow(std::vector<double>{2.5, -1.0});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("x,y"), std::string::npos);
  EXPECT_NE(content.find("\"a,b\""), std::string::npos);
  EXPECT_NE(content.find("2.5"), std::string::npos);
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = ::testing::TempDir() + "/dsct_csv_arity.csv";
  CsvWriter w(path, {"a"});
  EXPECT_THROW(w.addRow(std::vector<std::string>{"1", "2"}), CheckError);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch watch;
  const double t0 = watch.elapsedSeconds();
  EXPECT_GE(t0, 0.0);
  watch.reset();
  EXPECT_LT(watch.elapsedSeconds(), 1.0);
}

TEST(TimeLimit, NonPositiveMeansUnlimited) {
  TimeLimit unlimited(-1.0);
  EXPECT_FALSE(unlimited.expired());
  EXPECT_FALSE(unlimited.hasLimit());
  // Unlimited reads as +infinity remaining, not a negative sentinel that
  // an expired limit could also produce.
  EXPECT_TRUE(std::isinf(unlimited.remaining()));
  EXPECT_GT(unlimited.remaining(), 0.0);
  TimeLimit instant(1e-9);
  EXPECT_TRUE(instant.hasLimit());
  // Spin briefly so the limit passes.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_TRUE(instant.expired());
  EXPECT_LE(instant.remaining(), 0.0);
}

}  // namespace
}  // namespace dsct
