/**
 * @file
 * Unit tests for the support substrate: deterministic RNG, the
 * latency histogram, table rendering, the trace wall clock and the
 * thread CPU clock, and the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/args.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/trace.hh"

using namespace gpsched;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 24);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t x = rng.nextRange(-3, 3);
        EXPECT_GE(x, -3);
        EXPECT_LE(x, 3);
        saw_lo |= x == -3;
        saw_hi |= x == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextBoolExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, NextBoolApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.25, 0.03);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = values;
    rng.shuffle(shuffled);
    std::multiset<int> a(values.begin(), values.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, ForkIsIndependentOfParentUse)
{
    // Forking then drawing from the parent must not change the
    // child's stream: loop generators rely on this.
    Rng parent1(99);
    Rng child1 = parent1.fork();
    std::vector<std::uint64_t> draws1;
    for (int i = 0; i < 8; ++i)
        draws1.push_back(child1.next());

    Rng parent2(99);
    Rng child2 = parent2.fork();
    parent2.next(); // extra parent use after the fork
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(child2.next(), draws1[i]);
}

TEST(TextTable, RendersHeadersAndRows)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addSeparator();
    table.addRow({"beta", "22"});
    std::ostringstream oss;
    table.print(oss, "demo");
    std::string out = oss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.234567, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Clocks, SleepIsWallTimeNotCpuTime)
{
    // The distinguishing contract: a sleeping thread accrues wall
    // time but (almost) no CPU time. Queue-wait spans depend on it.
    std::uint64_t wall0 = traceNowNanos();
    std::uint64_t cpu0 = threadCpuNanos();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::uint64_t wall = traceNowNanos() - wall0;
    std::uint64_t cpu = threadCpuNanos() - cpu0;
    EXPECT_GE(wall, 25u * 1000 * 1000);
    EXPECT_LT(cpu, wall / 2);
}

TEST(TraceNowNanos, NeverGoesBackwards)
{
    std::uint64_t last = traceNowNanos();
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t now = traceNowNanos();
        EXPECT_GE(now, last);
        last = now;
    }
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.p50(), 0.0);
    EXPECT_EQ(h.p95(), 0.0);
}

TEST(Histogram, ExactMomentsApproximateQuantiles)
{
    Histogram h(1.0, 2.0, 16);
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    // Bucket bounds are powers of two: the true p50 (50) lands in
    // the (32, 64] bucket, so the estimate is its upper bound; p95
    // (95) lands in (64, 128] whose bound clamps to max = 100.
    EXPECT_DOUBLE_EQ(h.p50(), 64.0);
    EXPECT_DOUBLE_EQ(h.p95(), 100.0);
    // Generic contract, independent of bucket shape: within one
    // growth factor of the true quantile.
    EXPECT_GE(h.p50(), 50.0 / 2.0);
    EXPECT_LE(h.p50(), 50.0 * 2.0);
}

TEST(Histogram, SingleValueQuantilesCollapse)
{
    Histogram h(1.0, 2.0, 8);
    h.add(7.0);
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p95(), 7.0);
}

TEST(Histogram, OverflowBucketClampsToMax)
{
    Histogram h(1.0, 2.0, 2); // bounded buckets: (..1], (1..2]
    h.add(1000.0);
    h.add(2000.0);
    // Quantiles landing in the unbounded bucket report the observed
    // max — the only finite bound available.
    EXPECT_DOUBLE_EQ(h.p50(), 2000.0);
    EXPECT_DOUBLE_EQ(h.p95(), 2000.0);
    std::vector<Histogram::Bucket> buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_TRUE(std::isinf(buckets.back().upperBound));
    EXPECT_EQ(buckets.back().count, 2u);
}

TEST(Histogram, NegativeSamplesClampIntoFirstBucket)
{
    Histogram h(1.0, 2.0, 4);
    h.add(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    EXPECT_EQ(h.buckets().front().count, 1u);
}

TEST(Histogram, ConcurrentAddsLoseNothing)
{
    // Exercised under TSan in CI: concurrent add() on a shared
    // histogram must be race-free and lose no samples.
    Histogram h(1.0, 2.0, 16);
    constexpr int threads = 8;
    constexpr int perThread = 5000;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&h, t] {
            for (int i = 0; i < perThread; ++i)
                h.add(static_cast<double>(t + 1));
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_EQ(h.count(),
              static_cast<std::size_t>(threads) * perThread);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(threads));
}

TEST(ArgParser, IntegersParseInBaseZero)
{
    ArgParser parser("toy");
    EXPECT_EQ(parser.integer("--n", "42", 0, 100), 42u);
    EXPECT_EQ(parser.integer("--n", "0x10", 0, 100), 16u);
    EXPECT_EQ(parser.integer("--n", "3", 1, 3), 3u);
    EXPECT_EQ(parser.integer("--n", "18446744073709551615", 0,
                             18446744073709551615ULL),
              18446744073709551615ULL);
}

TEST(ArgParserDeathTest, IntegersRejectAnythingElse)
{
    ArgParser parser("toy");
    for (const char *bad : {"", " 1", "+1", "-1", "1x", "0x", "09", "0",
                            "4", "18446744073709551616"})
        EXPECT_EXIT(parser.integer("--n", bad, 1, 3),
                    ::testing::ExitedWithCode(2),
                    "toy: --n needs an integer in \\[1, 3\\]")
            << bad;
}

namespace
{

/** A small declared flag set, as a subcommand would build it. */
struct ToyFlags
{
    bool verbose = false;
    int jobs = 1;
    std::uint64_t seed = 0;
    std::string out = "-";
    int mode = 0;
    std::vector<std::string> operands;
};

ToyFlags
parseToy(const std::vector<std::string> &args)
{
    ToyFlags flags;
    ArgParser parser("toy run", "<file>...");
    parser.flag("--verbose", "talk more", flags.verbose)
        .option("--jobs", "N", "workers", flags.jobs, 1, 8)
        .option("--seed", "S", "corpus seed", flags.seed)
        .option("--out", "PATH", "output path", flags.out)
        .choice("--mode", "how to run", flags.mode,
                std::vector<std::pair<std::string, int>>{{"fast", 1},
                                                         {"slow", 2}});
    flags.operands = parser.parse(args);
    return flags;
}

} // namespace

TEST(ArgParser, AppliesDeclaredFlagsAndOperands)
{
    ToyFlags flags =
        parseToy({"a.ddg", "--verbose", "--jobs", "3", "--seed",
                  "0xf022c0de5eed", "--out", "-", "--mode", "slow",
                  "-", "--jobs", "4"});
    EXPECT_TRUE(flags.verbose);
    EXPECT_EQ(flags.jobs, 4); // the later occurrence wins
    EXPECT_EQ(flags.seed, 0xf022c0de5eedULL);
    EXPECT_EQ(flags.out, "-");
    EXPECT_EQ(flags.mode, 2);
    EXPECT_EQ(flags.operands,
              (std::vector<std::string>{"a.ddg", "-"}));
}

TEST(ArgParser, UsageNamesEveryDeclaredFlag)
{
    ToyFlags flags;
    ArgParser parser("toy run");
    parser.flag("--verbose", "talk more", flags.verbose)
        .option("--jobs", "N", "workers", flags.jobs, 1, 8)
        .option("--seed", "S", "corpus seed", flags.seed);
    std::ostringstream os;
    parser.printUsage(os);
    for (const char *name :
         {"usage: toy run", "--verbose", "--jobs N", "--seed S",
          "--help", "workers"})
        EXPECT_NE(os.str().find(name), std::string::npos) << name;
}

TEST(ArgParserDeathTest, HelpExitsZero)
{
    EXPECT_EXIT(parseToy({"--help"}), ::testing::ExitedWithCode(0),
                "");
    EXPECT_EXIT(parseToy({"a.ddg", "-h"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(ArgParserDeathTest, UsageErrorsExitTwo)
{
    EXPECT_EXIT(parseToy({"--bogus"}), ::testing::ExitedWithCode(2),
                "toy run: unknown option '--bogus'");
    EXPECT_EXIT(parseToy({"--out"}), ::testing::ExitedWithCode(2),
                "toy run: --out needs a value");
    EXPECT_EXIT(parseToy({"--jobs", "9"}), ::testing::ExitedWithCode(2),
                "--jobs needs an integer in \\[1, 8\\], got '9'");
    EXPECT_EXIT(parseToy({"--seed", "-1"}),
                ::testing::ExitedWithCode(2),
                "--seed needs an integer in \\[0, 18446744073709551615\\], "
                "got '-1'");
    EXPECT_EXIT(parseToy({"--mode", "medium"}),
                ::testing::ExitedWithCode(2),
                "--mode wants fast[|]slow, got 'medium'");
    // The usage rides along on stderr.
    EXPECT_EXIT(parseToy({"--bogus"}), ::testing::ExitedWithCode(2),
                "usage: toy run \\[options\\] <file>\\.\\.\\.");
}

TEST(ArgParserDeathTest, OperandsOnlyWhereDeclared)
{
    auto parse = [] {
        bool on = false;
        ArgParser parser("toy gen");
        parser.flag("--on", "switch", on);
        parser.parse({"stray"});
    };
    EXPECT_EXIT(parse(), ::testing::ExitedWithCode(2),
                "toy gen: unexpected argument 'stray'");
}
