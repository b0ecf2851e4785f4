// Integration tests: the whole suite runs valid under the harness, at
// several processor counts, with and without the memory system.
#include <gtest/gtest.h>

#include "harness/workingset.h"
#include "harness/report.h"

using namespace splash;
using namespace splash::harness;

TEST(Harness, SuiteHasTwelveProgramsInPaperOrder)
{
    const auto& apps = suite();
    ASSERT_EQ(apps.size(), 12u);
    EXPECT_EQ(apps.front()->name(), "Barnes");
    EXPECT_EQ(apps.back()->name(), "Water-Sp");
    EXPECT_NE(findApp("fft"), nullptr);
    EXPECT_NE(findApp("WATER-NSQ"), nullptr);
    EXPECT_EQ(findApp("nosuch"), nullptr);
}

class SuiteRuns : public ::testing::TestWithParam<int>
{};

TEST_P(SuiteRuns, EveryProgramValidUnderPram)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    for (App* app : suite()) {
        RunStats r = runPram(*app, GetParam(), cfg);
        EXPECT_TRUE(r.valid) << app->name();
        EXPECT_GT(r.elapsed, 0u) << app->name();
        EXPECT_GT(r.exec.instructions(), 0u) << app->name();
        if (app->isFloatingPoint()) {
            EXPECT_GT(r.exec.flops, 0u) << app->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Procs, SuiteRuns, ::testing::Values(1, 4, 16));

TEST(Harness, EveryProgramValidUnderMemSystem)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    sim::CacheConfig cache;
    cache.size = 64 << 10;  // small cache: exercises replacements
    for (App* app : suite()) {
        RunStats r = runExperiment(*app, 4, {.cache = cache}, cfg);
        EXPECT_TRUE(r.valid) << app->name();
        EXPECT_GT(r.mem.accesses(), 0u) << app->name();
        // Traffic sanity: every component non-negative and total
        // consistent.
        EXPECT_EQ(r.mem.totalTraffic(),
                  r.mem.remoteData() + r.mem.remoteOverhead +
                      r.mem.localData)
            << app->name();
    }
}

TEST(Harness, SweepAndMemSystemSeeSameAccessCounts)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    App* fft = findApp("FFT");
    sim::CacheConfig cache;
    RunStats a = runExperiment(*fft, 4, {.cache = cache}, cfg);
    sim::SweepConfig sc;
    sc.nprocs = 4;
    RunStats b = runWorkingSets(*fft, 4, sc, cfg).stats;
    // Same deterministic program: identical shared-reference streams.
    EXPECT_EQ(a.exec.reads, b.exec.reads);
    EXPECT_EQ(a.exec.writes, b.exec.writes);
}

TEST(Harness, ScaleChangesProblemSize)
{
    App* lu = findApp("LU");
    AppConfig small;
    small.scale = 0.25;
    AppConfig big;
    big.scale = 1.0;
    RunStats a = runPram(*lu, 2, small);
    RunStats b = runPram(*lu, 2, big);
    EXPECT_GT(b.exec.flops, 2 * a.exec.flops);
}
