// Tests for the deterministic cooperative scheduler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rt/scheduler.h"

using namespace splash;
using namespace splash::rt;

TEST(Scheduler, RunsEveryProcessorToCompletion)
{
    Scheduler s(8);
    std::vector<int> ran(8, 0);
    s.run([&](ProcId p) { ran[p] = 1; });
    for (int p = 0; p < 8; ++p)
        EXPECT_EQ(ran[p], 1);
}

TEST(Scheduler, OnlyOneProcessorRunsAtATime)
{
    Scheduler s(4, /*quantum=*/10);
    int inside = 0;
    bool overlap = false;
    s.run([&](ProcId p) {
        for (int i = 0; i < 1000; ++i) {
            ++inside;
            if (inside != 1)
                overlap = true;
            --inside;
            s.advance(p, 1);
            s.event(p);
        }
    });
    EXPECT_FALSE(overlap);
}

TEST(Scheduler, SchedulesSmallestLogicalTimeFirst)
{
    // P1 accrues time 10x faster; the interleaving must keep clocks
    // within ~quantum * rate of each other, so P0 gets scheduled far
    // more often per unit of its own progress.
    // Both processors accrue 2000 total ticks so neither outlives the
    // other; P1 in coarse steps, P0 in fine steps.
    Scheduler s(2, 5);
    Tick max_skew = 0;
    s.run([&](ProcId p) {
        std::uint64_t step = p == 1 ? 10 : 1;
        int iters = p == 1 ? 200 : 2000;
        for (int i = 0; i < iters; ++i) {
            s.advance(p, step);
            Tick a = s.time(0), b = s.time(1);
            Tick skew = a > b ? a - b : b - a;
            max_skew = std::max(max_skew, skew);
            s.event(p);
        }
    });
    // Skew is bounded by one quantum of the fast processor.
    EXPECT_LE(max_skew, 5u * 10u + 10u);
}

TEST(Scheduler, DeterministicInterleaving)
{
    auto trace = [] {
        Scheduler s(4, 7);
        std::vector<int> order;
        s.run([&](ProcId p) {
            for (int i = 0; i < 200; ++i) {
                order.push_back(p);
                s.advance(p, 1 + p);  // heterogeneous rates
                s.event(p);
            }
        });
        return order;
    };
    EXPECT_EQ(trace(), trace());
}

TEST(Scheduler, BlockAndUnblock)
{
    Scheduler s(2);
    std::vector<int> order;
    s.run([&](ProcId p) {
        if (p == 0) {
            s.advance(p, 1);  // ensure P0 runs first (tie-break by id)
            order.push_back(0);
            s.block(0);       // wait for P1
            order.push_back(2);
        } else {
            s.advance(p, 10);
            order.push_back(1);
            s.unblock(0);
        }
    });
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

TEST(Scheduler, DeadlockIsDetected)
{
    EXPECT_DEATH(
        {
            Scheduler s(2);
            s.run([&](ProcId p) { s.block(p); });
        },
        "deadlock");
}

TEST(Scheduler, ClocksPersistAcrossRuns)
{
    Scheduler s(2);
    s.run([&](ProcId p) { s.advance(p, 100); });
    EXPECT_EQ(s.time(0), 100u);
    s.run([&](ProcId p) { s.advance(p, 50); });
    EXPECT_EQ(s.time(0), 150u);
    EXPECT_EQ(s.time(1), 150u);
}

TEST(Scheduler, InterleavingMatchesThePolicy)
{
    // An independent model of the policy: a slice runs the ready
    // processor with the smallest clock (ties to the lower id) for a
    // quantum of events.  The fiber interleaving must follow it slice
    // by slice.
    const int procs = 4;
    const int events = 200;
    const std::uint64_t quantum = 7;
    Scheduler s(procs, quantum);
    std::vector<int> order;
    s.run([&](ProcId p) {
        for (int i = 0; i < events; ++i) {
            order.push_back(p);
            s.advance(p, 1 + p);
            s.event(p);
        }
    });

    std::vector<int> model;
    std::vector<Tick> clock(procs, 0);
    std::vector<int> left(procs, events);
    for (;;) {
        int best = -1;
        for (int p = 0; p < procs; ++p)
            if (left[p] > 0 && (best < 0 || clock[p] < clock[best]))
                best = p;
        if (best < 0)
            break;
        for (std::uint64_t e = 0; e < quantum && left[best] > 0; ++e) {
            model.push_back(best);
            clock[best] += 1 + best;
            --left[best];
        }
    }
    EXPECT_EQ(order, model);
}

TEST(Scheduler, PingPongBlockUnblockCompletes)
{
    // The pattern the context-switch microbenchmark uses; assert its
    // correctness here so the bench can trust it.
    Scheduler s(2);
    const int rounds = 1000;
    int switches = 0;
    s.run([&](ProcId p) {
        ProcId other = 1 - p;
        for (int i = 0; i < rounds; ++i) {
            s.advance(p, 1);
            s.unblock(other);
            s.block(p, "ping-pong");
            ++switches;
        }
        s.unblock(other);
    });
    EXPECT_EQ(switches, 2 * rounds);
    EXPECT_EQ(s.time(0), Tick(rounds));
    EXPECT_EQ(s.time(1), Tick(rounds));
}

TEST(Scheduler, ManyProcessors)
{
    Scheduler s(64, 3);
    std::uint64_t total = 0;
    s.run([&](ProcId p) {
        for (int i = 0; i < 100; ++i) {
            ++total;  // safe: baton guarantees mutual exclusion
            s.advance(p, 1);
            s.event(p);
        }
    });
    EXPECT_EQ(total, 6400u);
}
