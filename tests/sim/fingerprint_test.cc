// Pinned reference-stream fingerprints: the oracle for the interleaver.
//
// Every statistic the simulator reports follows from the reference
// stream the interleaver delivers for one (app, P, problem, quantum).
// This test pins that stream, not a second copy of the mechanism that
// produces it: a StreamDigest (sim/streamdigest.h) folds every
// delivered access, sync edge, placement change and measurement reset
// into one FNV-1a-64 value per program, and the table below holds the
// value for each of the 12 programs at P=8, scale 0.25, quantum 250
// (the configuration of the CI race gate).
//
// The digests must not depend on the host: the same values come out
// serially and with the programs spread over 4 runner workers.  A
// change to scheduling, delivery order, instrumentation or placement
// changes a digest and fails here with the program, expected and
// actual value.  When a change to the stream is intended, re-pin the
// table from the "actual" values printed on failure, and say in the
// change description why the stream moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "base/hash.h"
#include "harness/app.h"
#include "harness/runner.h"
#include "rt/env.h"
#include "rt/scheduler.h"
#include "sim/streamdigest.h"

using namespace splash;
using namespace splash::harness;

namespace {

constexpr int kProcs = 8;
constexpr double kScale = 0.25;
constexpr std::uint64_t kQuantum = 250;

struct Pin
{
    const char* app;
    std::uint64_t digest;
};

/** One digest per program, in suite() order (TableCoversTheSuite). */
const Pin kPins[] = {
    {"Barnes", 0x7857b8fce6709c0bull},
    {"Cholesky", 0x2eee69e519acd5eeull},
    {"FFT", 0x07d6f1c7cae5e087ull},
    {"FMM", 0xc65b445242c69dd7ull},
    {"LU", 0x8b3d00bd4df95f25ull},
    {"Ocean", 0x861d88df97a307a7ull},
    {"Radiosity", 0x176c71b572808c9cull},
    {"Radix", 0x7ae95854332a6ad8ull},
    {"Raytrace", 0xe8ec5de9e980a872ull},
    {"Volrend", 0x1f037a44e1e967a4ull},
    {"Water-Nsq", 0xc9b0260aedda8665ull},
    {"Water-Sp", 0x9c94eb5c1dacc71cull},
};
constexpr std::size_t kNumPins = sizeof(kPins) / sizeof(kPins[0]);

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

/** Execute @p app at the pinned configuration with only a digest
 *  attached and return the digest of its whole delivered stream. */
std::uint64_t
streamDigest(App& app, std::uint64_t quantum = kQuantum)
{
    AppConfig cfg;
    cfg.scale = kScale;
    rt::Env env({rt::Mode::Sim, kProcs, quantum});
    sim::StreamDigest digest;
    env.attachSink(&digest);
    EXPECT_TRUE(app.run(env, cfg).valid) << app.name();
    EXPECT_GT(digest.accesses(), 0u) << app.name();
    return digest.value();
}

/** Compare @p got (one digest per kPins entry) against the table,
 *  reporting every mismatch with app, expected and actual. */
void
expectPinned(const std::vector<std::uint64_t>& got, const char* how)
{
    ASSERT_EQ(got.size(), kNumPins);
    for (std::size_t i = 0; i < kNumPins; ++i)
        EXPECT_EQ(got[i], kPins[i].digest)
            << how << ": stream fingerprint of " << kPins[i].app
            << " changed: expected " << hex(kPins[i].digest)
            << ", actual " << hex(got[i]);
}

} // namespace

TEST(StreamFingerprint, TableCoversTheSuite)
{
    ASSERT_EQ(suite().size(), kNumPins);
    for (std::size_t i = 0; i < kNumPins; ++i)
        EXPECT_EQ(suite()[i]->name(), kPins[i].app);
}

TEST(StreamFingerprint, SerialRunsMatchPins)
{
    std::vector<std::uint64_t> got;
    for (App* app : suite())
        got.push_back(streamDigest(*app));
    expectPinned(got, "serial");
}

TEST(StreamFingerprint, RunnerWorkersMatchPins)
{
    // Four workers run the programs side by side on separate host
    // threads; each job's Env is private, so the streams (and the
    // digests) must be exactly the serial ones.
    const std::vector<App*>& apps = suite();
    std::vector<std::uint64_t> got(apps.size(), 0);
    Runner runner(4);
    for (std::size_t i = 0; i < apps.size(); ++i)
        runner.add(apps[i]->name(), 1.0,
                   [&, i] { got[i] = streamDigest(*apps[i]); });
    runner.run();
    expectPinned(got, "runner --jobs 4");
}

TEST(StreamFingerprint, QuantumIsPartOfTheStream)
{
    // The quantum sets where the interleaver switches processors, so
    // it is part of the pinned identity: another quantum must give
    // another digest (the table would catch a quantum change).
    App* fft = findApp("fft");
    ASSERT_NE(fft, nullptr);
    EXPECT_NE(streamDigest(*fft, 7), kPins[2].digest);
    EXPECT_EQ(streamDigest(*fft, kQuantum), kPins[2].digest);
}

namespace {

/** Scheduler-level trace: the exact sequence of (proc, clock) control
 *  points under a mix of yields, blocks and unblocks. */
std::vector<std::uint64_t>
schedulerTrace()
{
    rt::Scheduler s(6, /*quantum=*/5);
    std::vector<std::uint64_t> trace;
    s.run([&](ProcId p) {
        for (int i = 0; i < 100; ++i) {
            trace.push_back(std::uint64_t(p) << 32 |
                            (s.time(p) & 0xFFFFFFFF));
            s.advance(p, 1 + (p % 3));
            if (i % 17 == p) {
                s.unblock((p + 1) % 6);
                s.yield(p);
            } else if (i % 23 == p && p > 0) {
                s.unblock(p - 1);
                s.advance(p, 7);
            }
            s.event(p);
        }
    });
    return trace;
}

} // namespace

TEST(StreamFingerprint, SchedulerTracePinned)
{
    const std::vector<std::uint64_t> trace = schedulerTrace();
    ASSERT_EQ(trace.size(), 600u);
    const std::uint64_t got = fnv1a64(
        trace.data(), trace.size() * sizeof(std::uint64_t));
    EXPECT_EQ(got, 0xd9a337f285fe4e45ull)
        << "scheduler trace changed: actual " << hex(got);
}

TEST(StreamDigest, EveryFieldAndRecordKindCounts)
{
    sim::AccessRec a;
    a.addr = 0x1040;
    a.ltime = 17;
    a.size = 8;
    a.proc = 3;
    auto digestOf = [](auto&& feed) {
        sim::StreamDigest d;
        feed(d);
        return d.value();
    };
    const std::uint64_t base =
        digestOf([&](sim::StreamDigest& d) { d.access(a); });
    EXPECT_NE(base, sim::StreamDigest().value());

    // Each AccessRec field is part of the value.
    std::vector<sim::AccessRec> variants(6, a);
    variants[0].addr += 64;
    variants[1].ltime += 1;
    variants[2].size = 4;
    variants[3].proc = 2;
    variants[4].type = AccessType::Write;
    variants[5].flags = sim::AccessRec::kAtomic;
    for (const sim::AccessRec& v : variants)
        EXPECT_NE(digestOf([&](sim::StreamDigest& d) { d.access(v); }),
                  base);

    // Order, sync edges, placement and resets are all positions.
    sim::AccessRec b = a;
    b.addr = 0x2000;
    EXPECT_NE(digestOf([&](sim::StreamDigest& d) {
                  d.access(a);
                  d.access(b);
              }),
              digestOf([&](sim::StreamDigest& d) {
                  d.access(b);
                  d.access(a);
              }));
    sim::SyncRec s;
    s.obj = 1;
    EXPECT_NE(digestOf([&](sim::StreamDigest& d) {
                  d.access(a);
                  d.sync(s);
              }),
              digestOf([&](sim::StreamDigest& d) {
                  d.sync(s);
                  d.access(a);
              }));
    EXPECT_NE(digestOf([&](sim::StreamDigest& d) {
                  d.access(a);
                  d.place({0x1000, 4096, 1});
              }),
              base);
    EXPECT_NE(digestOf([&](sim::StreamDigest& d) {
                  d.access(a);
                  d.resetStats();
              }),
              base);
}
