// Tests for the reference-delivery path.
//
// Instrumented references append to a ring drained into the sinks at
// every control transfer (quantum expiry, block, exit), at sync edges
// and at measurement boundaries.  Because exactly one simulated
// processor runs at a time and the ring is drained before every
// switch, the delivered order must equal the execution order.  These
// tests check that order against what the bodies themselves logged,
// across ring wrap-arounds, quantum-1 slicing and blocking sync, and
// check the multi-threaded sweep replay that rides on the ring against
// the serial online sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/app.h"
#include "harness/experiment.h"
#include "rt/sync.h"
#include "sim/trace.h"

using namespace splash;
using namespace splash::harness;

namespace {

/** Every delivered event, in delivered order: an access as its
 *  (proc, addr) pair, a sync edge as proc -1 and the object id. */
struct Event
{
    int proc;
    Addr addr;
    bool operator==(const Event&) const = default;
};

class Capture final : public sim::RefSink
{
  public:
    void
    access(const sim::AccessRec& r) override
    {
        events.push_back({r.proc, r.addr});
    }
    void
    sync(const sim::SyncRec& r) override
    {
        events.push_back({-1, r.obj});
    }
    std::vector<Event> events;
};

/** Run a program in which every processor logs each reference as it
 *  issues it into one shared log -- only one processor runs at a
 *  time, so the log is the execution order -- and require the sink to
 *  see exactly that sequence.  With @p withBarrier every processor
 *  also blocks in a barrier halfway, and the sink must see each
 *  processor's arrival edge after the references it issued first. */
void
expectDeliveredInIssueOrder(int procs, std::uint64_t quantum,
                            int refsPerProc, bool withBarrier)
{
    rt::Env env({rt::Mode::Sim, procs, quantum});
    Capture cap;
    env.attachSink(&cap);
    std::vector<Event> issued;
    rt::Barrier bar(env, procs);
    env.run([&](rt::ProcCtx& ctx) {
        for (int i = 0; i < refsPerProc; ++i) {
            const Addr a = 0x400000 + Addr(ctx.id()) * 0x100000 +
                           Addr(i % 1000) * 8;
            issued.push_back({ctx.id(), env.heap().toSim(a)});
            ctx.read(reinterpret_cast<const void*>(a), 8);
            if (withBarrier && i == refsPerProc / 2) {
                issued.push_back({-1, bar.id()});
                bar.arrive(ctx);
            }
        }
    });
    // The barrier also emits one departure edge per processor; those
    // land after the last arrival, which the log cannot see.  Keep
    // only the first sync edge each processor produces (its arrival).
    std::vector<Event> delivered;
    int arrivals = 0;
    for (const Event& e : cap.events) {
        if (e.proc >= 0)
            delivered.push_back(e);
        else if (arrivals < procs) {
            ++arrivals;
            delivered.push_back(e);
        }
    }
    ASSERT_EQ(delivered.size(), issued.size());
    for (std::size_t i = 0; i < issued.size(); ++i)
        ASSERT_TRUE(delivered[i] == issued[i])
            << "delivered event " << i << " is (" << delivered[i].proc
            << ", " << std::hex << delivered[i].addr << "), issued ("
            << std::dec << issued[i].proc << ", " << std::hex
            << issued[i].addr << ")";
}

} // namespace

TEST(BatchedDelivery, OrderEqualsIssueOrderAtDefaultQuantum)
{
    expectDeliveredInIssueOrder(4, 250, 3000, /*withBarrier=*/false);
}

TEST(BatchedDelivery, OrderSurvivesRingWrapAround)
{
    // A quantum far above the ring capacity: each slice fills and
    // drains the ring several times before the switch drain.
    expectDeliveredInIssueOrder(3, 20000, 15000, /*withBarrier=*/false);
}

TEST(BatchedDelivery, OrderSurvivesQuantumOne)
{
    // Quantum 1 drains after every instrumentation event -- the ring
    // never holds more than one record.
    expectDeliveredInIssueOrder(5, 1, 400, /*withBarrier=*/false);
}

TEST(BatchedDelivery, SyncEdgesLandAtTheirStreamPosition)
{
    expectDeliveredInIssueOrder(4, 97, 2000, /*withBarrier=*/true);
}

namespace {

/** Run the working-set sweep for @p app at 8 processors with the
 *  given sweep worker count. */
sim::CacheSweep
sweepRun(const std::string& name, long n, int sweepThreads)
{
    App* app = findApp(name);
    EXPECT_NE(app, nullptr) << name;
    AppConfig cfg;
    cfg.n = n;
    sim::SweepConfig sc;
    sc.nprocs = 8;
    sim::CacheSweep sweep(sc);
    SimOpts simOpts;
    simOpts.sweepThreads = sweepThreads;
    runWithSweep(*app, 8, sweep, cfg, simOpts);
    return sweep;
}

void
expectSameSweep(const sim::CacheSweep& a, const sim::CacheSweep& b)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    const sim::SweepConfig& sc = a.config();
    for (std::uint64_t size : sc.sizes) {
        for (int assoc : {1, 2, 4, 0}) {
            EXPECT_EQ(a.misses(size, assoc), b.misses(size, assoc))
                << size << "B " << assoc << "-way";
            EXPECT_EQ(a.missRate(size, assoc), b.missRate(size, assoc))
                << size << "B " << assoc << "-way";
        }
    }
}

} // namespace

TEST(SweepDifferential, ParallelReplayIdenticalToSerialOnline)
{
    // Serial online sweep versus the multi-threaded capture/replay
    // pipeline.
    auto serial = sweepRun("fft", 12, 1);
    auto parallel = sweepRun("fft", 12, 3);
    expectSameSweep(serial, parallel);
}

TEST(SweepDifferential, WorkerCountInvariant)
{
    auto one = sweepRun("lu", 64, 1);
    for (int threads : {2, 5}) {
        auto many = sweepRun("lu", 64, threads);
        expectSameSweep(one, many);
    }
}
