// Tests for the reference-delivery path.
//
// Instrumented references append to a ring drained into the sinks at
// every control transfer (quantum expiry, block, exit), at sync edges
// and at measurement boundaries.  Because exactly one simulated
// processor runs at a time and the ring is drained before every
// switch, the delivered order must equal the execution order.  These
// tests check that order against what the bodies themselves logged,
// across ring wrap-arounds, quantum-1 slicing and blocking sync.
#include <gtest/gtest.h>

#include <vector>

#include "rt/env.h"
#include "rt/sync.h"
#include "sim/trace.h"

using namespace splash;

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
