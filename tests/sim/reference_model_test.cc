// Cross-validation of MemSystem against an independently written
// reference model of the same protocol (unbounded maps instead of tag
// arrays for the infinite-cache case; straightforward per-line state
// machine). Any divergence in hit/miss decisions, state transitions,
// or invalidation sets is a bug in one of the two implementations.
//
// The same seeded streams also run as scheduled team programs through
// the batched delivery ring (delivered order must equal issue order,
// and the result must equal the reference model's), and cross-validate
// the parallel sweep replay pipeline against the serial online sweep:
// all must be state- and statistics-exact.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "rt/env.h"
#include "sim/memsys.h"
#include "sim/sweep.h"

using namespace splash;
using namespace splash::sim;

namespace {

/** Reference MESI model with infinite caches. */
class RefModel
{
  public:
    explicit RefModel(int nprocs) : caches_(nprocs) {}

    enum class St { I, S, E, M };

    /** Returns true on a miss (line not valid in p's cache). */
    bool
    access(int p, Addr line, bool write)
    {
        St st = stateOf(p, line);
        if (!write) {
            if (st != St::I)
                return false;
            // Read miss: downgrade any M/E owner; join sharers.
            for (std::size_t q = 0; q < caches_.size(); ++q) {
                auto it = caches_[q].find(line);
                if (it != caches_[q].end() && it->second != St::I)
                    it->second = St::S;
            }
            bool others = anyValid(line);
            caches_[p][line] = others ? St::S : St::E;
            if (others)
                demoteAll(line);
            return true;
        }
        // Write.
        if (st == St::M)
            return false;
        if (st == St::E) {
            caches_[p][line] = St::M;
            return false;
        }
        // S upgrade or I miss: invalidate all others.
        bool miss = st == St::I;
        for (std::size_t q = 0; q < caches_.size(); ++q) {
            if (static_cast<int>(q) == p)
                continue;
            auto it = caches_[q].find(line);
            if (it != caches_[q].end())
                it->second = St::I;
        }
        caches_[p][line] = St::M;
        return miss;
    }

    St
    stateOf(int p, Addr line) const
    {
        auto it = caches_[p].find(line);
        return it == caches_[p].end() ? St::I : it->second;
    }

  private:
    bool
    anyValid(Addr line) const
    {
        for (const auto& c : caches_) {
            auto it = c.find(line);
            if (it != c.end() && it->second != St::I)
                return true;
        }
        return false;
    }

    void
    demoteAll(Addr line)
    {
        for (auto& c : caches_) {
            auto it = c.find(line);
            if (it != c.end() && it->second != St::I)
                it->second = St::S;
        }
    }

    std::vector<std::map<Addr, St>> caches_;
};

LineState
toLineState(RefModel::St s)
{
    switch (s) {
      case RefModel::St::I:
        return LineState::Invalid;
      case RefModel::St::S:
        return LineState::Shared;
      case RefModel::St::E:
        return LineState::Exclusive;
      default:
        return LineState::Modified;
    }
}

} // namespace

class ReferenceFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ReferenceFuzz, MemSystemMatchesReferenceModel)
{
    const int nprocs = 6;
    // Caches big enough that nothing is ever replaced: the reference
    // model has infinite caches.
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 1u << 22;
    mc.cache.assoc = 0;  // fully associative
    MemSystem mem(mc);
    RefModel ref(nprocs);

    std::uint64_t x = GetParam();
    std::uint64_t prev_misses = 0;
    for (int i = 0; i < 40000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        int p = static_cast<int>((x >> 60) % nprocs);
        Addr line = 0x400000 + ((x >> 33) % 700) * 64;
        bool write = ((x >> 10) & 3) == 0;
        bool ref_miss = ref.access(p, line, write);
        mem.access(p, line, 8,
                   write ? AccessType::Write : AccessType::Read);
        std::uint64_t misses = mem.total().totalMisses();
        ASSERT_EQ(misses - prev_misses, ref_miss ? 1u : 0u)
            << "access " << i << " p" << p << (write ? " W " : " R ")
            << std::hex << line;
        prev_misses = misses;
        // States agree for every processor on the touched line.
        for (int q = 0; q < nprocs; ++q) {
            ASSERT_EQ(mem.lineState(q, line),
                      toLineState(ref.stateOf(q, line)))
                << "access " << i << " state of p" << q;
        }
    }
    EXPECT_TRUE(mem.checkCoherenceInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceFuzz,
                         ::testing::Values(1ull, 42ull, 9999ull,
                                           123456789ull));

namespace {

/** One step of the per-processor fuzz stream: a synthetic address and
 *  read/write choice.  ProcCtx::read/write never dereference, so
 *  fabricated addresses give identical streams across Env instances. */
struct FuzzStep
{
    Addr addr;
    bool write;
};

FuzzStep
fuzzStep(std::uint64_t& x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    FuzzStep s;
    s.addr = 0x400000 + ((x >> 33) % 700) * 64 + ((x >> 21) % 7) * 8;
    s.write = ((x >> 10) & 3) == 0;
    return s;
}

/** One issued reference, as the issuing body logged it. */
struct Issued
{
    int proc;
    Addr addr;
    bool write;
};

/** Run the seeded fuzz stream as a real team program: each processor
 *  issues its own deterministic subsequence, interleaved by the
 *  scheduler, into @p mem and @p capture.  Each body appends every
 *  access to @p issued just before issuing it; only one processor
 *  runs at a time, so @p issued is the execution order. */
void
fuzzMemRun(std::uint64_t seed, MemSystem& mem, Trace& capture,
           std::vector<Issued>* issued)
{
    rt::Env env({rt::Mode::Sim, mem.config().nprocs, /*quantum=*/97});
    env.attachMemSystem(&mem);
    env.attachSink(&capture);
    env.run([&](rt::ProcCtx& ctx) {
        std::uint64_t x = seed * 1000003ull + std::uint64_t(ctx.id());
        for (int i = 0; i < 6000; ++i) {
            FuzzStep s = fuzzStep(x);
            // Sinks see simulated addresses; log what they should see.
            issued->push_back(
                {ctx.id(), env.heap().toSim(s.addr), s.write});
            const void* a = reinterpret_cast<const void*>(s.addr);
            if (s.write)
                ctx.write(a, 8);
            else
                ctx.read(a, 8);
        }
    });
}

} // namespace

/** The batched delivery path on scheduled fuzz streams: the sink must
 *  see exactly the sequence the bodies issued, and the MemSystem fed
 *  that way must agree with the independent reference model replayed
 *  over the issue log -- per-processor miss counts and the final MESI
 *  state of every touched line. */
TEST_P(ReferenceFuzz, BatchedDeliveryStateAndStatExact)
{
    const int nprocs = 6;
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 1u << 22;
    mc.cache.assoc = 0;
    MemSystem mem(mc);
    Trace capture;
    std::vector<Issued> issued;
    fuzzMemRun(GetParam(), mem, capture, &issued);

    // Delivered order equals execution order.
    ASSERT_EQ(capture.size(), issued.size());
    std::size_t i = 0;
    capture.forEach([&](const AccessRec& r) {
        const Issued& want = issued[i];
        EXPECT_EQ(r.proc, want.proc) << "record " << i;
        EXPECT_EQ(r.addr, want.addr) << "record " << i;
        EXPECT_EQ(r.type,
                  want.write ? AccessType::Write : AccessType::Read)
            << "record " << i;
        ++i;
    });

    // Statistics and states equal the reference model's.
    RefModel ref(nprocs);
    std::vector<std::uint64_t> refMisses(nprocs, 0);
    std::set<Addr> touched;
    for (const Issued& r : issued) {
        const Addr line = r.addr & ~Addr(63);
        touched.insert(line);
        if (ref.access(r.proc, line, r.write))
            ++refMisses[r.proc];
    }
    for (int p = 0; p < nprocs; ++p)
        EXPECT_EQ(mem.procStats(p).totalMisses(), refMisses[p])
            << "P" << p;
    for (Addr line : touched)
        for (int q = 0; q < nprocs; ++q)
            ASSERT_EQ(mem.lineState(q, line),
                      toLineState(ref.stateOf(q, line)))
                << "p" << q << " line " << std::hex << line;
    EXPECT_TRUE(mem.checkCoherenceInvariants());
}

/** The parallel sweep replay must reproduce the serial online sweep
 *  exactly at every operating point, for any worker count and chunk
 *  size -- including tiny chunks that force many flush barriers. */
TEST_P(ReferenceFuzz, ParallelSweepStatExact)
{
    const int nprocs = 6;
    SweepConfig sc;
    sc.nprocs = nprocs;
    CacheSweep serial(sc);
    std::uint64_t x = GetParam();
    std::vector<FuzzStep> steps;
    std::vector<int> procs;
    for (int i = 0; i < 40000; ++i) {
        steps.push_back(fuzzStep(x));
        procs.push_back(static_cast<int>((x >> 60) % nprocs));
    }
    for (std::size_t i = 0; i < steps.size(); ++i)
        serial.access(procs[i], steps[i].addr, 8,
                      steps[i].write ? AccessType::Write
                                     : AccessType::Read);
    for (int threads : {1, 2, 4}) {
        CacheSweep sweep(sc);
        {
            ParallelSweep ps(sweep, threads, /*chunkRecords=*/512);
            for (std::size_t i = 0; i < steps.size(); ++i) {
                AccessRec r;
                r.addr = steps[i].addr;
                r.size = 8;
                r.proc = static_cast<std::int16_t>(procs[i]);
                r.type = steps[i].write ? AccessType::Write
                                        : AccessType::Read;
                ps.access(r);
            }
        }  // destructor flushes
        EXPECT_EQ(serial.accesses(), sweep.accesses()) << threads;
        for (std::uint64_t size : sc.sizes)
            for (int assoc : {1, 2, 4, 0})
                EXPECT_EQ(serial.misses(size, assoc),
                          sweep.misses(size, assoc))
                    << threads << " workers, " << size << "B " << assoc
                    << "-way";
    }
}
