// Cross-validation of MemSystem against an independently written
// reference model of the same protocol (unbounded maps instead of tag
// arrays for the infinite-cache case; straightforward per-line state
// machine). Any divergence in hit/miss decisions, state transitions,
// or invalidation sets is a bug in one of the two implementations.
//
// The same seeded streams also run as scheduled team programs through
// the batched delivery ring (delivered order must equal issue order,
// and the result must equal the reference model's).  Finally the
// multi-configuration sweep (one MRU list per set count, eager
// invalidation) is fuzzed against the per-configuration tag-array
// oracle (tag_array_sweep.h): every (size, assoc) miss count must be
// equal.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "rt/env.h"
#include "sim/memsys.h"
#include "sim/sweep.h"
#include "tag_array_sweep.h"

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

// ----------------------------------------------------------------------
// The sweep against the tag-array oracle.

namespace {

/** The Figure-3 grid, or (@p altGrid) 32 B lines, 8-way, and sizes
 *  down to one line so that ways clamp to the line count. */
SweepConfig
oracleConfig(int nprocs, bool altGrid)
{
    SweepConfig sc;
    sc.nprocs = nprocs;
    if (altGrid) {
        sc.lineSize = 32;
        sc.sizes = {32, 64, 128, 256, 512, 2048, 16384, 131072};
        sc.assocs = {1, 2, 4, 8};
    }
    return sc;
}

/** Every simulated operating point of @p sc, fully associative
 *  included, must agree between the sweep and the oracle. */
void
expectSameMisses(const CacheSweep& sweep,
                 const TagArraySweep& oracle,
                 const SweepConfig& sc, const char* when)
{
    ASSERT_EQ(sweep.accesses(), oracle.accesses()) << when;
    std::vector<int> assocs = sc.assocs;
    assocs.push_back(kFullyAssoc);
    for (std::uint64_t size : sc.sizes)
        for (int assoc : assocs)
            EXPECT_EQ(sweep.misses(size, assoc),
                      oracle.misses(size, assoc))
                << when << ": " << size << "B " << assoc << "-way";
}

} // namespace

class SweepOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, bool>>
{};

/** A sharing-heavy stream: a small hot pool every processor reads and
 *  writes, private regions, a strided pool that collides in every set
 *  count, and line-spanning accesses; counters reset mid-stream. */
TEST_P(SweepOracle, EveryOperatingPointMatchesTagArrays)
{
    const auto [seed, nprocs, altGrid] = GetParam();
    const SweepConfig sc = oracleConfig(nprocs, altGrid);
    const Addr ls = static_cast<Addr>(sc.lineSize);
    CacheSweep sweep(sc);
    TagArraySweep oracle(sc);

    std::uint64_t x = seed;
    const int kRefs = 30000;
    for (int i = 0; i < kRefs; ++i) {
        if (i == kRefs / 2) {
            expectSameMisses(sweep, oracle, sc, "before reset");
            sweep.resetStats();
            oracle.resetStats();
        }
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const int p = static_cast<int>((x >> 58) % nprocs);
        const std::uint64_t r = x >> 20;
        Addr a;
        int size = 8;
        switch ((x >> 8) % 10) {
          case 0: case 1: case 2: case 3:  // hot shared pool
            a = 0x400000 + (r % 48) * ls + (r >> 12) % 4 * 8;
            break;
          case 4: case 5: case 6:  // private region
            a = 0x10000000 + Addr(p) * 0x100000 + (r % 900) * ls;
            break;
          case 7: case 8:  // same set at every set count
            a = 0x20000000 + (r % 40) * 0x40000;
            break;
          default:  // straddles a line boundary
            a = 0x400000 + (r % 300) * ls + ls - 4;
            size = 16;
            break;
        }
        const AccessType t =
            ((x >> 4) & 3) == 0 ? AccessType::Write : AccessType::Read;
        sweep.access(p, a, size, t);
        oracle.access(p, a, size, t);
    }
    expectSameMisses(sweep, oracle, sc, "after reset");
}

// The default grid allocates ~3 MB of oracle tag arrays per processor,
// so the 64-processor case (holder-mask bit 63) runs on the compact
// alternative grid.
INSTANTIATE_TEST_SUITE_P(
    DefaultGrid, SweepOracle,
    ::testing::Combine(::testing::Values(1ull, 42ull, 9999ull),
                       ::testing::Values(1, 6),
                       ::testing::Values(false)));
INSTANTIATE_TEST_SUITE_P(
    ClampedGrid, SweepOracle,
    ::testing::Combine(::testing::Values(1ull, 42ull, 9999ull),
                       ::testing::Values(1, 6, 64),
                       ::testing::Values(true)));

namespace {

/** Feeds one executed stream to the sweep and the oracle at once. */
class OracleTee final : public RefSink
{
  public:
    OracleTee(CacheSweep& s, TagArraySweep& o) : s_(s), o_(o) {}
    void
    access(const AccessRec& r) override
    {
        s_.access(r.proc, r.addr, r.size, r.type);
        o_.access(r.proc, r.addr, r.size, r.type);
    }
    void
    resetStats() override
    {
        s_.resetStats();
        o_.resetStats();
    }

  private:
    CacheSweep& s_;
    TagArraySweep& o_;
};

} // namespace

/** Real programs, not just synthetic streams: FFT and LU at 8
 *  processors through the scheduler, on the Figure-3 grid. */
TEST(SweepOracleProgram, FftAndLuMatchTagArrays)
{
    for (auto [name, n] : {std::pair<const char*, long>{"fft", 12},
                           std::pair<const char*, long>{"lu", 64}}) {
        harness::App* app = harness::findApp(name);
        ASSERT_NE(app, nullptr) << name;
        harness::AppConfig cfg;
        cfg.n = n;
        const SweepConfig sc = oracleConfig(8, false);
        CacheSweep sweep(sc);
        TagArraySweep oracle(sc);
        OracleTee tee(sweep, oracle);
        rt::Env env({rt::Mode::Sim, sc.nprocs, /*quantum=*/250});
        env.attachSink(&tee);
        ASSERT_TRUE(app->run(env, cfg).valid) << name;
        expectSameMisses(sweep, oracle, sc, name);
    }
}
