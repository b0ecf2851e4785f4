// The happens-before race detector, tested at three levels:
//
//  1. Hand-built streams into a bare RaceChecker: lock-, barrier-, and
//     flag-ordered streams must be clean; genuinely racy streams must
//     be reported with exact address and processor-pair attribution;
//     the FastTrack read-shared promotion, atomic exclusion, and
//     word-vs-line granularity behaviors are pinned.  Seeded random
//     and barrier-phased streams must give the same outcome on the
//     checker's paged shadow memory as on a std::map-backed FastTrack
//     reference (RaceCheckFuzz).
//  2. Seeded edge-drop injection on real programs (mirroring the
//     --race-inject harness): every dropped acquire edge must surface
//     as a race involving the processor whose edge was elided, across
//     several seeds.
//  3. The verification result itself: the whole suite is race-free at
//     word granularity, the detector's sync census agrees exactly with
//     the runtime's Figure-2 wait counters, attaching the detector
//     changes no characterization statistic, and broadcast-replay race
//     replicas reproduce the dedicated-run outcome bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "harness/app.h"
#include "harness/experiment.h"
#include "sim/racecheck.h"

using namespace splash;
using namespace splash::sim;
using namespace splash::harness;

namespace {

AccessRec
acc(int p, Addr a, int size, AccessType t, std::uint8_t flags = 0,
    Tick lt = 0)
{
    AccessRec r;
    r.addr = a;
    r.ltime = lt;
    r.size = size;
    r.proc = static_cast<std::int16_t>(p);
    r.type = t;
    r.flags = flags;
    return r;
}

SyncRec
syn(int p, std::uint32_t obj, SyncOp op, SyncPrim prim)
{
    SyncRec r;
    r.obj = obj;
    r.proc = static_cast<std::int16_t>(p);
    r.op = op;
    r.prim = prim;
    return r;
}

RaceConfig
wordCfg(int nprocs)
{
    RaceConfig c;
    c.gran = RaceGranularity::Word;
    c.nprocs = nprocs;
    return c;
}

RaceConfig
lineCfg(int nprocs, int line)
{
    RaceConfig c;
    c.gran = RaceGranularity::Line;
    c.nprocs = nprocs;
    c.lineSize = line;
    return c;
}

constexpr Addr kA = 0x100000000ull;  // sim-address-like base

} // namespace

// ---------------------------------------------------------------------
// Hand-built streams
// ---------------------------------------------------------------------

TEST(RaceCheckCore, LockOrderedStreamIsClean)
{
    RaceChecker rc(wordCfg(2));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Lock));
    rc.sync(syn(1, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(1, kA, 4, AccessType::Write));
    rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Lock));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.outcome().census.lockAcquires, 2u);
    EXPECT_EQ(rc.outcome().census.lockReleases, 2u);
}

TEST(RaceCheckCore, UnorderedWritesRaceWithExactAttribution)
{
    RaceChecker rc(wordCfg(4));
    rc.access(acc(0, kA + 64, 4, AccessType::Write, 0, /*lt=*/7));
    rc.access(acc(2, kA + 64, 4, AccessType::Write, 0, /*lt=*/9));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    ASSERT_EQ(o.reports.size(), 1u);
    const RaceReport& r = o.reports[0];
    EXPECT_EQ(r.granule, kA + 64);
    EXPECT_EQ(r.bytes, 4);
    EXPECT_EQ(r.prev.proc, 0);
    EXPECT_EQ(r.prev.type, AccessType::Write);
    EXPECT_EQ(r.prev.ltime, 7u);
    EXPECT_EQ(r.cur.proc, 2);
    EXPECT_EQ(r.cur.type, AccessType::Write);
    EXPECT_EQ(r.cur.ltime, 9u);
}

TEST(RaceCheckCore, UnorderedWriteThenReadRaces)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.access(acc(1, kA, 4, AccessType::Read));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].prev.type, AccessType::Write);
    EXPECT_EQ(o.reports[0].cur.type, AccessType::Read);
}

TEST(RaceCheckCore, ConcurrentReadsDoNotRace)
{
    RaceChecker rc(wordCfg(3));
    rc.access(acc(0, kA, 4, AccessType::Read));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(2, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
}

TEST(RaceCheckCore, BarrierRendezvousOrdersAllPairs)
{
    // Each processor writes its own word, all cross a barrier, then
    // each reads (and rewrites) its neighbor's word: the all-to-all
    // rendezvous must order every pair, including two processors that
    // arrived in either order.
    const int n = 3;
    RaceChecker rc(wordCfg(n));
    for (int p = 0; p < n; ++p)
        rc.access(acc(p, kA + 4 * Addr(p), 4, AccessType::Write));
    for (int p = 0; p < n; ++p)
        rc.sync(syn(p, 0, SyncOp::Release, SyncPrim::Barrier));
    for (int p = 0; p < n; ++p)
        rc.sync(syn(p, 0, SyncOp::Acquire, SyncPrim::Barrier));
    for (int p = 0; p < n; ++p) {
        Addr other = kA + 4 * Addr((p + 1) % n);
        rc.access(acc(p, other, 4, AccessType::Read));
    }
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.census().barrierArrivals, 3u);
    EXPECT_EQ(rc.census().barrierDepartures, 3u);
}

TEST(RaceCheckCore, MissingBarrierDepartureRaces)
{
    // Same rendezvous, but P1 never acquires (skipped departure):
    // P1's read of P0's word is unordered with P0's write.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Barrier));
    // P1's acquire elided.
    rc.access(acc(1, kA, 4, AccessType::Read));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].prev.proc, 0);
    EXPECT_EQ(o.reports[0].cur.proc, 1);
}

TEST(RaceCheckCore, FlagOrderedStreamIsClean)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 5, SyncOp::Release, SyncPrim::Flag));  // set
    rc.sync(syn(1, 5, SyncOp::Acquire, SyncPrim::Flag));  // wait
    rc.access(acc(1, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.census().flagSets, 1u);
    EXPECT_EQ(rc.census().flagWaits, 1u);
}

TEST(RaceCheckCore, ReadWithoutFlagWaitRaces)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 5, SyncOp::Release, SyncPrim::Flag));
    rc.access(acc(1, kA, 4, AccessType::Read));  // no wait
    EXPECT_EQ(rc.outcome().races, 1u);
}

TEST(RaceCheckCore, ReadSharedPromotionReportsEveryReader)
{
    // Two concurrent readers force the epoch -> vector-clock
    // promotion; an unordered write must then race with *both*.
    RaceChecker rc(wordCfg(3));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(2, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
    rc.access(acc(0, kA, 4, AccessType::Write));
    RaceOutcome o = rc.outcome();
    EXPECT_EQ(o.races, 2u);  // (0,1) and (0,2) on the same word
    EXPECT_EQ(o.racyGranules, 1u);
    bool saw1 = false, saw2 = false;
    for (const RaceReport& r : o.reports) {
        EXPECT_EQ(r.cur.proc, 0);
        EXPECT_EQ(r.prev.type, AccessType::Read);
        saw1 = saw1 || r.prev.proc == 1;
        saw2 = saw2 || r.prev.proc == 2;
    }
    EXPECT_TRUE(saw1);
    EXPECT_TRUE(saw2);
}

TEST(RaceCheckCore, AtomicAnnotatedAccessesAreExcluded)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write, AccessRec::kAtomic));
    rc.access(acc(1, kA, 4, AccessType::Write, AccessRec::kAtomic));
    rc.access(acc(1, kA, 4, AccessType::Read, AccessRec::kAtomic));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.outcome().granulesTracked, 0u);
}

TEST(RaceCheckCore, LineGranularityFlagsFalseSharingWordDoesNot)
{
    // Two processors write *different* words of the same 64-byte
    // line, unordered: no data race, pure false sharing.
    RaceChecker word(wordCfg(2));
    word.access(acc(0, kA, 4, AccessType::Write));
    word.access(acc(1, kA + 40, 4, AccessType::Write));
    EXPECT_TRUE(word.outcome().clean());

    RaceChecker line(lineCfg(2, 64));
    line.access(acc(0, kA, 4, AccessType::Write));
    line.access(acc(1, kA + 40, 4, AccessType::Write));
    RaceOutcome o = line.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.granuleBytes, 64);
    EXPECT_EQ(o.reports[0].granule, kA);  // line-aligned
    EXPECT_EQ(o.reports[0].bytes, 64);
}

TEST(RaceCheckCore, SpanningAccessChecksEveryGranule)
{
    // An 8-byte access covers two words; a conflicting write to the
    // *second* word must still be caught, attributed to that word.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 8, AccessType::Write));
    rc.access(acc(1, kA + 4, 4, AccessType::Write));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].granule, kA + 4);
}

TEST(RaceCheckCore, RepeatedConflictsDedupToOnePair)
{
    RaceChecker rc(wordCfg(2));
    for (int i = 0; i < 3; ++i) {
        rc.access(acc(0, kA, 4, AccessType::Write));
        rc.access(acc(1, kA, 4, AccessType::Write));
    }
    RaceOutcome o = rc.outcome();
    EXPECT_EQ(o.races, 1u);
    EXPECT_EQ(o.racyGranules, 1u);
    EXPECT_GE(o.dynamicRaces, 2u);
    EXPECT_EQ(o.reports.size(), 1u);
}

TEST(RaceCheckCore, ResetStatsKeepsOrderingState)
{
    // A pre-window write still races with an in-window access: the
    // reset drops tallies, never the clocks or shadow state.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.resetStats();
    EXPECT_TRUE(rc.outcome().clean());
    rc.access(acc(1, kA, 4, AccessType::Read));
    EXPECT_EQ(rc.outcome().races, 1u);
}

TEST(RaceCheckCore, SummaryMentionsConflicts)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.access(acc(1, kA, 4, AccessType::Write));
    std::string s = rc.summary();
    EXPECT_NE(s.find("1 conflict pair"), std::string::npos);
    EXPECT_NE(s.find("P0 write"), std::string::npos);
    EXPECT_NE(s.find("P1 write"), std::string::npos);
}

TEST(RaceCheckCore, GranularityNamesRoundTrip)
{
    RaceGranularity g;
    EXPECT_TRUE(parseRaceGranularity("off", &g));
    EXPECT_EQ(g, RaceGranularity::Off);
    EXPECT_TRUE(parseRaceGranularity("word", &g));
    EXPECT_EQ(g, RaceGranularity::Word);
    EXPECT_TRUE(parseRaceGranularity("line", &g));
    EXPECT_EQ(g, RaceGranularity::Line);
    EXPECT_FALSE(parseRaceGranularity("byte", &g));
    EXPECT_FALSE(parseRaceGranularity("", &g));
    RaceFault k;
    for (int i = 0; i < kNumRaceFaults; ++i) {
        RaceFault want = static_cast<RaceFault>(i);
        ASSERT_TRUE(parseRaceFault(raceFaultName(want), &k));
        EXPECT_EQ(k, want);
    }
    EXPECT_FALSE(parseRaceFault("drop-everything", &k));
}

// ---------------------------------------------------------------------
// Edge-drop injection on hand-built streams
// ---------------------------------------------------------------------

TEST(RaceCheckInject, DroppedLockAcquireExposesTheRace)
{
    // Two lock-ordered critical sections; dropping the second
    // acquire (occurrence 1) makes them race.
    auto run = [](RaceChecker& rc) {
        rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
        rc.access(acc(0, kA, 4, AccessType::Write));
        rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Lock));
        rc.sync(syn(1, 0, SyncOp::Acquire, SyncPrim::Lock));
        rc.access(acc(1, kA, 4, AccessType::Write));
        rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Lock));
    };
    RaceChecker base(wordCfg(2));
    run(base);
    EXPECT_TRUE(base.outcome().clean());
    ASSERT_EQ(base.edgeCount(RaceFault::DropLockAcquire), 2u);

    RaceChecker rc(wordCfg(2));
    rc.dropEdge(RaceFault::DropLockAcquire, 1);
    run(rc);
    EXPECT_TRUE(rc.dropFired());
    EXPECT_EQ(rc.droppedProc(), 1);
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].granule, kA);
    EXPECT_EQ(o.reports[0].prev.proc, 0);
    EXPECT_EQ(o.reports[0].cur.proc, 1);
}

TEST(RaceCheckInject, EdgeCountsAreKeyedByKind)
{
    RaceChecker rc(wordCfg(2));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.sync(syn(0, 1, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(0, 1, SyncOp::Acquire, SyncPrim::Barrier));
    rc.sync(syn(1, 2, SyncOp::Acquire, SyncPrim::Flag));
    EXPECT_EQ(rc.edgeCount(RaceFault::DropLockAcquire), 1u);
    EXPECT_EQ(rc.edgeCount(RaceFault::DropBarrierEdge), 1u);
    EXPECT_EQ(rc.edgeCount(RaceFault::DropFlagWait), 1u);
}

// ---------------------------------------------------------------------
// Differential fuzz: the paged shadow memory against a map-backed
// FastTrack reference
// ---------------------------------------------------------------------

namespace {

/** FastTrack with its shadow state in a std::map keyed by granule and
 *  epochs as plain (proc, clock) pairs: none of the checker's storage
 *  layout (pages, page map, read-VC bit encoding, pool).  Any
 *  divergence in outcome is a fault of that layout. */
class RefChecker
{
  public:
    explicit RefChecker(const RaceConfig& cfg) : cfg_(cfg), n_(cfg.nprocs)
    {
        granBytes_ = cfg.gran == RaceGranularity::Word ? 4 : cfg.lineSize;
        while ((1 << shift_) < granBytes_)
            ++shift_;
        C_.assign(n_, std::vector<std::uint32_t>(n_, 0));
        for (int p = 0; p < n_; ++p)
            C_[p][p] = 1;
    }

    void
    dropEdge(RaceFault k, std::uint64_t occurrence)
    {
        armed_ = true;
        dropKind_ = k;
        dropAt_ = occurrence;
    }

    void
    access(const AccessRec& r)
    {
        if (r.atomic() || r.size <= 0)
            return;
        const Addr last = (r.addr + Addr(r.size) - 1) >> shift_;
        for (Addr g = r.addr >> shift_; g <= last; ++g)
            check(g, r);
    }

    void
    sync(const SyncRec& r)
    {
        std::vector<std::uint32_t>& Ct = C_[r.proc];
        std::vector<std::uint32_t>& L =
            L_.try_emplace(r.obj, std::vector<std::uint32_t>(n_, 0))
                .first->second;
        const bool rel = r.op == SyncOp::Release;
        switch (r.prim) {
        case SyncPrim::Barrier:
            ++(rel ? o_.census.barrierArrivals
                   : o_.census.barrierDepartures);
            break;
        case SyncPrim::Lock:
            ++(rel ? o_.census.lockReleases : o_.census.lockAcquires);
            break;
        case SyncPrim::Flag:
            ++(rel ? o_.census.flagSets : o_.census.flagWaits);
            break;
        }
        if (rel) {
            for (int q = 0; q < n_; ++q)
                L[q] = std::max(L[q], Ct[q]);
            ++Ct[r.proc];
            return;
        }
        const RaceFault kind = r.prim == SyncPrim::Lock
                                   ? RaceFault::DropLockAcquire
                               : r.prim == SyncPrim::Barrier
                                   ? RaceFault::DropBarrierEdge
                                   : RaceFault::DropFlagWait;
        const std::uint64_t idx = seen_[static_cast<int>(kind)]++;
        if (armed_ && !fired_ && kind == dropKind_ && idx == dropAt_) {
            fired_ = true;
            droppedProc_ = r.proc;
            return;
        }
        for (int q = 0; q < n_; ++q)
            Ct[q] = std::max(Ct[q], L[q]);
    }

    void
    resetStats()
    {
        o_.census = SyncCensus{};
        o_.dynamicRaces = 0;
        o_.reports.clear();
        pairs_.clear();
        racy_.clear();
    }

    RaceOutcome
    outcome() const
    {
        RaceOutcome o = o_;
        o.gran = cfg_.gran;
        o.granuleBytes = granBytes_;
        o.races = pairs_.size();
        o.racyGranules = racy_.size();
        o.granulesTracked = vars_.size();
        return o;
    }

    bool fired() const { return fired_; }
    int droppedProc() const { return droppedProc_; }

    /** Coverage of the read-VC life cycle. */
    int promotions = 0;
    int collapses = 0;
    int peakShared = 0;

  private:
    struct Epoch
    {
        int proc = -1;  ///< -1: none
        std::uint32_t clk = 0;
    };
    struct Var
    {
        Epoch w;
        Tick wLt = 0;
        Epoch r;
        Tick rLt = 0;
        bool shared = false;
        std::vector<std::uint32_t> rclk;
        std::vector<Tick> rlt;
    };

    bool
    unordered(const Epoch& e, int t) const
    {
        return e.proc >= 0 && e.proc != t && e.clk > C_[t][e.proc];
    }

    void
    check(Addr g, const AccessRec& rec)
    {
        Var& v = vars_[g];
        const int t = rec.proc;
        const std::vector<std::uint32_t>& Ct = C_[t];
        if (rec.type == AccessType::Read) {
            if (!v.shared && v.r.proc == t && v.r.clk == Ct[t]) {
                v.rLt = rec.ltime;
                return;
            }
            if (unordered(v.w, t))
                report(g, {std::int16_t(v.w.proc), AccessType::Write,
                           v.wLt},
                       rec);
            if (v.shared) {
                v.rclk[t] = Ct[t];
                v.rlt[t] = rec.ltime;
            } else if (!unordered(v.r, t)) {
                v.r = {t, Ct[t]};
                v.rLt = rec.ltime;
            } else {
                v.shared = true;
                v.rclk.assign(n_, 0);
                v.rlt.assign(n_, 0);
                v.rclk[v.r.proc] = v.r.clk;
                v.rlt[v.r.proc] = v.rLt;
                v.rclk[t] = Ct[t];
                v.rlt[t] = rec.ltime;
                v.r = Epoch{};
                ++promotions;
                peakShared = std::max(peakShared, ++shared_);
            }
            return;
        }
        if (v.w.proc == t && v.w.clk == Ct[t]) {
            v.wLt = rec.ltime;
            return;
        }
        if (unordered(v.w, t))
            report(g, {std::int16_t(v.w.proc), AccessType::Write, v.wLt},
                   rec);
        if (v.shared) {
            for (int q = 0; q < n_; ++q)
                if (q != t && v.rclk[q] > Ct[q])
                    report(g, {std::int16_t(q), AccessType::Read,
                               v.rlt[q]},
                           rec);
            v.shared = false;
            ++collapses;
            --shared_;
        } else if (unordered(v.r, t)) {
            report(g, {std::int16_t(v.r.proc), AccessType::Read, v.rLt},
                   rec);
        }
        v.w = {t, Ct[t]};
        v.wLt = rec.ltime;
        v.r = Epoch{};
        v.rLt = 0;
    }

    void
    report(Addr g, const RaceAccess& prev, const AccessRec& cur)
    {
        ++o_.dynamicRaces;
        const int a = std::min<int>(prev.proc, cur.proc);
        const int b = std::max<int>(prev.proc, cur.proc);
        const bool fresh = pairs_.insert({g, a, b}).second;
        racy_.insert(g);
        if (fresh && o_.reports.size() <
                         static_cast<std::size_t>(cfg_.maxReports)) {
            RaceReport rep;
            rep.granule = g << shift_;
            rep.bytes = granBytes_;
            rep.prev = prev;
            rep.cur = {cur.proc, cur.type, cur.ltime};
            o_.reports.push_back(rep);
        }
    }

    RaceConfig cfg_;
    int n_;
    int shift_ = 0;
    int granBytes_ = 4;
    std::vector<std::vector<std::uint32_t>> C_;
    std::map<std::uint32_t, std::vector<std::uint32_t>> L_;
    std::map<Addr, Var> vars_;
    std::set<std::tuple<Addr, int, int>> pairs_;
    std::set<Addr> racy_;
    RaceOutcome o_;
    int shared_ = 0;
    bool armed_ = false;
    bool fired_ = false;
    RaceFault dropKind_ = RaceFault::DropLockAcquire;
    std::uint64_t dropAt_ = 0;
    int droppedProc_ = -1;
    std::uint64_t seen_[kNumRaceFaults] = {0, 0, 0};
};

/** One stream event: an access, a sync edge, or a stats reset. */
struct Event
{
    enum Kind { Access, Sync, Reset } kind = Access;
    AccessRec a;
    SyncRec s;
};

template <class Sink>
void
feed(Sink& sink, const std::vector<Event>& evs)
{
    for (const Event& e : evs) {
        switch (e.kind) {
        case Event::Access: sink.access(e.a); break;
        case Event::Sync: sink.sync(e.s); break;
        case Event::Reset: sink.resetStats(); break;
        }
    }
}

/** Shadow page span in bytes (1024 granules). */
Addr
pageBytes(const RaceConfig& cfg)
{
    return Addr(1024) *
           (cfg.gran == RaceGranularity::Word ? 4 : cfg.lineSize);
}

/** Coverage counts of a generated stream. */
struct StreamShape
{
    int pageSpans = 0;    ///< accesses whose granules sit on two pages
    int outsideArena = 0; ///< host addresses outside the sim arena
};

/** Host-like address outside the SharedHeap arena: toSim passes it
 *  through unchanged, so the detector sees it as is. */
constexpr Addr kHost = 0x7ffc12340000ull;

/** Builds an event stream and counts its coverage. */
class StreamGen
{
  public:
    StreamGen(const RaceConfig& cfg, std::uint64_t seed)
        : cfg_(cfg), rng_(seed), lt_(cfg.nprocs, 0)
    {
    }

    void
    access(int p, Addr a, int size, AccessType t, std::uint8_t flags = 0)
    {
        lt_[p] += 1 + rng_() % 4;
        Event e;
        e.a = acc(p, a, size, t, flags, lt_[p]);
        if (size > 0 && (a / pageBytes(cfg_)) !=
                            ((a + Addr(size) - 1) / pageBytes(cfg_)))
            ++shape.pageSpans;
        if (a >= kHost)
            ++shape.outsideArena;
        evs.push_back(e);
    }

    void
    sync(int p, std::uint32_t obj, SyncOp op, SyncPrim prim)
    {
        Event e;
        e.kind = Event::Sync;
        e.s = syn(p, obj, op, prim);
        e.s.ltime = lt_[p];
        evs.push_back(e);
    }

    void
    barrier(std::uint32_t obj)
    {
        for (int p = 0; p < cfg_.nprocs; ++p)
            sync(p, obj, SyncOp::Release, SyncPrim::Barrier);
        for (int p = 0; p < cfg_.nprocs; ++p)
            sync(p, obj, SyncOp::Acquire, SyncPrim::Barrier);
    }

    std::uint64_t rand() { return rng_(); }

    std::vector<Event> evs;
    StreamShape shape;

  private:
    RaceConfig cfg_;
    std::mt19937_64 rng_;
    std::vector<Tick> lt_;
};

/** Unstructured stream: random accesses over a small hot set that
 *  straddles shadow-page boundaries, inside and outside the sim
 *  arena, under random lock, flag and barrier edges. */
StreamShape
randomStream(const RaceConfig& cfg, std::uint64_t seed, int length,
             std::vector<Event>* out)
{
    StreamGen gen(cfg, seed);
    const Addr page = pageBytes(cfg);
    std::vector<Addr> hot;
    for (int i = 0; i < 48; ++i) {
        const Addr base = i % 3 == 0 ? kHost : kA;
        const Addr pg = base + (1 + gen.rand() % 6) * page;
        // Within 16 bytes of a page boundary, or anywhere on a page.
        hot.push_back(i % 2 == 0 ? pg - 16 + gen.rand() % 32
                                 : pg + gen.rand() % page);
    }
    static const int kSizes[] = {1, 2, 4, 4, 8, 8, 8, 12, 16, 0};
    const int n = cfg.nprocs;
    while (static_cast<int>(gen.evs.size()) < length) {
        const int p = static_cast<int>(gen.rand() % n);
        const std::uint64_t dice = gen.rand() % 1000;
        if (dice < 40) {
            // Lock-protected read-modify-write.
            const std::uint32_t lock = gen.rand() % 3;
            const Addr a = hot[gen.rand() % hot.size()];
            gen.sync(p, lock, SyncOp::Acquire, SyncPrim::Lock);
            gen.access(p, a, 8, AccessType::Read);
            gen.access(p, a, 8, AccessType::Write);
            gen.sync(p, lock, SyncOp::Release, SyncPrim::Lock);
        } else if (dice < 60) {
            gen.sync(p, 10 + gen.rand() % 2, SyncOp::Release,
                     SyncPrim::Flag);
        } else if (dice < 80) {
            gen.sync(p, 10 + gen.rand() % 2, SyncOp::Acquire,
                     SyncPrim::Flag);
        } else if (dice < 86) {
            gen.barrier(20);
        } else if (dice < 87) {
            Event e;
            e.kind = Event::Reset;
            gen.evs.push_back(e);
        } else {
            const Addr a = dice < 950 ? hot[gen.rand() % hot.size()]
                                      : kA + gen.rand() % (8 * page);
            const AccessType t = gen.rand() % 3 == 0 ? AccessType::Write
                                                     : AccessType::Read;
            gen.access(p, a, kSizes[gen.rand() % 10], t,
                       gen.rand() % 40 == 0 ? AccessRec::kAtomic : 0);
        }
    }
    *out = std::move(gen.evs);
    return gen.shape;
}

/** Barrier-phased stream that is race-free at word grain: each
 *  processor writes only its own slice of an array laid across a
 *  shadow-page boundary; a shared block across another boundary is
 *  written by one owner in even phases and read by everyone in odd
 *  phases (read-VC promotion there, collapse at the next owner's
 *  write, pool reuse after that); a counter is updated
 *  under a lock; a flag hands a mailbox from processor 0 to 1.  Half
 *  the slices live outside the sim arena. */
std::vector<Event>
phasedStream(const RaceConfig& cfg, std::uint64_t seed, int phases)
{
    StreamGen gen(cfg, seed);
    const int n = cfg.nprocs;
    const Addr page = pageBytes(cfg);
    // 8-byte accesses at 4 mod 8 from a page boundary: the one that
    // starts 4 bytes before the next page spans two pages.
    auto slice = [&](int p) {
        return (p % 2 ? kHost : kA) + page + Addr(p) * 2048 + 4;
    };
    const Addr shared = kA + 3 * page - 8;
    const Addr counter = kA + 5 * page;
    const Addr mailbox = kHost + 7 * page - 8;
    for (int ph = 0; ph < phases; ++ph) {
        // Every processor reads the shared block in odd phases; its
        // owner rewrites it in even ones.
        std::vector<int> order;
        for (int i = 0; i < 6 * n; ++i)
            order.push_back(i % n);
        if (ph % 2 == 0)
            gen.access((ph / 2) % n, shared, 16, AccessType::Write);
        else
            for (int p = 0; p < n; ++p)
                gen.access(p, shared, 16, AccessType::Read);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[gen.rand() % i]);
        for (int p : order) {
            const std::uint64_t dice = gen.rand() % 8;
            if (dice < 3) {
                gen.access(p, slice(p) + 8 * (gen.rand() % 256), 8,
                           gen.rand() % 2 ? AccessType::Write
                                          : AccessType::Read);
            } else if (dice < 5) {
                if (ph % 2 == 1)
                    gen.access(p, shared, 16, AccessType::Read);
                else if (p == (ph / 2) % n)
                    gen.access(p, shared, 16, AccessType::Write);
            } else if (dice < 7) {
                gen.sync(p, 0, SyncOp::Acquire, SyncPrim::Lock);
                gen.access(p, counter, 8, AccessType::Read);
                gen.access(p, counter, 8, AccessType::Write);
                gen.sync(p, 0, SyncOp::Release, SyncPrim::Lock);
            }
        }
        // Mailbox: 0 writes and sets the flag, 1 waits and reads.
        gen.access(0, mailbox, 16, AccessType::Write);
        gen.sync(0, 30, SyncOp::Release, SyncPrim::Flag);
        gen.sync(1, 30, SyncOp::Acquire, SyncPrim::Flag);
        gen.access(1, mailbox, 16, AccessType::Read);
        gen.barrier(20);
        // The mailbox is rewritten next phase: 1's read must be
        // ordered before it, which the barrier does.
    }
    return std::move(gen.evs);
}

void
expectSameOutcome(const RaceOutcome& got, const RaceOutcome& want,
                  const std::string& ctx)
{
    EXPECT_EQ(got.gran, want.gran) << ctx;
    EXPECT_EQ(got.granuleBytes, want.granuleBytes) << ctx;
    EXPECT_EQ(got.races, want.races) << ctx;
    EXPECT_EQ(got.racyGranules, want.racyGranules) << ctx;
    EXPECT_EQ(got.dynamicRaces, want.dynamicRaces) << ctx;
    EXPECT_EQ(got.granulesTracked, want.granulesTracked) << ctx;
    EXPECT_EQ(got.census.barrierArrivals, want.census.barrierArrivals)
        << ctx;
    EXPECT_EQ(got.census.barrierDepartures,
              want.census.barrierDepartures)
        << ctx;
    EXPECT_EQ(got.census.lockAcquires, want.census.lockAcquires) << ctx;
    EXPECT_EQ(got.census.lockReleases, want.census.lockReleases) << ctx;
    EXPECT_EQ(got.census.flagSets, want.census.flagSets) << ctx;
    EXPECT_EQ(got.census.flagWaits, want.census.flagWaits) << ctx;
    ASSERT_EQ(got.reports.size(), want.reports.size()) << ctx;
    for (std::size_t i = 0; i < got.reports.size(); ++i) {
        const RaceReport& g = got.reports[i];
        const RaceReport& w = want.reports[i];
        const std::string at = ctx + " report " + std::to_string(i);
        EXPECT_EQ(g.granule, w.granule) << at;
        EXPECT_EQ(g.bytes, w.bytes) << at;
        EXPECT_EQ(g.prev.proc, w.prev.proc) << at;
        EXPECT_EQ(g.prev.type, w.prev.type) << at;
        EXPECT_EQ(g.prev.ltime, w.prev.ltime) << at;
        EXPECT_EQ(g.cur.proc, w.cur.proc) << at;
        EXPECT_EQ(g.cur.type, w.cur.type) << at;
        EXPECT_EQ(g.cur.ltime, w.cur.ltime) << at;
    }
}

} // namespace

TEST(RaceCheckFuzz, RandomStreamsMatchReference)
{
    int pageSpans = 0;
    int outside = 0;
    int promotions = 0;
    int collapses = 0;
    int reused = 0;
    int racy = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        RaceConfig cfg = seed % 3 == 0 ? lineCfg(0, 8 << (seed % 5))
                                       : wordCfg(0);
        cfg.nprocs = 2 + static_cast<int>(seed % 7);
        cfg.maxReports = seed % 2 ? 32 : 1 << 20;
        std::vector<Event> evs;
        const StreamShape shape = randomStream(cfg, seed, 6000, &evs);
        RaceChecker rc(cfg);
        RefChecker ref(cfg);
        if (seed % 4 == 1) {
            const RaceFault k = static_cast<RaceFault>(seed % 3);
            rc.dropEdge(k, seed % 5);
            ref.dropEdge(k, seed % 5);
        }
        feed(rc, evs);
        feed(ref, evs);
        const std::string ctx = "seed " + std::to_string(seed);
        expectSameOutcome(rc.outcome(), ref.outcome(), ctx);
        EXPECT_EQ(rc.dropFired(), ref.fired()) << ctx;
        EXPECT_EQ(rc.droppedProc(), ref.droppedProc()) << ctx;
        pageSpans += shape.pageSpans;
        outside += shape.outsideArena;
        promotions += ref.promotions;
        collapses += ref.collapses;
        reused += ref.promotions > ref.peakShared;
        racy += !ref.outcome().clean();
    }
    // The streams exercised what the shadow layout must get right.
    EXPECT_GT(pageSpans, 0);
    EXPECT_GT(outside, 0);
    EXPECT_GT(promotions, 0);
    EXPECT_GT(collapses, 0);
    EXPECT_GT(reused, 0);  // a freed read-VC pool entry was reused
    EXPECT_GT(racy, 0);
}

TEST(RaceCheckFuzz, DroppedEdgesMatchReference)
{
    int racyDrops[kNumRaceFaults] = {0, 0, 0};
    for (std::uint64_t seed = 1; seed <= 18; ++seed) {
        for (RaceGranularity gran :
             {RaceGranularity::Word, RaceGranularity::Line}) {
            RaceConfig cfg = gran == RaceGranularity::Word
                                 ? wordCfg(2 + int(seed % 5))
                                 : lineCfg(2 + int(seed % 5), 64);
            const std::vector<Event> evs = phasedStream(cfg, seed, 8);
            const std::string ctx = "seed " + std::to_string(seed) +
                                    " " + raceGranularityName(gran);

            RaceChecker base(cfg);
            RefChecker baseRef(cfg);
            feed(base, evs);
            feed(baseRef, evs);
            expectSameOutcome(base.outcome(), baseRef.outcome(),
                              ctx + " no drop");
            if (gran == RaceGranularity::Word) {
                EXPECT_TRUE(base.outcome().clean()) << ctx;
            }
            EXPECT_GT(baseRef.promotions, 0) << ctx;
            EXPECT_GT(baseRef.collapses, 0) << ctx;

            const RaceFault k = static_cast<RaceFault>(seed % 3);
            const std::uint64_t at = seed % base.edgeCount(k);
            RaceChecker rc(cfg);
            RefChecker ref(cfg);
            rc.dropEdge(k, at);
            ref.dropEdge(k, at);
            feed(rc, evs);
            feed(ref, evs);
            expectSameOutcome(rc.outcome(), ref.outcome(),
                              ctx + " drop " + raceFaultName(k));
            EXPECT_TRUE(rc.dropFired()) << ctx;
            EXPECT_EQ(rc.droppedProc(), ref.droppedProc()) << ctx;
            if (gran == RaceGranularity::Word)
                racyDrops[static_cast<int>(k)] += !rc.outcome().clean();
        }
    }
    // Each kind of dropped edge surfaced as a race in some stream.
    for (int k = 0; k < kNumRaceFaults; ++k)
        EXPECT_GT(racyDrops[k], 0)
            << raceFaultName(static_cast<RaceFault>(k));
}

// ---------------------------------------------------------------------
// Real programs
// ---------------------------------------------------------------------

namespace {

AppConfig
smallCfg()
{
    AppConfig cfg;
    cfg.scale = 0.25;
    return cfg;
}

/** Injection on a real program, mirroring splash2run --race-inject:
 *  baseline must be clean, and for every fault kind selected in the
 *  @p kinds bitmask (bit = RaceFault value) a dropped edge must be
 *  reported as a race involving the dropped processor.  Kinds whose
 *  edges are all individually redundant in this program -- radix
 *  brackets each pass with back-to-back barriers, so either one alone
 *  orders the cross-pass accesses -- are excluded by the caller. */
void
expectInjectedRacesCaught(const char* appName, int procs,
                          unsigned kinds, bool* exercised)
{
    App* app = findApp(appName);
    ASSERT_NE(app, nullptr) << appName;
    AppConfig cfg = smallCfg();
    SimOpts so;

    std::uint64_t edges[kNumRaceFaults] = {};
    {
        RaceChecker base(wordCfg(procs));
        RunStats r = runPram(*app, procs, cfg, so, &base);
        ASSERT_TRUE(r.valid) << appName;
        ASSERT_TRUE(base.outcome().clean())
            << appName << " baseline:\n"
            << base.summary();
        for (int k = 0; k < kNumRaceFaults; ++k)
            edges[k] = base.edgeCount(static_cast<RaceFault>(k));
    }

    // Not every occurrence of an edge is load-bearing: a lock's first
    // acquire after the phase barrier is ordered by that barrier
    // anyway, and a final barrier departure orders no later access.
    // Benign occurrences cluster, so attempts stride across the whole
    // occurrence space from a seeded origin until a dropped edge is
    // exposed as a race attributed to the dropped processor.
    constexpr std::uint64_t kMaxAttempts = 16;
    for (int k = 0; k < kNumRaceFaults; ++k) {
        if (edges[k] == 0 || !(kinds & (1u << k)))
            continue;
        for (std::uint64_t seed : {1ull, 12345ull, 987654321ull}) {
            bool caught = false;
            const std::uint64_t tries = std::min(kMaxAttempts, edges[k]);
            const std::uint64_t stride =
                std::max<std::uint64_t>(1, edges[k] / tries);
            for (std::uint64_t t = 0; t < tries && !caught; ++t) {
                RaceChecker chk(wordCfg(procs));
                chk.dropEdge(static_cast<RaceFault>(k),
                             (seed + t * stride) % edges[k]);
                runPram(*app, procs, cfg, so, &chk);
                EXPECT_TRUE(chk.dropFired())
                    << appName << " " << raceFaultName(RaceFault(k))
                    << " seed " << seed << " attempt " << t;
                if (!chk.dropFired())
                    break;
                RaceOutcome o = chk.outcome();
                if (o.clean())
                    continue;  // benign drop; try the next occurrence
                for (const RaceReport& rep : o.reports)
                    caught = caught ||
                             rep.prev.proc == chk.droppedProc() ||
                             rep.cur.proc == chk.droppedProc();
            }
            EXPECT_TRUE(caught)
                << appName << " " << raceFaultName(RaceFault(k))
                << " seed " << seed << ": none of " << tries
                << " dropped occurrences exposed an attributed race";
            if (caught)
                exercised[k] = true;
        }
    }
}

} // namespace

TEST(RaceCheckApps, InjectedRacesDetectedAcrossSeeds)
{
    // Water-Sp covers locks, Radix covers flags, FFT covers barriers;
    // together every fault kind must be exercised.  Radix's barriers
    // are deliberately not injected: each pass is bracketed by
    // back-to-back barriers (permute, barrier, swap, barrier), so
    // every single departure edge is individually redundant and no
    // drop can expose a race -- which the CLI harness reports as
    // benign, not as a miss.
    bool exercised[kNumRaceFaults] = {false, false, false};
    const unsigned lock = 1u << int(RaceFault::DropLockAcquire);
    const unsigned barrier = 1u << int(RaceFault::DropBarrierEdge);
    const unsigned flag = 1u << int(RaceFault::DropFlagWait);
    expectInjectedRacesCaught("water-sp", 4, lock, exercised);
    expectInjectedRacesCaught("radix", 4, flag, exercised);
    expectInjectedRacesCaught("fft", 4, barrier, exercised);
    for (int k = 0; k < kNumRaceFaults; ++k)
        EXPECT_TRUE(exercised[k])
            << raceFaultName(static_cast<RaceFault>(k))
            << " never had an eligible edge";
}

TEST(RaceCheckApps, SuiteIsRaceFreeAtWordGranularityAndCensusAgrees)
{
    // The verification result (CI re-runs it at 8 processors through
    // splash2run --race word), plus the golden cross-check: the
    // detector's sync census must agree exactly with the runtime's
    // Figure-2 wait counters -- two independent paths from the same
    // primitives.
    const int procs = 4;
    SimOpts so;
    so.race = RaceGranularity::Word;
    for (App* app : suite()) {
        RunStats r = runPram(*app, procs, smallCfg(), so);
        ASSERT_TRUE(r.valid) << app->name();
        ASSERT_TRUE(r.raceChecked) << app->name();
        EXPECT_TRUE(r.race.clean())
            << app->name() << ":\n"
            << raceSummary(r.race);
        std::uint64_t barriers = 0, locks = 0, pauses = 0;
        for (const rt::ProcStats& p : r.perProc) {
            barriers += p.barriers;
            locks += p.locks;
            pauses += p.pauses;
        }
        EXPECT_EQ(r.race.census.barrierArrivals, barriers)
            << app->name();
        EXPECT_EQ(r.race.census.lockAcquires, locks) << app->name();
        EXPECT_EQ(r.race.census.flagWaits, pauses) << app->name();
        EXPECT_EQ(r.race.census.lockReleases, locks) << app->name();
    }
}

TEST(RaceCheckApps, FftSyncCensusPinned)
{
    // Golden counts for one app at a fixed operating point: FFT at 4
    // processors does only barriers (no locks, no flags), and every
    // processor crosses each of the program's barriers.
    const int procs = 4;
    SimOpts so;
    so.race = RaceGranularity::Word;
    App* fft = findApp("fft");
    ASSERT_NE(fft, nullptr);
    RunStats r = runPram(*fft, procs, smallCfg(), so);
    ASSERT_TRUE(r.valid);
    const SyncCensus& c = r.race.census;
    EXPECT_EQ(c.lockAcquires, 0u);
    EXPECT_EQ(c.flagWaits, 0u);
    EXPECT_EQ(c.flagSets, 0u);
    ASSERT_FALSE(r.perProc.empty());
    const std::uint64_t perProc = r.perProc[0].barriers;
    EXPECT_GT(perProc, 0u);
    for (const rt::ProcStats& p : r.perProc)
        EXPECT_EQ(p.barriers, perProc);  // SPMD: same barrier count
    EXPECT_EQ(c.barrierArrivals, perProc * procs);
    EXPECT_EQ(c.barrierDepartures, c.barrierArrivals);
}

TEST(RaceCheckApps, CharacterizationStatsUnchangedByRaceChecking)
{
    // --race is observation only: every execution and memory-system
    // statistic must be byte-identical with the detector attached.
    const int procs = 4;
    App* app = findApp("lu");
    ASSERT_NE(app, nullptr);
    CacheConfig cache;

    SimOpts off;
    RunStats a =
        runExperiment(*app, procs, {.cache = cache}, smallCfg(), off);
    SimOpts word;
    word.race = RaceGranularity::Word;
    RunStats b =
        runExperiment(*app, procs, {.cache = cache}, smallCfg(), word);

    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    EXPECT_TRUE(b.raceChecked);
    EXPECT_FALSE(a.raceChecked);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(0, std::memcmp(&a.mem, &b.mem, sizeof(a.mem)));
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (std::size_t p = 0; p < a.perProc.size(); ++p)
        EXPECT_EQ(0, std::memcmp(&a.perProc[p], &b.perProc[p],
                                 sizeof(rt::ProcStats)))
            << "P" << p;
    ASSERT_EQ(a.memPerProc.size(), b.memPerProc.size());
    for (std::size_t p = 0; p < a.memPerProc.size(); ++p)
        EXPECT_EQ(0, std::memcmp(&a.memPerProc[p], &b.memPerProc[p],
                                 sizeof(MemStats)))
            << "P" << p;
}

namespace {

void
expectSameOutcome(const RaceOutcome& a, const RaceOutcome& b,
                  const char* what)
{
    EXPECT_EQ(a.gran, b.gran) << what;
    EXPECT_EQ(a.granuleBytes, b.granuleBytes) << what;
    EXPECT_EQ(a.races, b.races) << what;
    EXPECT_EQ(a.racyGranules, b.racyGranules) << what;
    EXPECT_EQ(a.dynamicRaces, b.dynamicRaces) << what;
    EXPECT_EQ(a.granulesTracked, b.granulesTracked) << what;
    EXPECT_EQ(a.census.barrierArrivals, b.census.barrierArrivals)
        << what;
    EXPECT_EQ(a.census.barrierDepartures, b.census.barrierDepartures)
        << what;
    EXPECT_EQ(a.census.lockAcquires, b.census.lockAcquires) << what;
    EXPECT_EQ(a.census.lockReleases, b.census.lockReleases) << what;
    EXPECT_EQ(a.census.flagSets, b.census.flagSets) << what;
    EXPECT_EQ(a.census.flagWaits, b.census.flagWaits) << what;
}

} // namespace

TEST(RaceCheckApps, BroadcastRaceReplicasMatchDedicatedRuns)
{
    // The race replica rides the broadcast replay: its outcome must be
    // identical to the dedicated-execution (Replicas::Off) path, for
    // both granularities, across line sizes that share a replica
    // (word) and ones that cannot (line).
    const int procs = 4;
    App* app = findApp("radix");  // barriers + flags in one program
    ASSERT_NE(app, nullptr);
    std::vector<MemExperiment> exps(2);
    exps[0].cache.lineSize = 64;
    exps[1].cache.lineSize = 32;

    for (RaceGranularity g :
         {RaceGranularity::Word, RaceGranularity::Line}) {
        SimOpts off;
        off.race = g;
        off.replicas = Replicas::Off;
        auto serial =
            runCharacterizations(*app, procs, exps, smallCfg(), off);

        auto inlined = broadcastCharacterizations(
            *app, procs, exps, smallCfg(), off, /*threaded=*/false);
        auto threaded = broadcastCharacterizations(
            *app, procs, exps, smallCfg(), off, /*threaded=*/true);

        ASSERT_EQ(serial.size(), 2u);
        ASSERT_EQ(inlined.size(), 2u);
        ASSERT_EQ(threaded.size(), 2u);
        for (int i = 0; i < 2; ++i) {
            ASSERT_TRUE(serial[i].raceChecked);
            ASSERT_TRUE(inlined[i].raceChecked);
            ASSERT_TRUE(threaded[i].raceChecked);
            expectSameOutcome(serial[i].race, inlined[i].race,
                              g == RaceGranularity::Word ? "word/inline"
                                                         : "line/inline");
            expectSameOutcome(serial[i].race, threaded[i].race,
                              g == RaceGranularity::Word
                                  ? "word/threads"
                                  : "line/threads");
            EXPECT_EQ(0, std::memcmp(&serial[i].mem, &inlined[i].mem,
                                     sizeof(MemStats)));
            EXPECT_EQ(0, std::memcmp(&serial[i].mem, &threaded[i].mem,
                                     sizeof(MemStats)));
        }
        // Word granularity is line-size independent: both experiments
        // must agree with each other too.
        if (g == RaceGranularity::Word)
            expectSameOutcome(serial[0].race, serial[1].race,
                              "word across line sizes");
    }
}
