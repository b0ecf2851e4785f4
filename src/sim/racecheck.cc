#include "sim/racecheck.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "base/log.h"

namespace splash::sim {

// --------------------------------------------------------------------
// Names
// --------------------------------------------------------------------

const char*
raceGranularityName(RaceGranularity g)
{
    switch (g) {
    case RaceGranularity::Off: return "off";
    case RaceGranularity::Word: return "word";
    case RaceGranularity::Line: return "line";
    }
    return "?";
}

bool
parseRaceGranularity(const std::string& s, RaceGranularity* out)
{
    if (s == "off") {
        *out = RaceGranularity::Off;
        return true;
    }
    if (s == "word") {
        *out = RaceGranularity::Word;
        return true;
    }
    if (s == "line") {
        *out = RaceGranularity::Line;
        return true;
    }
    return false;
}

const char*
raceFaultName(RaceFault k)
{
    switch (k) {
    case RaceFault::DropLockAcquire: return "drop-lock-acquire";
    case RaceFault::DropBarrierEdge: return "drop-barrier-edge";
    case RaceFault::DropFlagWait: return "drop-flag-wait";
    case RaceFault::NumKinds: break;
    }
    return "?";
}

bool
parseRaceFault(const std::string& s, RaceFault* out)
{
    for (int i = 0; i < kNumRaceFaults; ++i) {
        RaceFault k = static_cast<RaceFault>(i);
        if (s == raceFaultName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Internal state
// --------------------------------------------------------------------

namespace {

/** An epoch packs (proc, clock) into one word; 0 means "no access".
 *  The +1 bias keeps epochs nonzero even at clock 0, though clocks
 *  start at 1 anyway (a fresh processor must race with nothing). */
inline std::uint64_t
makeEpoch(int proc, std::uint32_t clk)
{
    return (std::uint64_t(proc + 1) << 32) | clk;
}

inline int
epochProc(std::uint64_t e)
{
    return static_cast<int>(e >> 32) - 1;
}

inline std::uint32_t
epochClk(std::uint64_t e)
{
    return static_cast<std::uint32_t>(e);
}

/** Which drop kind an acquire edge of @p prim is eligible for. */
inline RaceFault
acquireFaultKind(SyncPrim prim)
{
    switch (prim) {
    case SyncPrim::Lock: return RaceFault::DropLockAcquire;
    case SyncPrim::Barrier: return RaceFault::DropBarrierEdge;
    case SyncPrim::Flag: return RaceFault::DropFlagWait;
    }
    return RaceFault::DropLockAcquire;
}

/** Granules per shadow page (log2). */
constexpr int kPageBits = 10;
constexpr Addr kPageMask = (Addr(1) << kPageBits) - 1;

/** Bit 63 of a cell's `r`: the rest is a read-VC pool index.  No
 *  epoch sets it (the processor field is at most kMaxProcs). */
constexpr std::uint64_t kReadVC = std::uint64_t(1) << 63;

} // namespace

/** Shadow state of one granule.  `w` is the last-write epoch.  Reads
 *  are an epoch in `r` until two concurrent reads force promotion to
 *  a read vector clock (`r` = kReadVC | pool index); the VC collapses
 *  back at the next ordered write.  All zero = never accessed. */
struct RaceChecker::Cell
{
    std::uint64_t w;
    std::uint64_t r;
    Tick wLt;  ///< ltime of the last write (reporting)
    Tick rLt;  ///< ltime of the epoch read (reporting)
};

// --------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------

RaceChecker::RaceChecker(const RaceConfig& cfg) : cfg_(cfg)
{
    ensure(cfg_.gran != RaceGranularity::Off,
           "RaceChecker constructed with granularity off");
    ensure(cfg_.nprocs >= 1 && cfg_.nprocs <= kMaxProcs,
           "RaceChecker processor count out of range");
    if (cfg_.gran == RaceGranularity::Word) {
        shift_ = 2;
        granBytes_ = 4;
    } else {
        ensure(cfg_.lineSize >= 4 && isPow2(cfg_.lineSize),
               "race line size must be a power of two >= 4");
        shift_ = log2i(static_cast<std::uint64_t>(cfg_.lineSize));
        granBytes_ = cfg_.lineSize;
    }
    // C_p starts at {p -> 1}: a processor's first epoch must be
    // unknown to every other processor's clock (which starts at 0).
    procVC_.assign(std::size_t(cfg_.nprocs) * cfg_.nprocs, 0);
    for (int p = 0; p < cfg_.nprocs; ++p)
        procVC_[std::size_t(p) * cfg_.nprocs + p] = 1;
}

RaceChecker::~RaceChecker() = default;

// --------------------------------------------------------------------
// Shadow memory
// --------------------------------------------------------------------

/** The cell of @p granule.  Its page is created zeroed on first use;
 *  the map is consulted only when the page differs from the last. */
inline RaceChecker::Cell&
RaceChecker::cell(Addr granule)
{
    const Addr index = granule >> kPageBits;
    if (index != lastIndex_) {
        std::unique_ptr<Cell[]>& p = pages_[index];
        if (p == nullptr)
            p = std::make_unique<Cell[]>(std::size_t(1) << kPageBits);
        lastPage_ = p.get();
        lastIndex_ = index;
    }
    return lastPage_[granule & kPageMask];
}

std::vector<std::uint32_t>&
RaceChecker::objClock(std::uint32_t obj)
{
    if (obj >= objVC_.size())
        objVC_.resize(obj + 1);
    std::vector<std::uint32_t>& L = objVC_[obj];
    if (L.empty())
        L.assign(cfg_.nprocs, 0);
    return L;
}

// --------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------

void
RaceChecker::report(Addr g, const RaceAccess& prev, const AccessRec& cur)
{
    ++dynamicRaces_;
    int a = prev.proc;
    int b = cur.proc;
    if (a > b)
        std::swap(a, b);
    // Sim addresses sit just above 2^32 (SharedHeap::kSimBase), so
    // granule indices fit far below 2^52 and the packed key is unique.
    const std::uint64_t key = (std::uint64_t(g) << 12) |
                              (std::uint64_t(a) << 6) |
                              std::uint64_t(b);
    const bool fresh = pairKeys_.insert(key).second;
    racyGranules_.insert(g);
    if (fresh && reports_.size() <
                     static_cast<std::size_t>(cfg_.maxReports)) {
        RaceReport rep;
        rep.granule = g << shift_;
        rep.bytes = granBytes_;
        rep.prev = prev;
        rep.cur.proc = cur.proc;
        rep.cur.type = cur.type;
        rep.cur.ltime = cur.ltime;
        reports_.push_back(rep);
    }
}

// --------------------------------------------------------------------
// FastTrack core
// --------------------------------------------------------------------

void
RaceChecker::checkGranule(Addr g, const AccessRec& rec)
{
    Cell& v = cell(g);
    if ((v.w | v.r) == 0)
        ++tracked_;  // every access leaves w or r nonzero
    const int t = rec.proc;
    const int n = cfg_.nprocs;
    const std::uint32_t* C = &procVC_[std::size_t(t) * n];
    const std::uint64_t myEpoch = makeEpoch(t, C[t]);

    if (rec.type == AccessType::Read) {
        // Same-epoch read: nothing new since our last read here.
        if (v.r == myEpoch) {
            v.rLt = rec.ltime;
            return;
        }
        // Write-read conflict?
        if (v.w != 0) {
            const int wp = epochProc(v.w);
            if (wp != t && epochClk(v.w) > C[wp])
                report(g,
                       {static_cast<std::int16_t>(wp), AccessType::Write,
                        v.wLt},
                       rec);
        }
        if ((v.r & kReadVC) != 0) {
            // Read-shared: just our slot in the read VC.
            const std::size_t at = (v.r & ~kReadVC) * n + t;
            readClk_[at] = C[t];
            readLt_[at] = rec.ltime;
        } else if (v.r == 0 || epochProc(v.r) == t ||
                   epochClk(v.r) <= C[epochProc(v.r)]) {
            // No previous read, or it happens-before us: stay an epoch.
            v.r = myEpoch;
            v.rLt = rec.ltime;
        } else {
            // Two concurrent readers: promote to a read vector clock.
            std::size_t idx = readClk_.size() / n;
            if (!readFree_.empty()) {
                idx = readFree_.back();
                readFree_.pop_back();
                std::fill_n(&readClk_[idx * n], n, 0u);
                std::fill_n(&readLt_[idx * n], n, Tick(0));
            } else {
                readClk_.resize(readClk_.size() + n);
                readLt_.resize(readLt_.size() + n);
            }
            std::uint32_t* clk = &readClk_[idx * n];
            Tick* lt = &readLt_[idx * n];
            const int rp = epochProc(v.r);
            clk[rp] = epochClk(v.r);
            lt[rp] = v.rLt;
            clk[t] = C[t];
            lt[t] = rec.ltime;
            v.r = kReadVC | idx;
        }
        return;
    }

    // Write.
    if (v.w == myEpoch) {
        v.wLt = rec.ltime;
        return;
    }
    if (v.w != 0) {
        const int wp = epochProc(v.w);
        if (wp != t && epochClk(v.w) > C[wp])
            report(g,
                   {static_cast<std::int16_t>(wp), AccessType::Write,
                    v.wLt},
                   rec);
    }
    if ((v.r & kReadVC) != 0) {
        const std::size_t idx = v.r & ~kReadVC;
        const std::uint32_t* clk = &readClk_[idx * n];
        for (int q = 0; q < n; ++q) {
            if (q != t && clk[q] > C[q])
                report(g,
                       {static_cast<std::int16_t>(q), AccessType::Read,
                        readLt_[idx * n + q]},
                       rec);
        }
        readFree_.push_back(idx);
    } else if (v.r != 0) {
        const int rp = epochProc(v.r);
        if (rp != t && epochClk(v.r) > C[rp])
            report(g,
                   {static_cast<std::int16_t>(rp), AccessType::Read,
                    v.rLt},
                   rec);
    }
    // Update as if ordered, so one missing edge does not cascade into
    // a report per subsequent access (the pair-key dedup would absorb
    // them, but the dynamic count stays meaningful this way).
    v.w = myEpoch;
    v.wLt = rec.ltime;
    v.r = 0;
    v.rLt = 0;
}

void
RaceChecker::access(const AccessRec& r)
{
    if ((r.flags & AccessRec::kAtomic) != 0)
        return;  // annotated lock-free access; see file comment
    if (r.size <= 0)
        return;
    ensure(r.proc >= 0 && r.proc < cfg_.nprocs,
           "access from a processor outside the checker's range");
    const Addr first = r.addr >> shift_;
    const Addr last = (r.addr + Addr(r.size) - 1) >> shift_;
    for (Addr g = first; g <= last; ++g)
        checkGranule(g, r);
}

void
RaceChecker::sync(const SyncRec& r)
{
    ensure(r.proc >= 0 && r.proc < cfg_.nprocs,
           "sync edge from a processor outside the checker's range");
    const int t = r.proc;
    const int n = cfg_.nprocs;
    std::uint32_t* C = &procVC_[std::size_t(t) * n];
    std::vector<std::uint32_t>& L = objClock(r.obj);

    if (r.op == SyncOp::Release) {
        switch (r.prim) {
        case SyncPrim::Barrier: ++census_.barrierArrivals; break;
        case SyncPrim::Lock: ++census_.lockReleases; break;
        case SyncPrim::Flag: ++census_.flagSets; break;
        }
        // Join, not copy: a barrier object must accumulate *all*
        // arrivals before any departure acquires from it.
        for (int q = 0; q < n; ++q)
            L[q] = std::max(L[q], C[q]);
        ++C[t];  // own next epoch is unordered with this release
        return;
    }

    switch (r.prim) {
    case SyncPrim::Barrier: ++census_.barrierDepartures; break;
    case SyncPrim::Lock: ++census_.lockAcquires; break;
    case SyncPrim::Flag: ++census_.flagWaits; break;
    }
    const RaceFault kind = acquireFaultKind(r.prim);
    const std::uint64_t idx = edgeEver_[static_cast<int>(kind)]++;
    if (dropArmed_ && !dropFired_ && kind == dropKind_ && idx == dropAt_) {
        // Injected elision: the processor proceeds without the order
        // this edge would have given it.
        dropFired_ = true;
        droppedProc_ = t;
        return;
    }
    for (int q = 0; q < n; ++q)
        C[q] = std::max(C[q], L[q]);
}

void
RaceChecker::resetStats()
{
    // Keep clocks and shadow state: pre-window accesses still order
    // against (and can still race with) in-window ones.  Only the
    // tallies restart, mirroring MemSystem::resetStats.
    census_ = SyncCensus{};
    dynamicRaces_ = 0;
    reports_.clear();
    pairKeys_.clear();
    racyGranules_.clear();
}

// --------------------------------------------------------------------
// Injection
// --------------------------------------------------------------------

void
RaceChecker::dropEdge(RaceFault k, std::uint64_t occurrence)
{
    ensure(!dropArmed_, "RaceChecker supports one armed drop");
    dropArmed_ = true;
    dropKind_ = k;
    dropAt_ = occurrence;
}

std::uint64_t
RaceChecker::edgeCount(RaceFault k) const
{
    return edgeEver_[static_cast<int>(k)];
}

// --------------------------------------------------------------------
// Results
// --------------------------------------------------------------------

RaceOutcome
RaceChecker::outcome() const
{
    RaceOutcome o;
    o.gran = cfg_.gran;
    o.granuleBytes = granBytes_;
    o.races = pairKeys_.size();
    o.racyGranules = racyGranules_.size();
    o.dynamicRaces = dynamicRaces_;
    o.granulesTracked = tracked_;
    o.census = census_;
    o.reports = reports_;
    return o;
}

std::string
raceSummary(const RaceOutcome& o)
{
    char buf[256];
    std::string s;
    std::snprintf(buf, sizeof(buf),
                  "race check (%s, %d-byte granules): %" PRIu64
                  " conflict pair(s) on %" PRIu64 " granule(s), %" PRIu64
                  " dynamic conflict(s), %" PRIu64 " granules tracked\n",
                  raceGranularityName(o.gran), o.granuleBytes, o.races,
                  o.racyGranules, o.dynamicRaces, o.granulesTracked);
    s += buf;
    std::snprintf(buf, sizeof(buf),
                  "  sync edges: %" PRIu64 " barrier arrivals / %" PRIu64
                  " departures, %" PRIu64 " lock acquires / %" PRIu64
                  " releases, %" PRIu64 " flag sets / %" PRIu64
                  " waits\n",
                  o.census.barrierArrivals, o.census.barrierDepartures,
                  o.census.lockAcquires, o.census.lockReleases,
                  o.census.flagSets, o.census.flagWaits);
    s += buf;
    for (const RaceReport& r : o.reports) {
        std::snprintf(buf, sizeof(buf),
                      "  %s 0x%" PRIxPTR " [%d B]: P%d %s @t=%" PRIu64
                      " vs P%d %s @t=%" PRIu64 "\n",
                      o.gran == RaceGranularity::Line ? "line" : "word",
                      r.granule, r.bytes, r.prev.proc,
                      r.prev.type == AccessType::Write ? "write"
                                                       : "read",
                      r.prev.ltime, r.cur.proc,
                      r.cur.type == AccessType::Write ? "write"
                                                      : "read",
                      r.cur.ltime);
        s += buf;
    }
    if (o.reports.size() < o.races) {
        std::snprintf(buf, sizeof(buf),
                      "  ... %" PRIu64 " more conflict pair(s) not "
                      "shown\n",
                      o.races - o.reports.size());
        s += buf;
    }
    return s;
}

std::string
RaceChecker::summary() const
{
    return raceSummary(outcome());
}

} // namespace splash::sim
