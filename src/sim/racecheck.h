/**
 * @file
 * Happens-before data-race detection over the reference stream.
 *
 * The paper's methodology assumes the SPLASH-2 programs are properly
 * synchronized by the PARMACS primitives, and its false-sharing
 * discussion (Figs. 8-9) rests on distinguishing true sharing from
 * line-granularity artifacts.  RaceChecker verifies both claims
 * mechanically: it consumes the reference stream *and* the
 * synchronization edges the runtime primitives emit (rt/sync.h ->
 * Env::syncEvent -> RefSink::sync), reconstructs the happens-before
 * partial order, and reports every pair of conflicting accesses that
 * the order does not relate.
 *
 * Crucially, the happens-before order is built from program order and
 * sync edges ONLY -- not from the scheduler's interleaving.  The
 * deterministic PRAM scheduler serializes everything, so "A ran before
 * B" never implies "A is ordered with B"; two accesses are ordered iff
 * a chain of barrier / lock / flag edges connects them.  A missing
 * edge is therefore a genuine synchronization bug in the app, exactly
 * what a real machine with a weaker scheduler would expose.
 *
 * Algorithm: FastTrack (Flanagan & Freund, PLDI 2009).  Full vector
 * clocks C_p per processor and L_m per sync object, but *epochs* --
 * one (proc, clock) pair packed in 64 bits -- for the per-granule
 * shadow state.  Writes are totally ordered in a race-free program,
 * so the last-write epoch suffices; reads adaptively promote from an
 * epoch to a read vector clock only while concurrent reads exist
 * (the read-shared case), and collapse back to an epoch at the next
 * ordered write.  The common same-epoch case is one load + compare.
 *
 * Shadow layout: paged shadow memory, as in TSan and Valgrind.  A page
 * holds 2^10 consecutive granules as a dense array of 32-byte cells
 * {w, r, wLt, rLt}: the last-write and read epochs and the logical
 * times reports cite.  A hash map keyed by page index finds the page,
 * and the page of the last lookup is cached, so the next granule of
 * an 8-byte access or a streamed array costs one compare and usually
 * shares the cache line.  A read-shared granule's read vector clock
 * lives in a recycled pool; its cell's r holds kReadVC | pool index,
 * with bit 63 set, which no epoch sets, so the same-epoch read test
 * stays `r == epoch`.
 *
 * Shadow granularity is the knob that turns the verifier into the
 * false-sharing census:
 *
 *  - Word (4 bytes): a conflict is two processors touching the *same
 *    word* unordered -- a true data race.  The suite must be (and is)
 *    race-free at this granularity; CI enforces it.
 *  - Line (the configured line size): a conflict only means two
 *    processors touch the same *line* unordered -- almost always
 *    false sharing.  The per-app conflict counts quantify the paper's
 *    Figs. 8-9 narrative (results/races.txt).
 *
 * Accesses flagged AccessRec::kAtomic (SharedArray::ldAtomic /
 * stAtomic -- annotated lock-free idioms such as the task queue's
 * unlocked emptiness peek) are excluded from race checking entirely,
 * mirroring how host-level atomics silence TSan.  This is slightly
 * more permissive than TSan (which still flags plain-vs-atomic
 * pairs): both sides of every such idiom in this codebase go through
 * the atomic accessors, and the exclusion is symmetric.
 *
 * Detection power is proven the same way the coherence checker's was
 * (sim/faultinject.h): a deterministic edge-drop injector removes one
 * seeded acquire edge -- a lock acquisition, a barrier departure, or
 * a flag wait -- and the tests require every drop to surface as a
 * reported race attributed to the right address and processor pair.
 */
#ifndef SPLASH2_SIM_RACECHECK_H
#define SPLASH2_SIM_RACECHECK_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/types.h"
#include "sim/trace.h"

namespace splash::sim {

/** Shadow-memory granularity of the detector. */
enum class RaceGranularity : std::uint8_t {
    Off,   ///< no checking
    Word,  ///< 4-byte granules: conflicts are true data races
    Line   ///< line-size granules: conflicts include false sharing
};

/** Stable CLI name ("off", "word", "line"). */
const char* raceGranularityName(RaceGranularity g);

/** Parse a CLI name; returns false if @p s names no granularity. */
bool parseRaceGranularity(const std::string& s, RaceGranularity* out);

struct RaceConfig
{
    RaceGranularity gran = RaceGranularity::Word;
    int nprocs = 1;
    /** Granule size for Line mode (power of two). */
    int lineSize = 64;
    /** Detailed reports retained; counting never stops. */
    int maxReports = 32;
};

/** One side of a reported race. */
struct RaceAccess
{
    std::int16_t proc = -1;
    AccessType type = AccessType::Read;
    Tick ltime = 0;  ///< issuing processor's logical clock
};

/** An unordered conflicting pair on one shadow granule. */
struct RaceReport
{
    Addr granule = 0;  ///< first byte of the granule
    int bytes = 0;     ///< granule size
    RaceAccess prev;   ///< earlier access (from shadow state)
    RaceAccess cur;    ///< access that exposed the conflict
};

/** Synchronization edges seen by the detector, by primitive and
 *  direction.  Cross-checkable against the runtime's Figure-2 wait
 *  counters: barrierArrivals == sum of ProcStats::barriers,
 *  lockAcquires == sum of ::locks, flagWaits == sum of ::pauses. */
struct SyncCensus
{
    std::uint64_t barrierArrivals = 0;    ///< barrier Release edges
    std::uint64_t barrierDepartures = 0;  ///< barrier Acquire edges
    std::uint64_t lockAcquires = 0;
    std::uint64_t lockReleases = 0;
    std::uint64_t flagSets = 0;   ///< flag Release edges
    std::uint64_t flagWaits = 0;  ///< flag Acquire edges

    std::uint64_t
    total() const
    {
        return barrierArrivals + barrierDepartures + lockAcquires +
               lockReleases + flagSets + flagWaits;
    }
};

/** Injectable synchronization-elision faults: each drops one seeded
 *  *acquire* edge, so the affected processor misses the order the
 *  edge would have given it -- exactly the bug class (a forgotten
 *  LOCK, a skipped BARRIER, an elided PAUSE) the detector exists to
 *  catch. */
enum class RaceFault : int {
    DropLockAcquire = 0,  ///< critical section entered without the lock
    DropBarrierEdge,      ///< one processor skips a barrier departure
    DropFlagWait,         ///< consumer proceeds without the flag
    NumKinds
};

constexpr int kNumRaceFaults = static_cast<int>(RaceFault::NumKinds);

/** Stable CLI name (e.g. "drop-lock-acquire"). */
const char* raceFaultName(RaceFault k);

/** Parse a CLI name; returns false if @p s names no fault kind. */
bool parseRaceFault(const std::string& s, RaceFault* out);

/** Copyable summary of a finished (or in-progress) check. */
struct RaceOutcome
{
    RaceGranularity gran = RaceGranularity::Off;
    int granuleBytes = 0;
    /** Distinct (granule, processor pair) conflicts. */
    std::uint64_t races = 0;
    /** Distinct granules with at least one conflict. */
    std::uint64_t racyGranules = 0;
    /** Every dynamic conflicting access pair (unbounded count). */
    std::uint64_t dynamicRaces = 0;
    /** Granules with shadow state (footprint indicator). */
    std::uint64_t granulesTracked = 0;
    SyncCensus census;
    std::vector<RaceReport> reports;  ///< first maxReports conflicts

    bool clean() const { return races == 0; }
};

/** Multi-line human-readable summary of an outcome (splash2run
 *  report; RaceChecker::summary forwards here). */
std::string raceSummary(const RaceOutcome& o);

/** FastTrack happens-before detector; a RefSink, so it attaches
 *  anywhere a MemSystem replica does (Env::attachSink or a
 *  BroadcastReplay race replica). */
class RaceChecker final : public RefSink
{
  public:
    explicit RaceChecker(const RaceConfig& cfg);
    ~RaceChecker() override;

    RaceChecker(const RaceChecker&) = delete;
    RaceChecker& operator=(const RaceChecker&) = delete;

    void access(const AccessRec& r) override;
    void sync(const SyncRec& r) override;
    /** Measurement window: drop accumulated race counts and census,
     *  keep clocks and shadow state (pre-window accesses still order
     *  against in-window ones). */
    void resetStats() override;

    // ---- injection (tests / --race-inject) -------------------------

    /** Arm: silently drop the @p occurrence-th eligible acquire edge
     *  of kind @p k (0-based, counted from construction; the count is
     *  never reset).  One drop per checker. */
    void dropEdge(RaceFault k, std::uint64_t occurrence);

    /** Eligible edges of kind @p k seen since construction (never
     *  reset) -- run once to size the occurrence space, then re-run
     *  with occurrence = seed % edgeCount(k). */
    std::uint64_t edgeCount(RaceFault k) const;

    bool dropFired() const { return dropFired_; }
    /** Processor whose acquire edge was dropped (-1 before firing).
     *  Attribution: every injected race must involve this processor. */
    int droppedProc() const { return droppedProc_; }

    // ---- results ---------------------------------------------------

    RaceOutcome outcome() const;
    const SyncCensus& census() const { return census_; }
    std::uint64_t races() const { return pairKeys_.size(); }
    /** Multi-line human-readable summary (splash2run report). */
    std::string summary() const;

  private:
    struct Cell;

    Cell& cell(Addr granule);
    std::vector<std::uint32_t>& objClock(std::uint32_t obj);
    void checkGranule(Addr g, const AccessRec& r);
    void report(Addr g, const RaceAccess& prev, const AccessRec& cur);

    RaceConfig cfg_;
    int shift_ = 2;        ///< log2(granule bytes)
    int granBytes_ = 4;

    /** Per-processor vector clocks C_p, flattened [p * nprocs + q]. */
    std::vector<std::uint32_t> procVC_;
    /** Per-sync-object clocks L_m, grown on first use. */
    std::vector<std::vector<std::uint32_t>> objVC_;

    /** Shadow pages of 2^10 cells by page index (granule >> 10);
     *  the page of the last lookup is cached.  No granule index is
     *  all ones, so the cache starts empty. */
    std::unordered_map<Addr, std::unique_ptr<Cell[]>> pages_;
    Addr lastIndex_ = ~Addr(0);
    Cell* lastPage_ = nullptr;
    /** Cells that have left the all-zero state. */
    std::uint64_t tracked_ = 0;

    /** Read vector-clock pool (read-shared granules only): entry i
     *  is the nprocs clocks at [i * nprocs] and the logical times
     *  reports cite beside them; a cell references an entry by
     *  index, freed ones are recycled. */
    std::vector<std::uint32_t> readClk_;
    std::vector<Tick> readLt_;
    std::vector<std::size_t> readFree_;

    // Results.
    SyncCensus census_;
    std::uint64_t dynamicRaces_ = 0;
    std::vector<RaceReport> reports_;
    std::unordered_set<std::uint64_t> pairKeys_;  ///< (granule, a, b)
    std::unordered_set<Addr> racyGranules_;

    // Injection.
    bool dropArmed_ = false;
    bool dropFired_ = false;
    RaceFault dropKind_ = RaceFault::DropLockAcquire;
    std::uint64_t dropAt_ = 0;
    int droppedProc_ = -1;
    std::uint64_t edgeEver_[kNumRaceFaults] = {0, 0, 0};
};

} // namespace splash::sim

#endif // SPLASH2_SIM_RACECHECK_H
