/**
 * @file
 * Single-pass multi-configuration cache sweep.
 *
 * Figure 3 of the paper needs miss rate as a function of cache size
 * (1 KB ... 1 MB) for 1/2/4-way and fully-associative caches -- 44
 * operating points per processor.  Simulating them one at a time would
 * require one execution per point, so this component simulates all of
 * them in a single pass over the reference stream:
 *
 *  - Finite associativity uses LRU inclusion (Mattson et al. 1970;
 *    Hill & Smith 1989): caches with the same number of sets see the
 *    same set index, and a w-way LRU set holds the w most recently
 *    used lines of that set.  So each processor keeps one MRU-ordered
 *    list per distinct set count (13 for the Figure-3 grid), as deep
 *    as the largest associativity at that set count, plus per set a
 *    prefix length l_w <= w for every smaller associativity w: the
 *    w-way cache holds exactly the first l_w entries.  A reference at
 *    list position d hits the w-way cache iff d < l_w; a miss sets
 *    l_w = min(l_w + 1, w); the line moves to the front.  One probe
 *    per set count answers every associativity at once.
 *  - Coherence: a line is *bumped* whenever a write must invalidate
 *    other copies (writer changed, or somebody else read since the
 *    last write).  Invalidations are independent of cache geometry,
 *    so they hit every configuration alike.  Each line keeps a mask
 *    of the processors that touched it since its last bump; a bump
 *    removes the line from those processors' lists (eagerly) and
 *    decrements every l_w greater than its position.  The hole it
 *    leaves is filled before any LRU eviction, which is exactly the
 *    "empty way, then invalidated way, then LRU" victim choice of a
 *    per-configuration tag array (the differential oracle in
 *    tests/sim/tag_array_sweep.h).
 *  - Fully-associative LRU caches of every size are captured at once
 *    with a Mattson stack-distance profile: a flat line table of last
 *    timestamps, a one-bit-per-timestamp bitmap and a Fenwick tree
 *    over its word counts, with periodic timestamp compaction; all of
 *    it adapts to the line count and stays cache resident.  A reuse
 *    whose processor lost its holder bit to a bump since its last
 *    touch is a coherence miss at every capacity.
 *
 * Upgrades (a processor writing a Shared line it still holds) are
 * hits, matching the full MemSystem's accounting.
 */
#ifndef SPLASH2_SIM_SWEEP_H
#define SPLASH2_SIM_SWEEP_H

#include <cstdint>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/grid.h"
#include "sim/trace.h"

namespace splash::sim {

/** Parameters of a sweep; the defaults are the Figure-3 grid
 *  (sim/grid.h). */
struct SweepConfig
{
    int nprocs = 32;
    int lineSize = 64;
    /** Cache capacities in bytes (powers of two). */
    std::vector<std::uint64_t> sizes = fig3Sizes();
    /** Finite associativities to simulate (full is always included). */
    std::vector<int> assocs = fig3Assocs();
};

/** Flat open-addressed map from line address to @p V: linear
 *  probing, load factor <= 1/2, Fibonacci hashing.  Entries are never
 *  removed, so a slot, once taken, keeps its line. */
template <class V>
class LineTable
{
  public:
    struct Slot
    {
        Addr key;
        V value;
    };
    /** Marks a free slot (lookup panics on it as a line address). */
    static constexpr Addr kFree = ~Addr{0};

    explicit LineTable(std::size_t slots)
        : slots_(slots, Slot{kFree, V{}}), hashShift_(64 - log2i(slots))
    {}

    /** The value of @p lineAddr; a value-initialized one is inserted
     *  when the line is new, which @p *inserted (if given) reports. */
    V&
    lookup(Addr lineAddr, bool* inserted = nullptr)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(lineAddr);; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (s.key == lineAddr) {
                if (inserted)
                    *inserted = false;
                return s.value;
            }
            if (s.key == kFree)
                break;
        }
        ensure(lineAddr != kFree,
               "line address equals the free-slot marker");
        if (2 * (used_ + 1) > slots_.size())
            grow();
        ++used_;
        if (inserted)
            *inserted = true;
        Slot& s = slots_[freeSlot(lineAddr)];
        s.key = lineAddr;
        return s.value;
    }

    std::size_t size() const { return used_; }
    /** Every slot, free ones (key kFree) included. */
    std::vector<Slot>& slots() { return slots_; }

  private:
    std::size_t
    home(Addr lineAddr) const
    {
        // The top bits of the product mix every bit of the
        // (line-aligned) address.
        return (lineAddr * 0x9e3779b97f4a7c15ull) >> hashShift_;
    }

    /** First free slot on @p lineAddr's probe sequence. */
    std::size_t
    freeSlot(Addr lineAddr) const
    {
        std::size_t i = home(lineAddr);
        while (slots_[i].key != kFree)
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size(), Slot{kFree, V{}});
        old.swap(slots_);
        --hashShift_;
        for (const Slot& s : old)
            if (s.key != kFree)
                slots_[freeSlot(s.key)] = s;
    }

    std::vector<Slot> slots_;
    int hashShift_;  ///< 64 - log2(slots_.size())
    std::size_t used_ = 0;
};

/** Sweep coherence: a line is *bumped* whenever a write must
 *  invalidate other copies (writer changed, or somebody else read
 *  since the last write), and a bump invalidates them at *every*
 *  cache geometry, because invalidations are independent of capacity
 *  and associativity.  The single piece of cross-configuration state
 *  of a sweep; shared by CacheSweep and the reuse-distance profiler
 *  (sim/reusedist.h) so the two can never drift.
 *
 *  A bump is a version change of the lazy version-stamp model (the
 *  test oracle in tests/sim/tag_array_sweep.h keeps the stamps), but
 *  no version is stored here: each line records which processors
 *  touched it since its last bump (the holder mask), so a bump can
 *  name the copies it invalidates, and a processor that touched the
 *  line before but is no longer a holder knows its copy is stale.
 *  Processors are therefore bounded by kMaxProcs.  Lines live in a
 *  flat LineTable. */
class VersionCoherence
{
  public:
    VersionCoherence();

    /** Advance the state of @p lineAddr for one access by processor
     *  @p p (0 <= p < kMaxProcs).  @p *held is set when p's holder bit
     *  was set before the access: p touched the line and no bump has
     *  invalidated its copy since.  Returns the mask of the *other*
     *  processors that touched the line since its previous bump --
     *  the holders of the copies this access invalidated -- or 0 when
     *  the access did not bump. */
    std::uint64_t advance(Addr lineAddr, ProcId p, bool isWrite,
                          bool* held);

  private:
    struct Line
    {
        std::uint64_t holders = 0;  ///< bit p: touched since last bump
        ProcId lastWriter = -1;
        bool readSince = false;
    };

    LineTable<Line> lines_;
};

/** Mattson LRU stack-distance core for one processor's line stream.
 *  Every line the processor touched keeps the timestamp of its last
 *  reference in a flat LineTable; a bitmap holds one bit per
 *  timestamp, set while it is some line's last reference, and a
 *  Fenwick tree over the bitmap's per-word counts answers prefix
 *  counts in O(log(words)).  The marks always number the lines, so a
 *  reuse's distance is one prefix query: lines - marks(<= lastTime).
 *  Timestamps are compacted (renumbered in order) when they reach the
 *  capacity, which then adapts to ~4x the line count; the bitmap and
 *  tree stay cache resident.  Consumers decide what to do with the
 *  distance: the exact sweep buckets it into a per-line histogram,
 *  the reuse-distance profiler into log2 bins. */
class StackDistance
{
  public:
    /** touch() outcomes that are not distances: kCold is a first
     *  touch, kStale a copy invalidated by coherence -- both miss at
     *  every capacity. */
    static constexpr std::uint64_t kCold = ~std::uint64_t{0};
    static constexpr std::uint64_t kStale = ~std::uint64_t{0} - 1;

    StackDistance();

    /** Reference @p line; @p held is VersionCoherence::advance's
     *  report for this access.  Returns kCold, kStale (touched before
     *  but not held: a bump invalidated the copy), or the LRU stack
     *  distance d in lines: d distinct lines were touched since the
     *  previous reference, so the line hits in a fully associative
     *  LRU cache of capacity >= d + 1 lines. */
    std::uint64_t touch(Addr line, bool held);

  private:
    void treeAdd(std::uint64_t word, int delta);
    /** Marks at timestamps <= @p t. */
    std::uint64_t prefix(std::uint64_t t) const;
    void compact();

    LineTable<std::uint64_t> lines_;  ///< line -> last timestamp
    std::vector<std::uint64_t> live_;  ///< bit t: some line's last use
    std::vector<std::uint32_t> tree_;  ///< Fenwick tree of word counts
    std::uint64_t timeCap_ = 0;        ///< timestamps in [0, timeCap_)
    std::uint64_t now_ = 0;            ///< next timestamp
};

class CacheSweep
{
  public:
    /** Rejects (fatal) a processor count outside [1, kMaxProcs], a
     *  line size or capacity that is not a power of two, and an
     *  associativity that is not a power of two in [1, kMaxWays]. */
    explicit CacheSweep(const SweepConfig& cfg);

    /** Largest associativity a finite configuration may use: prefix
     *  lengths are 16-bit fields. */
    static constexpr int kMaxWays = 1 << 15;

    /** Issue one reference from processor @p p. */
    void access(ProcId p, Addr addr, int size, AccessType type);

    const SweepConfig& config() const { return cfg_; }

    /** Total references issued (line-spanning references count once per
     *  line). */
    std::uint64_t accesses() const;

    /** Aggregate miss rate at capacity @p size bytes and associativity
     *  @p assoc (0 = fully associative). */
    double missRate(std::uint64_t size, int assoc) const;

    /** Aggregate misses at the given operating point. */
    std::uint64_t misses(std::uint64_t size, int assoc) const;

    /** Zero miss/access counters while keeping cache contents (for
     *  measuring past cold start). */
    void resetStats();

  private:
    /** All finite configurations sharing one set count.  Per set, a
     *  block of `stride` words: `lenWords` words packing one 16-bit
     *  prefix length per associativity (ways[k] -> field k; the last
     *  field, for the deepest associativity, is the list length),
     *  then `depth` line addresses in MRU order. */
    struct SetGroup
    {
        std::uint64_t setMask = 0;
        int depth = 0;
        std::vector<int> ways;  ///< ascending; ways.back() == depth
        int lenWords = 0;
        int stride = 0;
        std::size_t offset = 0;     ///< first word in Proc::sets
        std::size_t firstCount = 0; ///< index of ways[0] in Proc::misses

        /** The block of the set @p lineId maps to, in @p sets. */
        std::uint64_t*
        block(std::uint64_t* sets, std::uint64_t lineId) const
        {
            return sets + offset + (lineId & setMask) * stride;
        }
    };

    /** Per-processor stack profile: the shared StackDistance core
     *  plus the exact sweep's per-line distance histogram. */
    struct StackProfiler
    {
        StackDistance core;
        std::vector<std::uint64_t> hist;  // distance histogram (in lines)
        std::uint64_t coldOrStale = 0;
        std::uint64_t maxLines = 0;

        void init(std::uint64_t max_lines);
        void touch(Addr line, bool held);
    };

    struct Proc
    {
        std::vector<std::uint64_t> sets;    ///< every group's set blocks
        std::vector<std::uint64_t> misses;  ///< per (group, way) count
        StackProfiler stack;
        std::uint64_t accesses = 0;
    };

    void accessLine(ProcId p, Addr lineAddr, AccessType type);
    /** Drop @p lineAddr from every list of processor @p pr. */
    void invalidate(Proc& pr, Addr lineAddr);
    /** Index into Proc::misses of a simulated finite point. */
    std::size_t countIndex(std::uint64_t size, int assoc) const;

    SweepConfig cfg_;
    int lineShift_;
    VersionCoherence coh_;
    std::vector<SetGroup> groups_;
    std::vector<Proc> procs_;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_SWEEP_H
