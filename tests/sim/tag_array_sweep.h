/**
 * @file
 * Reference model of the multi-configuration cache sweep: one tag
 * array per (processor, size, associativity) with lazy version-stamp
 * coherence, the straightforward algorithm sim::CacheSweep replaces
 * with one MRU list per set count.
 *
 *  - Every configuration keeps its own tag array with per-way LRU
 *    clocks, probed on every reference of its processor.
 *  - A per-line global version is bumped whenever a write must
 *    invalidate other copies (writer changed, or somebody else read
 *    since the last write).  A cached tag whose stored version is
 *    stale is a coherence miss; on a miss the victim is an empty way
 *    first, then a stale way, then the LRU way.
 *  - Fully associative LRU of every size comes from a naive Mattson
 *    stack (NaiveStack): one recency-ordered list per processor, each
 *    entry carrying its own lazy version stamp, searched linearly.
 *    It shares no code with sim::StackDistance, so the oracle also
 *    checks the production stack-distance core.
 *
 * Slow and obviously correct; the differential tests require every
 * (size, assoc) miss count of CacheSweep to equal this model's.
 */
#ifndef SPLASH2_TESTS_SIM_TAG_ARRAY_SWEEP_H
#define SPLASH2_TESTS_SIM_TAG_ARRAY_SWEEP_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/sweep.h"

namespace splash::sim {

/** Lazy version-stamp coherence: a per-line global version is bumped
 *  whenever a write must invalidate other copies (writer changed, or
 *  somebody else read since the last write).  A copy stored at an
 *  older version has been coherence-invalidated. */
class VersionStamps
{
  public:
    /** Advance @p lineAddr for one access by @p p and report the
     *  (before, after) versions. */
    void
    advance(Addr lineAddr, ProcId p, bool isWrite, std::uint64_t* oldVer,
            std::uint64_t* newVer)
    {
        Line& c = lines_[lineAddr];
        *oldVer = c.version;
        if (isWrite) {
            if (c.lastWriter != p || c.readSince) {
                ++c.version;
                c.lastWriter = p;
                c.readSince = false;
            }
        } else if (c.lastWriter != p) {
            c.readSince = true;
        }
        *newVer = c.version;
    }

    std::uint64_t
    version(Addr lineAddr) const
    {
        auto it = lines_.find(lineAddr);
        return it == lines_.end() ? 0 : it->second.version;
    }

  private:
    struct Line
    {
        std::uint64_t version = 0;
        ProcId lastWriter = -1;
        bool readSince = false;
    };
    std::unordered_map<Addr, Line> lines_;
};

/** Naive Mattson stack for one processor: every line it touched, in
 *  recency order (most recent last), each with the version it was
 *  stored at.  A reuse's distance is the number of entries after it,
 *  found by a linear search: O(distance) per reference. */
class NaiveStack
{
  public:
    /** Same outcomes as sim::StackDistance::touch: kCold on a first
     *  touch, kStale when the stored version is not @p oldVer, else
     *  the number of distinct lines touched since the previous
     *  reference. */
    std::uint64_t
    touch(Addr line, std::uint64_t oldVer, std::uint64_t newVer,
          bool isWrite)
    {
        std::size_t d = 0;
        while (d < mru_.size() && mru_[mru_.size() - 1 - d].line != line)
            ++d;
        std::uint64_t out = StackDistance::kCold;
        if (d < mru_.size()) {
            const std::size_t i = mru_.size() - 1 - d;
            out = mru_[i].version == oldVer ? d : StackDistance::kStale;
            mru_.erase(mru_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        mru_.push_back({line, isWrite ? newVer : oldVer});
        return out;
    }

    std::size_t lines() const { return mru_.size(); }

  private:
    struct Entry
    {
        Addr line;
        std::uint64_t version;
    };
    std::vector<Entry> mru_;
};

class TagArraySweep
{
  public:
    explicit TagArraySweep(const SweepConfig& cfg)
        : cfg_(cfg), lineShift_(log2i(cfg.lineSize)), procs_(cfg.nprocs)
    {
        std::uint64_t maxLines = 0;
        for (auto s : cfg_.sizes)
            maxLines = std::max(maxLines, s >> lineShift_);
        for (Proc& pr : procs_) {
            for (auto size : cfg_.sizes) {
                for (int assoc : cfg_.assocs) {
                    TagArray ta;
                    std::uint64_t lines = size >> lineShift_;
                    ta.ways = static_cast<int>(
                        std::min<std::uint64_t>(assoc, lines));
                    ta.setMask = lines / ta.ways - 1;
                    ta.entries.resize(lines);
                    pr.arrays.push_back(std::move(ta));
                }
            }
            pr.maxLines = maxLines;
            pr.hist.assign(maxLines + 2, 0);
        }
    }

    void
    access(ProcId p, Addr addr, int size, AccessType type)
    {
        Addr first = alignDown(addr, cfg_.lineSize);
        Addr last = alignDown(addr + size - 1, cfg_.lineSize);
        for (Addr line = first; line <= last; line += cfg_.lineSize)
            accessLine(p, line, type == AccessType::Write);
    }

    std::uint64_t
    accesses() const
    {
        std::uint64_t t = 0;
        for (const Proc& pr : procs_)
            t += pr.accesses;
        return t;
    }

    std::uint64_t
    misses(std::uint64_t size, int assoc) const
    {
        std::uint64_t m = 0;
        if (assoc == 0) {
            std::uint64_t capLines = size >> lineShift_;
            for (const Proc& pr : procs_) {
                m += pr.coldOrStale;
                for (std::uint64_t d = capLines + 1; d < pr.hist.size();
                     ++d)
                    m += pr.hist[d];
            }
            return m;
        }
        std::size_t idx = 0;
        for (std::size_t s = 0; s < cfg_.sizes.size(); ++s)
            for (std::size_t a = 0; a < cfg_.assocs.size(); ++a)
                if (cfg_.sizes[s] == size && cfg_.assocs[a] == assoc)
                    idx = s * cfg_.assocs.size() + a;
        for (const Proc& pr : procs_)
            m += pr.arrays[idx].misses;
        return m;
    }

    void
    resetStats()
    {
        for (Proc& pr : procs_) {
            pr.accesses = 0;
            pr.coldOrStale = 0;
            std::fill(pr.hist.begin(), pr.hist.end(), 0);
            for (TagArray& ta : pr.arrays)
                ta.misses = 0;
        }
    }

  private:
    struct TagEntry
    {
        Addr tag = 0;
        std::uint64_t version = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    struct TagArray
    {
        int ways = 0;
        std::uint64_t setMask = 0;
        std::uint64_t useClock = 0;
        std::vector<TagEntry> entries;
        std::uint64_t misses = 0;
    };

    struct Proc
    {
        std::vector<TagArray> arrays;
        NaiveStack stack;
        std::vector<std::uint64_t> hist;
        std::uint64_t maxLines = 0;
        std::uint64_t coldOrStale = 0;
        std::uint64_t accesses = 0;
    };

    void
    accessLine(ProcId p, Addr lineAddr, bool isWrite)
    {
        Proc& pr = procs_[p];
        ++pr.accesses;

        std::uint64_t oldVer = 0, newVer = 0;
        versions_.advance(lineAddr, p, isWrite, &oldVer, &newVer);

        const std::uint64_t lineId = lineAddr >> lineShift_;
        for (TagArray& ta : pr.arrays)
            applyTagArray(ta, lineAddr, lineId, oldVer, newVer, isWrite);

        std::uint64_t d = pr.stack.touch(lineAddr, oldVer, newVer, isWrite);
        if (d == StackDistance::kCold || d == StackDistance::kStale)
            ++pr.coldOrStale;
        else
            ++pr.hist[std::min(d + 1, pr.maxLines + 1)];
    }

    void
    applyTagArray(TagArray& ta, Addr lineAddr, std::uint64_t lineId,
                  std::uint64_t oldVer, std::uint64_t newVer, bool isWrite)
    {
        TagEntry* base = &ta.entries[(lineId & ta.setMask) * ta.ways];
        TagEntry* found = nullptr;
        for (int w = 0; w < ta.ways; ++w)
            if (base[w].valid && base[w].tag == lineAddr) {
                found = &base[w];
                break;
            }
        if (found && found->version == oldVer) {
            found->lastUse = ++ta.useClock;
            if (isWrite)
                found->version = newVer;
            return;
        }
        ++ta.misses;
        TagEntry* slot = found;
        if (!slot) {
            TagEntry* lru = base;
            for (int w = 0; w < ta.ways && !slot; ++w) {
                TagEntry& e = base[w];
                if (!e.valid || versions_.version(e.tag) != e.version)
                    slot = &e;
                if (e.valid && e.lastUse < lru->lastUse)
                    lru = &e;
            }
            if (!slot)
                slot = lru;
        }
        slot->valid = true;
        slot->tag = lineAddr;
        slot->version = isWrite ? newVer : oldVer;
        slot->lastUse = ++ta.useClock;
    }

    SweepConfig cfg_;
    int lineShift_;
    VersionStamps versions_;
    std::vector<Proc> procs_;
};

} // namespace splash::sim

#endif // SPLASH2_TESTS_SIM_TAG_ARRAY_SWEEP_H
