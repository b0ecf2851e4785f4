#include "sim/sweep.h"

#include <algorithm>
#include <bit>
#include <map>
#include <string>

#include "base/log.h"

namespace splash::sim {

namespace {
/** Initial and minimum timestamp capacity (a multiple of 64).
 *  Compaction resizes it to ~4x the live line count, so the bitmap
 *  and its tree stay small. */
constexpr std::uint64_t kTimeCapMin = 1u << 16;

/** Initial line-table capacities (slots; powers of two). */
constexpr std::size_t kCohSlotsMin = std::size_t(1) << 12;
constexpr std::size_t kStackSlotsMin = std::size_t(1) << 10;

/** Bits 0..b of a bitmap word. */
inline std::uint64_t
maskThrough(unsigned b)
{
    return (std::uint64_t{2} << b) - 1;
}

/** Field k of a set block's packed 16-bit prefix lengths. */
inline unsigned
lenAt(const std::uint64_t* blk, int k)
{
    return static_cast<unsigned>(blk[k >> 2] >> ((k & 3) * 16)) & 0xffffu;
}

inline void
lenInc(std::uint64_t* blk, int k)
{
    blk[k >> 2] += std::uint64_t{1} << ((k & 3) * 16);
}

inline void
lenDec(std::uint64_t* blk, int k)
{
    blk[k >> 2] -= std::uint64_t{1} << ((k & 3) * 16);
}

/** Position of @p line among the first @p n entries of @p tags, or
 *  @p n when absent. */
inline unsigned
listPosition(const std::uint64_t* tags, unsigned n, Addr line)
{
    unsigned d = 0;
    while (d < n && tags[d] != line)
        ++d;
    return d;
}
} // namespace

CacheSweep::CacheSweep(const SweepConfig& cfg)
    : cfg_(cfg), lineShift_(log2i(cfg.lineSize))
{
    if (cfg_.nprocs < 1 || cfg_.nprocs > kMaxProcs)
        fatal("sweep processor count must be in [1, " +
              std::to_string(kMaxProcs) +
              "]: invalidations find the holders of a line in a " +
              std::to_string(kMaxProcs) + "-bit mask (got " +
              std::to_string(cfg_.nprocs) + ")");
    if (!isPow2(cfg_.lineSize))
        fatal("sweep line size must be a power of two");
    // Set count -> the associativities simulated at that set count.
    std::map<std::uint64_t, std::vector<int>> waysBySets;
    std::uint64_t max_lines = 0;
    for (auto s : cfg_.sizes) {
        if (!isPow2(s) || s < static_cast<std::uint64_t>(cfg_.lineSize))
            fatal("sweep cache size must be a power of two >= line size");
        std::uint64_t lines = s >> lineShift_;
        max_lines = std::max(max_lines, lines);
        for (int assoc : cfg_.assocs) {
            if (assoc < 1 || assoc > kMaxWays || !isPow2(assoc))
                fatal("sweep associativity must be a power of two in "
                      "[1, " + std::to_string(kMaxWays) + "] (got " +
                      std::to_string(assoc) + ")");
            int ways = static_cast<int>(
                std::min<std::uint64_t>(assoc, lines));
            waysBySets[lines / ways].push_back(ways);
        }
    }
    std::size_t words = 0, counts = 0;
    for (auto& [sets, ways] : waysBySets) {
        std::sort(ways.begin(), ways.end());
        ways.erase(std::unique(ways.begin(), ways.end()), ways.end());
        SetGroup g;
        g.setMask = sets - 1;
        g.depth = ways.back();
        g.ways = ways;
        g.lenWords = static_cast<int>((ways.size() + 3) / 4);
        g.stride = g.lenWords + g.depth;
        g.offset = words;
        g.firstCount = counts;
        words += sets * g.stride;
        counts += ways.size();
        groups_.push_back(std::move(g));
    }
    procs_.resize(cfg_.nprocs);
    for (Proc& pr : procs_) {
        pr.sets.assign(words, 0);
        pr.misses.assign(counts, 0);
        pr.stack.init(max_lines);
    }
}

StackDistance::StackDistance()
    : lines_(kStackSlotsMin), live_(kTimeCapMin / 64, 0),
      tree_(kTimeCapMin / 64 + 1, 0), timeCap_(kTimeCapMin)
{}

void
StackDistance::treeAdd(std::uint64_t word, int delta)
{
    for (std::uint64_t i = word + 1; i < tree_.size(); i += i & (~i + 1))
        tree_[i] += delta;
}

std::uint64_t
StackDistance::prefix(std::uint64_t t) const
{
    std::uint64_t s = std::popcount(live_[t >> 6] & maskThrough(t & 63));
    for (std::uint64_t i = t >> 6; i > 0; i -= i & (~i + 1))
        s += tree_[i];
    return s;
}

void
StackDistance::compact()
{
    // Renumber the lines 0..n-1 in timestamp order: a line's new
    // timestamp is its mark's rank, read from per-word running counts.
    // Relative order is preserved, so every stack distance computed
    // afterwards is unchanged.
    const std::size_t words = live_.size();
    std::vector<std::uint64_t> before(words);
    std::uint64_t run = 0;
    for (std::size_t w = 0; w < words; ++w) {
        before[w] = run;
        run += std::popcount(live_[w]);
    }
    for (auto& slot : lines_.slots()) {
        if (slot.key == LineTable<std::uint64_t>::kFree)
            continue;
        const std::uint64_t t = slot.value;
        const std::uint64_t below = live_[t >> 6] & maskThrough(t & 63);
        slot.value = before[t >> 6] + std::popcount(below) - 1;
    }
    const std::uint64_t n = lines_.size();
    std::uint64_t want = kTimeCapMin;
    while (want < 4 * (n + 1))
        want <<= 1;
    timeCap_ = want;
    live_.assign(want / 64, 0);
    for (std::uint64_t w = 0; w < n / 64; ++w)
        live_[w] = ~std::uint64_t{0};
    if (n % 64)
        live_[n / 64] = maskThrough(n % 64 - 1);
    // Linear-time Fenwick build over the word counts.
    tree_.assign(live_.size() + 1, 0);
    for (std::size_t i = 1; i < tree_.size(); ++i) {
        tree_[i] += std::popcount(live_[i - 1]);
        const std::size_t up = i + (i & (~i + 1));
        if (up < tree_.size())
            tree_[up] += tree_[i];
    }
    now_ = n;
}

std::uint64_t
StackDistance::touch(Addr line, bool held)
{
    if (now_ == timeCap_)
        compact();
    const std::uint64_t t = now_++;
    bool cold = false;
    std::uint64_t& last = lines_.lookup(line, &cold);
    std::uint64_t out = kCold;
    if (!cold) {
        // Every line holds one mark, at its last timestamp, so the
        // marks after `last` are the distinct lines touched since.
        out = held ? lines_.size() - prefix(last) : kStale;
        live_[last >> 6] &= ~(std::uint64_t{1} << (last & 63));
        if ((last >> 6) != (t >> 6)) {
            treeAdd(last >> 6, -1);
            treeAdd(t >> 6, 1);
        }
    } else {
        treeAdd(t >> 6, 1);
    }
    live_[t >> 6] |= std::uint64_t{1} << (t & 63);
    last = t;
    return out;
}

void
CacheSweep::StackProfiler::init(std::uint64_t max_lines)
{
    maxLines = max_lines;
    hist.assign(max_lines + 2, 0);
}

void
CacheSweep::StackProfiler::touch(Addr line, bool held)
{
    std::uint64_t d = core.touch(line, held);
    if (d == StackDistance::kCold || d == StackDistance::kStale)
        ++coldOrStale;
    else
        ++hist[std::min(d + 1, maxLines + 1)];
}

VersionCoherence::VersionCoherence() : lines_(kCohSlotsMin) {}

std::uint64_t
VersionCoherence::advance(Addr lineAddr, ProcId p, bool isWrite,
                          bool* held)
{
    Line& c = lines_.lookup(lineAddr);
    const std::uint64_t self = std::uint64_t{1} << p;
    std::uint64_t invalidated = 0;
    *held = (c.holders & self) != 0;
    if (isWrite) {
        if (c.lastWriter != p || c.readSince) {
            c.lastWriter = p;
            c.readSince = false;
            invalidated = c.holders & ~self;
            c.holders = 0;
        }
    } else if (c.lastWriter != p) {
        c.readSince = true;
    }
    c.holders |= self;
    return invalidated;
}

void
CacheSweep::access(ProcId p, Addr addr, int size, AccessType type)
{
    Addr first = alignDown(addr, cfg_.lineSize);
    Addr last = alignDown(addr + size - 1, cfg_.lineSize);
    for (Addr line = first; line <= last; line += cfg_.lineSize)
        accessLine(p, line, type);
}

void
CacheSweep::accessLine(ProcId p, Addr lineAddr, AccessType type)
{
    Proc& pr = procs_[p];
    ++pr.accesses;
    // The set blocks are independent cache misses: start them all
    // before the version-table lookup.
    const std::uint64_t line_id = lineAddr >> lineShift_;
    for (const SetGroup& g : groups_)
        __builtin_prefetch(g.block(pr.sets.data(), line_id), 1);

    bool held = false;
    std::uint64_t inv =
        coh_.advance(lineAddr, p, type == AccessType::Write, &held);
    for (; inv; inv &= inv - 1)
        invalidate(procs_[std::countr_zero(inv)], lineAddr);

    for (const SetGroup& g : groups_) {
        std::uint64_t* blk = g.block(pr.sets.data(), line_id);
        std::uint64_t* tags = blk + g.lenWords;
        const int m = static_cast<int>(g.ways.size());
        const unsigned d = listPosition(tags, lenAt(blk, m - 1), lineAddr);
        // Prefix lengths nest (l_w <= l_w' for w < w'), so a hit in
        // the smallest associativity is a hit in all of them.
        if (d >= lenAt(blk, 0)) {
            for (int k = 0; k < m; ++k) {
                const unsigned l = lenAt(blk, k);
                if (d < l)
                    continue;
                ++pr.misses[g.firstCount + k];
                if (l < static_cast<unsigned>(g.ways[k]))
                    lenInc(blk, k);
            }
        }
        // Move to front; a miss in a full list drops its LRU entry.
        for (unsigned i = std::min<unsigned>(d, g.depth - 1); i > 0; --i)
            tags[i] = tags[i - 1];
        tags[0] = lineAddr;
    }

    pr.stack.touch(lineAddr, held);
}

void
CacheSweep::invalidate(Proc& pr, Addr lineAddr)
{
    const std::uint64_t line_id = lineAddr >> lineShift_;
    for (const SetGroup& g : groups_) {
        std::uint64_t* blk = g.block(pr.sets.data(), line_id);
        std::uint64_t* tags = blk + g.lenWords;
        const int m = static_cast<int>(g.ways.size());
        const unsigned n = lenAt(blk, m - 1);
        const unsigned d = listPosition(tags, n, lineAddr);
        if (d == n)
            continue;
        for (unsigned i = d + 1; i < n; ++i)
            tags[i - 1] = tags[i];
        for (int k = 0; k < m; ++k)
            if (lenAt(blk, k) > d)
                lenDec(blk, k);
    }
}

void
CacheSweep::resetStats()
{
    for (Proc& pr : procs_) {
        pr.accesses = 0;
        std::fill(pr.misses.begin(), pr.misses.end(), 0);
        std::fill(pr.stack.hist.begin(), pr.stack.hist.end(), 0);
        pr.stack.coldOrStale = 0;
    }
}

std::uint64_t
CacheSweep::accesses() const
{
    std::uint64_t t = 0;
    for (const Proc& pr : procs_)
        t += pr.accesses;
    return t;
}

std::size_t
CacheSweep::countIndex(std::uint64_t size, int assoc) const
{
    if (std::find(cfg_.sizes.begin(), cfg_.sizes.end(), size) ==
            cfg_.sizes.end() ||
        std::find(cfg_.assocs.begin(), cfg_.assocs.end(), assoc) ==
            cfg_.assocs.end())
        fatal("requested sweep operating point was not simulated");
    const std::uint64_t lines = size >> lineShift_;
    const int ways =
        static_cast<int>(std::min<std::uint64_t>(assoc, lines));
    const std::uint64_t setMask = lines / ways - 1;
    for (const SetGroup& g : groups_) {
        if (g.setMask != setMask)
            continue;
        auto it = std::find(g.ways.begin(), g.ways.end(), ways);
        return g.firstCount + (it - g.ways.begin());
    }
    panic("simulated sweep operating point has no set group");
}

std::uint64_t
CacheSweep::misses(std::uint64_t size, int assoc) const
{
    std::uint64_t m = 0;
    if (assoc == 0) {
        // Fully associative: from the stack-distance histograms.
        std::uint64_t cap_lines = size >> lineShift_;
        for (const Proc& pr : procs_) {
            const StackProfiler& st = pr.stack;
            m += st.coldOrStale;
            for (std::uint64_t d = cap_lines + 1; d < st.hist.size(); ++d)
                m += st.hist[d];
        }
        return m;
    }
    const std::size_t idx = countIndex(size, assoc);
    for (const Proc& pr : procs_)
        m += pr.misses[idx];
    return m;
}

double
CacheSweep::missRate(std::uint64_t size, int assoc) const
{
    std::uint64_t a = accesses();
    return a ? double(misses(size, assoc)) / double(a) : 0.0;
}

} // namespace splash::sim
