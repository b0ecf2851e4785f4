/**
 * @file
 * Small fixed-width table formatter for the characterization benches,
 * so every bench prints rows shaped like the paper's tables/figures.
 */
#ifndef SPLASH2_HARNESS_REPORT_H
#define SPLASH2_HARNESS_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/log.h"

namespace splash::harness {

class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    Table&
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
        return *this;
    }

    void
    print() const
    {
        std::vector<std::size_t> w(headers_.size());
        for (std::size_t i = 0; i < headers_.size(); ++i)
            w[i] = headers_[i].size();
        for (const auto& r : rows_)
            for (std::size_t i = 0; i < r.size() && i < w.size(); ++i)
                w[i] = std::max(w[i], r[i].size());
        auto line = [&](const std::vector<std::string>& cells) {
            for (std::size_t i = 0; i < w.size(); ++i) {
                std::string c = i < cells.size() ? cells[i] : "";
                std::printf("%c %-*s", i ? '|' : ' ',
                            static_cast<int>(w[i]), c.c_str());
            }
            std::printf("\n");
        };
        line(headers_);
        for (std::size_t i = 0; i < w.size(); ++i)
            std::printf("%c-%s", i ? '+' : '-',
                        std::string(w[i] + 1, '-').c_str());
        std::printf("\n");
        for (const auto& r : rows_)
            line(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(const char* f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

inline std::string
fmtU(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Parse `--key value` style options; unmatched keys keep defaults.
 *  Every lookup marks its key as consumed, so once a program has read
 *  all the flags it understands, reportUnknown() can reject the rest
 *  (a misspelled flag must not silently fall back to a default). */
class Options
{
  public:
    Options(int argc, char** argv)
    {
        int i = 1;
        while (i < argc) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0) {
                ++i;
                continue;
            }
            // `--key value` pair, or a bare boolean flag (`--quick`,
            // `--csv`) when no value follows.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                kv_[k.substr(2)] = argv[i + 1];
                i += 2;
            } else {
                // A string temporary, not operator=(const char*):
                // GCC 12 at -O3 misreports that as -Wrestrict.
                kv_[k.substr(2)] = std::string("1");
                ++i;
            }
        }
    }

    double
    getD(const std::string& k, double def) const
    {
        const std::string* v = find(k);
        if (!v)
            return def;
        // Reject partial parses ("1.5x") and non-numbers outright
        // rather than silently truncating or throwing out of main().
        try {
            std::size_t pos = 0;
            double d = std::stod(*v, &pos);
            if (pos == v->size())
                return d;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects a number, got '" + *v + "'");
    }

    long
    getI(const std::string& k, long def) const
    {
        const std::string* v = find(k);
        if (!v)
            return def;
        try {
            std::size_t pos = 0;
            long l = std::stol(*v, &pos);
            if (pos == v->size())
                return l;
        } catch (const std::exception&) {
        }
        fatal("option --" + k + " expects an integer, got '" + *v +
              "'");
    }

    std::string
    getS(const std::string& k, const std::string& def) const
    {
        const std::string* v = find(k);
        return v ? *v : def;
    }

    bool has(const std::string& k) const { return find(k) != nullptr; }

    /** Print `unknown flag --X` to stderr for the first flag on the
     *  command line that no get*()/has() call has looked up, and
     *  return true if there was one.  Call it after reading every flag
     *  the program understands; exit 2 on true. */
    bool
    reportUnknown() const
    {
        for (const auto& [k, v] : kv_) {
            if (!consumed_.count(k)) {
                std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
                return true;
            }
        }
        return false;
    }

  private:
    const std::string*
    find(const std::string& k) const
    {
        consumed_.insert(k);
        auto it = kv_.find(k);
        return it == kv_.end() ? nullptr : &it->second;
    }

    std::map<std::string, std::string> kv_;
    mutable std::set<std::string> consumed_;
};

} // namespace splash::harness

#endif // SPLASH2_HARNESS_REPORT_H
