// Tests for the table-driven protocol layer: descriptor sanity of
// every registered protocol, cross-protocol differential invariants
// over identical reference streams (what each protocol may and may not
// change), and a golden regression pinning the committed FFT
// protocol-ablation rows.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sim/protocol.h"

using namespace splash;
using namespace splash::sim;

namespace {

/** All registered kinds, zoo order. */
std::vector<ProtocolKind>
zoo()
{
    std::vector<ProtocolKind> v;
    for (int k = 0; k < kNumProtocols; ++k)
        v.push_back(static_cast<ProtocolKind>(k));
    return v;
}

/** One characterization per protocol from ONE broadcast execution. */
std::vector<harness::RunStats>
runZoo(const std::string& appName, int procs, double scale)
{
    using namespace splash::harness;
    App* app = findApp(appName);
    EXPECT_NE(app, nullptr) << appName;
    AppConfig cfg;
    cfg.scale = scale;
    std::vector<MemExperiment> exps;
    for (ProtocolKind k : zoo()) {
        MemExperiment e;
        e.protocol = k;
        exps.push_back(e);
    }
    return runCharacterizations(*app, procs, exps, cfg);
}

} // namespace

// Every registered descriptor must be internally consistent: names
// round-trip through the parser, state masks nest correctly, the
// silent-write promotion stays inside the legal alphabet, and every
// reachable table cell installs a legal state.
TEST(Protocol, DescriptorSanity)
{
    for (ProtocolKind k : zoo()) {
        const Protocol& p = protocol(k);
        EXPECT_EQ(p.kind, k);
        ASSERT_STRNE(p.name, "");
        EXPECT_STREQ(p.name, protocolName(k));
        ProtocolKind back;
        ASSERT_TRUE(parseProtocol(p.name, &back)) << p.name;
        EXPECT_EQ(back, k);

        // Invalid is never legal to "hold"; Shared always is.
        EXPECT_FALSE(stateIn(p.legalStates, LineState::Invalid));
        EXPECT_TRUE(stateIn(p.legalStates, LineState::Shared));
        // Owners are legal holders; silent hits are legal holders.
        EXPECT_EQ(p.ownerStates & ~p.legalStates, 0) << p.name;
        EXPECT_EQ(p.silentHit[0] & ~p.legalStates, 0) << p.name;
        EXPECT_EQ(p.silentHit[1] & ~p.legalStates, 0) << p.name;
        // Every silent write hit must leave the line in an owner state
        // (the next write must also be silent, and eviction must write
        // back) -- this is the dedup contract between Cache and
        // MemSystem.
        for (int s = 0; s < kNumLineStates; ++s) {
            auto st = static_cast<LineState>(s);
            if (!stateIn(p.legalStates, st))
                continue;
            LineState next = p.silentWriteNext[s];
            EXPECT_TRUE(stateIn(p.legalStates, next)) << p.name;
            if (stateIn(p.silentHit[1], st)) {
                EXPECT_TRUE(stateIn(p.ownerStates, next))
                    << p.name << " state " << s;
            }
        }
        EXPECT_EQ(p.hasExclusive,
                  stateIn(p.legalStates, LineState::Exclusive))
            << p.name;

        for (int e = 0; e < kNumProtoEvents; ++e) {
            for (int g = 0; g < kNumDirGroups; ++g) {
                const Transition& t = p.at(
                    static_cast<ProtoEvent>(e), static_cast<DirGroup>(g));
                if (!t.valid)
                    continue;
                EXPECT_TRUE(stateIn(p.legalStates, t.reqState))
                    << p.name << " cell " << e << "," << g;
                EXPECT_TRUE(stateIn(p.legalStates, t.reqStateAlone))
                    << p.name << " cell " << e << "," << g;
                // Only a dirty entry has an owner to supply or retag.
                if (t.supply == Supply::Owner) {
                    EXPECT_EQ(g, static_cast<int>(DirGroup::Dirty))
                        << p.name;
                }
            }
        }
        // Misses on an uncached line are reachable under any protocol.
        EXPECT_TRUE(p.at(ProtoEvent::ReadMiss, DirGroup::Uncached).valid);
        EXPECT_TRUE(
            p.at(ProtoEvent::WriteMiss, DirGroup::Uncached).valid);
    }
}

// Differential invariants across the zoo on the same reference stream.
// The protocol may change coherence actions and traffic, but never the
// stream itself; and specific protocol pairs have provable orderings:
//
//  - MSI, MESI, and MOESI invalidate identically, so their miss
//    decompositions are identical; MESI's clean-exclusive state only
//    removes upgrade transactions (E->M is silent), so its upgrade
//    count is bounded by MSI's and their invalidation counts match.
//  - MOESI never performs MESI's sharing writeback, so it moves no
//    more writeback traffic than MESI.
//  - Dragon never invalidates (updates instead), so its invalidation
//    count is exactly zero and only Dragon sends updates.
TEST(Protocol, DifferentialInvariantsAcrossZoo)
{
    const int kMsi = 0, kMesi = 1, kMoesi = 2, kDragon = 3;
    for (const char* name : {"fft", "radix"}) {
        auto r = runZoo(name, 8, 0.25);
        ASSERT_EQ(r.size(), std::size_t(kNumProtocols)) << name;

        const MemStats& msi = r[kMsi].mem;
        const MemStats& mesi = r[kMesi].mem;
        const MemStats& moesi = r[kMoesi].mem;
        const MemStats& dragon = r[kDragon].mem;

        for (const harness::RunStats& run : r) {
            EXPECT_TRUE(run.valid) << name;
            EXPECT_EQ(run.mem.reads, msi.reads) << name;
            EXPECT_EQ(run.mem.writes, msi.writes) << name;
        }

        for (int m = 0; m < kNumMissTypes; ++m) {
            EXPECT_EQ(mesi.misses[m], msi.misses[m]) << name;
            EXPECT_EQ(moesi.misses[m], msi.misses[m]) << name;
        }
        EXPECT_LE(mesi.upgrades, msi.upgrades) << name;
        EXPECT_EQ(mesi.invalidations, msi.invalidations) << name;
        EXPECT_EQ(moesi.upgrades, mesi.upgrades) << name;
        EXPECT_LE(moesi.remoteWriteback, mesi.remoteWriteback) << name;

        EXPECT_EQ(dragon.invalidations, 0u)
            << name << ": an update-based protocol must never "
                       "invalidate";
        EXPECT_EQ(msi.updates, 0u) << name;
        EXPECT_EQ(mesi.updates, 0u) << name;
        EXPECT_EQ(moesi.updates, 0u) << name;
    }

    // FFT's transpose writes to lines other processors still cache:
    // Dragon must turn that write sharing into update traffic.
    auto fft = runZoo("fft", 8, 0.25);
    EXPECT_GT(fft[kDragon].mem.updates, 0u);
}

// Golden regression: the committed FFT protocol-ablation rows
// (results/ablation.csv, generated by `ablation_protocol --csv` at its
// default operating point) must reproduce exactly.
#ifdef SPLASH2_SOURCE_DIR
TEST(Protocol, ReproducesCommittedAblationFftRows)
{
    using namespace splash::harness;
    std::string path =
        std::string(SPLASH2_SOURCE_DIR) + "/results/ablation.csv";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::map<std::string, std::vector<double>> committed;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string app, proto, cell;
        std::getline(ss, app, ',');
        if (app != "FFT")
            continue;
        std::getline(ss, proto, ',');
        std::vector<double> vals;
        while (std::getline(ss, cell, ','))
            vals.push_back(std::stod(cell));
        committed[proto] = vals;
    }
    ASSERT_EQ(committed.size(), std::size_t(kNumProtocols));

    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.5;  // the bench's default operating point
    const int procs = 16;
    std::vector<MemExperiment> exps;
    for (ProtocolKind k : zoo()) {
        MemExperiment e;  // 1 MB placed, the zoo replica config
        e.protocol = k;
        exps.push_back(e);
    }
    auto got = runCharacterizations(*app, procs, exps, cfg);
    ASSERT_EQ(got.size(), exps.size());

    for (std::size_t i = 0; i < got.size(); ++i) {
        auto it = committed.find(protocolName(zoo()[i]));
        ASSERT_NE(it, committed.end()) << protocolName(zoo()[i]);
        const auto& want = it->second;
        ASSERT_EQ(want.size(), 6u);
        const MemStats& m = got[i].mem;
        double acc = double(m.accesses());
        ASSERT_GT(acc, 0);
        EXPECT_NEAR(1000.0 * double(m.totalMisses()) / acc, want[0],
                    5e-7);
        EXPECT_NEAR(1000.0 * double(m.upgrades) / acc, want[1], 5e-7);
        EXPECT_NEAR(1000.0 * double(m.invalidations) / acc, want[2],
                    5e-7);
        EXPECT_NEAR(1000.0 * double(m.updates) / acc, want[3], 5e-7);
        EXPECT_NEAR(double(m.remoteData()) / acc, want[4], 5e-7);
        EXPECT_NEAR(double(m.totalTraffic()) / acc, want[5], 5e-7);
    }
}
#endif
