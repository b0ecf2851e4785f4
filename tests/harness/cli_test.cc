// Tests for the shared engine-flag parser: every invalid value --
// nonsensical job counts, zero quanta, unknown modes, non-numeric
// garbage -- must be rejected loudly instead of silently falling back
// to a default, and valid values must land in the right EngineOpts knob.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cli.h"

using namespace splash::harness;

namespace {

/** Run parseEngineOpts over a synthetic command line. */
bool
parse(std::vector<std::string> words, EngineOpts* out)
{
    std::vector<std::string> full = {"prog"};
    full.insert(full.end(), words.begin(), words.end());
    std::vector<char*> argv;
    argv.reserve(full.size());
    for (auto& s : full)
        argv.push_back(s.data());
    Options opt(static_cast<int>(argv.size()), argv.data());
    return parseEngineOpts(opt, kAllEngineFlags, out);
}

/** Parse @p words, then run the mode-conflict matrix over them the
 *  way splash2run does.  Returns true when the combination is
 *  accepted end to end. */
bool
parseAndCheck(std::vector<std::string> words, std::string* err = nullptr)
{
    std::vector<std::string> full = {"prog"};
    full.insert(full.end(), words.begin(), words.end());
    std::vector<char*> argv;
    argv.reserve(full.size());
    for (auto& s : full)
        argv.push_back(s.data());
    Options opt(static_cast<int>(argv.size()), argv.data());
    EngineOpts eng;
    ::testing::internal::CaptureStderr();
    bool ok = parseEngineOpts(opt, kAllEngineFlags, &eng) &&
              checkModeConflicts(opt, eng);
    std::string captured = ::testing::internal::GetCapturedStderr();
    if (err)
        *err = captured;
    return ok;
}

} // namespace

TEST(EngineOpts, DefaultsParse)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.jobs, 1);
    EXPECT_EQ(eng.sim.quantum, 250u);
    EXPECT_EQ(eng.sim.checkPeriod, 0u);
}

TEST(EngineOpts, ValidValuesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({"--jobs", "4", "--quantum", "100", "--replicas",
                       "off", "--check", "512"},
                      &eng));
    EXPECT_EQ(eng.jobs, 4);
    EXPECT_EQ(eng.sim.quantum, 100u);
    EXPECT_EQ(eng.sim.replicas, Replicas::Off);
    EXPECT_EQ(eng.sim.checkPeriod, 512u);
}

TEST(EngineOpts, RejectsBadJobCounts)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--jobs", "0"}, &eng));
    EXPECT_FALSE(parse({"--jobs", "-3"}, &eng));
}

TEST(EngineOpts, RejectsBadQuanta)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--quantum", "0"}, &eng));
    EXPECT_FALSE(parse({"--quantum", "-250"}, &eng));
}

TEST(EngineOpts, RejectsNegativeCheck)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--check", "-1"}, &eng));
    // 0 stays meaningful (off).
    EXPECT_TRUE(parse({"--check", "0"}, &eng));
}

TEST(EngineOpts, RejectsUnknownModes)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--replicas", "sometimes"}, &eng));
}

TEST(EngineOpts, ReplicasTakeOffOrAutoOnly)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.replicas, Replicas::Auto);
    ASSERT_TRUE(parse({"--replicas", "off"}, &eng));
    EXPECT_EQ(eng.sim.replicas, Replicas::Off);
    ASSERT_TRUE(parse({"--replicas", "auto"}, &eng));
    EXPECT_EQ(eng.sim.replicas, Replicas::Auto);
    // The consumer shape is Auto's decision, not a spelling.
    EXPECT_FALSE(parse({"--replicas", "threads"}, &eng));
    EXPECT_FALSE(parse({"--replicas", "inline"}, &eng));
    EXPECT_FALSE(parse({"--replicas", "on"}, &eng));
}

TEST(EngineOpts, ProtocolNamesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "msi"}, &eng));
    EXPECT_EQ(eng.protocol, splash::sim::ProtocolKind::MSI);
    ASSERT_TRUE(parse({"--protocol", "mesi"}, &eng));
    EXPECT_EQ(eng.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "moesi"}, &eng));
    EXPECT_EQ(eng.protocol, splash::sim::ProtocolKind::MOESI);
    ASSERT_TRUE(parse({"--protocol", "dragon"}, &eng));
    EXPECT_EQ(eng.protocol, splash::sim::ProtocolKind::Dragon);
}

TEST(EngineOpts, RejectsUnknownProtocols)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--protocol", "mosi"}, &eng));
    EXPECT_FALSE(eng.listRequested) << "an error is not a listing";
    // Names are exact and lowercase; no case folding, no prefixes.
    EXPECT_FALSE(parse({"--protocol", "MESI"}, &eng));
    EXPECT_FALSE(parse({"--protocol", "mes"}, &eng));
    EXPECT_FALSE(parse({"--protocol", ""}, &eng));
}

TEST(EngineOpts, RaceGranularitiesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "off"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "word"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Word);
    ASSERT_TRUE(parse({"--race", "line"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Line);
}

TEST(EngineOpts, RejectsUnknownRaceGranularities)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--race", "byte"}, &eng));
    EXPECT_FALSE(parse({"--race", "on"}, &eng));
    // Names are exact and lowercase, like --protocol.
    EXPECT_FALSE(parse({"--race", "Word"}, &eng));
    EXPECT_FALSE(parse({"--race", "wordline"}, &eng));
    EXPECT_FALSE(parse({"--race", ""}, &eng));
}

TEST(EngineOpts, SweepModesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Exact);
    EXPECT_FALSE(eng.sweepRequested)
        << "only an explicit --sweep turns splash2run into a sweep";
    ASSERT_TRUE(parse({"--sweep", "exact"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Exact);
    EXPECT_TRUE(eng.sweepRequested);
    ASSERT_TRUE(parse({"--sweep", "model"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Model);
    ASSERT_TRUE(parse({"--sweep", "both"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Both);
}

TEST(EngineOpts, RejectsUnknownSweepModes)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--sweep", "analytic"}, &eng));
    EXPECT_FALSE(eng.listRequested) << "an error is not a listing";
    // Names are exact and lowercase, like --protocol and --race.
    EXPECT_FALSE(parse({"--sweep", "Model"}, &eng));
    EXPECT_FALSE(parse({"--sweep", "exactmodel"}, &eng));
    EXPECT_FALSE(parse({"--sweep", ""}, &eng));
}

TEST(EngineOpts, RecordAndReplayLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_TRUE(eng.sim.record.empty());
    EXPECT_TRUE(eng.sim.replay.empty());

    // --record creates a missing store directory up front.
    const std::string dir =
        ::testing::TempDir() + "cli_record_" + std::to_string(::getpid());
    ASSERT_TRUE(parse({"--record", dir}, &eng));
    EXPECT_EQ(eng.sim.record, dir);
    struct stat st{};
    ASSERT_EQ(::stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));

    // --replay accepts any existing path (directory store or file).
    eng = EngineOpts{};
    ASSERT_TRUE(parse({"--replay", dir}, &eng));
    EXPECT_EQ(eng.sim.replay, dir);
    EXPECT_TRUE(eng.sim.record.empty());
}

TEST(EngineOpts, RecordReplayMutuallyExclusive)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--record", ::testing::TempDir(), "--replay",
                        ::testing::TempDir()},
                       &eng));
}

TEST(EngineOpts, ReplayRejectsNonexistentPath)
{
    EngineOpts eng;
    EXPECT_FALSE(
        parse({"--replay", "/nonexistent/trace/store"}, &eng));
}

TEST(EngineOpts, RecordRejectsUncreatablePath)
{
    // A path under a regular file can never become a directory, so
    // this fails even when running as root (where plain W_OK checks
    // always pass).
    EngineOpts eng;
    EXPECT_FALSE(parse({"--record", "/dev/null/store"}, &eng));
}

TEST(EngineOpts, InterconnectNamesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.interconnect, splash::sim::Interconnect::Directory);
    ASSERT_TRUE(parse({"--interconnect", "directory"}, &eng));
    EXPECT_EQ(eng.interconnect, splash::sim::Interconnect::Directory);
    ASSERT_TRUE(parse({"--interconnect", "bus"}, &eng));
    EXPECT_EQ(eng.interconnect, splash::sim::Interconnect::Bus);
}

TEST(EngineOpts, RejectsUnknownInterconnects)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--interconnect", "crossbar"}, &eng));
    // Names are exact and lowercase, like --protocol.
    EXPECT_FALSE(parse({"--interconnect", "Bus"}, &eng));
    EXPECT_FALSE(parse({"--interconnect", ""}, &eng));
}

// Contradictory mode combinations are rejected up front -- one
// harness or mode owns the whole run, so combining two would silently
// ignore one.  Every rejection carries the same message shape.
TEST(EngineOpts, ModeConflictMatrixRejected)
{
    const std::string dir = ::testing::TempDir();
    // Each injection harness conflicts with every other run mode.
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--race-inject",
                                "all"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--sweep", "exact"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--race", "word"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--replay", dir}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--sweep", "model"}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--race", "line"}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--replay", dir}));
    // The working-set sweep models cache capacity only.
    EXPECT_FALSE(parseAndCheck({"--interconnect", "bus", "--sweep",
                                "exact"}));
    // A non-default value the chosen driver never reads: the sweep has
    // no detector or coherence state, the --nomem PRAM run no machine.
    const std::vector<std::vector<std::string>> unread = {
        {"--sweep", "exact", "--race", "word"},
        {"--sweep", "model", "--protocol", "dragon"},
        {"--sweep", "both", "--check", "5"},
        {"--nomem", "1", "--protocol", "dragon"},
        {"--nomem", "1", "--check", "5"},
        {"--nomem", "1", "--interconnect", "bus"},
    };
    for (const auto& combo : unread)
        EXPECT_FALSE(parseAndCheck(combo)) << combo[0] << " " << combo[2];
    // A named fault kind must target the configured interconnect.
    EXPECT_FALSE(parseAndCheck({"--inject", "dropped-inval",
                                "--interconnect", "bus"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "double-owner"}));
    // ...while the matching pairings and 'all' stay runnable.
    EXPECT_TRUE(parseAndCheck({"--inject", "all"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "all", "--interconnect",
                               "bus"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "dropped-inval"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "double-owner",
                               "--interconnect", "bus"}));
    EXPECT_TRUE(parseAndCheck({"--race-inject", "all"}));
    EXPECT_TRUE(parseAndCheck({"--interconnect", "bus", "--race",
                               "word"}));
    EXPECT_TRUE(parseAndCheck({"--interconnect", "directory",
                               "--sweep", "exact"}));
    EXPECT_TRUE(parseAndCheck({"--nomem", "1", "--race", "word"}));
    EXPECT_TRUE(parseAndCheck({"--sweep", "both", "--replicas", "off"}));
}

// The rule for a flag the chosen driver never reads is by value, not
// by presence, for every such flag: a default value changes nothing
// and is accepted, exactly as --interconnect directory is with
// --sweep, while any other value is rejected.
TEST(EngineOpts, UnreadFlagsRejectedByValueNotPresence)
{
    const std::vector<std::vector<std::string>> defaults = {
        {"--sweep", "exact", "--race", "off"},
        {"--sweep", "model", "--protocol", "mesi"},
        {"--sweep", "both", "--check", "0"},
        {"--sweep", "exact", "--interconnect", "directory"},
        {"--nomem", "1", "--protocol", "mesi"},
        {"--nomem", "1", "--check", "0"},
        {"--nomem", "1", "--interconnect", "directory"},
    };
    for (const auto& combo : defaults) {
        EXPECT_TRUE(parseAndCheck(combo)) << combo[0] << " " << combo[2];
        std::vector<std::string> other = combo;
        other[3] = combo[2] == "--race"       ? "line"
                   : combo[2] == "--protocol" ? "msi"
                   : combo[2] == "--check"    ? "1"
                                              : "bus";
        EXPECT_FALSE(parseAndCheck(other))
            << other[0] << " " << other[2] << " " << other[3];
    }
}

// All contradictory combinations -- including the two rejected inside
// parseEngineOpts itself -- share one diagnostic shape, so scripts
// can grep a single prefix.
TEST(EngineOpts, ConflictDiagnosticsShareOneShape)
{
    const std::string dir = ::testing::TempDir();
    const std::vector<std::vector<std::string>> combos = {
        {"--inject", "all", "--race", "word"},
        {"--race-inject", "all", "--sweep", "exact"},
        {"--interconnect", "bus", "--sweep", "both"},
        {"--sweep", "exact", "--race", "word"},
        {"--nomem", "1", "--check", "5"},
        {"--inject", "ghost-exclusive"},
        {"--record", dir + "cli_conflict_store", "--replay", dir},
    };
    for (const auto& combo : combos) {
        std::string err;
        EXPECT_FALSE(parseAndCheck(combo, &err));
        EXPECT_EQ(err.rfind("conflicting flags: ", 0), 0u)
            << "diagnostic for " << combo[0]
            << " does not share the uniform shape: " << err;
    }
}

// --protocol list is informational: the parse "fails" so the caller
// stops, but listRequested distinguishes exit 0 from a usage error.
TEST(EngineOpts, ProtocolListIsInformationalNotAnError)
{
    EngineOpts eng;
    ::testing::internal::CaptureStdout();
    EXPECT_FALSE(parse({"--protocol", "list"}, &eng));
    std::string zoo = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(eng.listRequested);
    for (int k = 0; k < splash::sim::kNumProtocols; ++k)
        EXPECT_NE(zoo.find(splash::sim::protocolName(
                      static_cast<splash::sim::ProtocolKind>(k))),
                  std::string::npos)
            << "zoo listing is missing protocol " << k;
}

namespace {

/** Parse @p words the way every binary does -- its declared engine
 *  flags @p flags plus the program's own @p own flags -- then report
 *  leftovers.  Returns the captured stderr; @p unknown is whether a
 *  leftover was reported. */
std::string
leftoverFlags(std::vector<std::string> words,
              const std::vector<std::string>& own, bool* unknown,
              unsigned flags = kAllEngineFlags)
{
    std::vector<std::string> full = {"prog"};
    full.insert(full.end(), words.begin(), words.end());
    std::vector<char*> argv;
    for (auto& s : full)
        argv.push_back(s.data());
    Options opt(static_cast<int>(argv.size()), argv.data());
    EngineOpts eng;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(parseEngineOpts(opt, flags, &eng));
    for (const std::string& k : own)
        opt.has(k);
    *unknown = opt.reportUnknown();
    return ::testing::internal::GetCapturedStderr();
}

} // namespace

// A flag no reader consumed is an error, not a silent default: a typo
// such as --protcol must not run the default MESI machine.
TEST(Options, UnknownFlagIsReported)
{
    const std::vector<std::string> own = {"app", "procs", "n"};
    bool unknown = false;
    std::string err = leftoverFlags(
        {"--app", "fft", "--procs", "4", "--n", "10", "--protcol",
         "moesi"},
        own, &unknown);
    EXPECT_TRUE(unknown);
    EXPECT_EQ(err, "unknown flag --protcol\n");

    err = leftoverFlags({"--app", "fft", "--protocol", "moesi",
                         "--quick"},
                        own, &unknown);
    EXPECT_TRUE(unknown) << "--quick is not one of this program's flags";
    EXPECT_EQ(err, "unknown flag --quick\n");

    err = leftoverFlags({"--app", "fft", "--protocol", "moesi", "--jobs",
                         "2", "--replicas", "off"},
                        own, &unknown);
    EXPECT_FALSE(unknown);
    EXPECT_TRUE(err.empty()) << err;
}

// Each binary declares the engine flags its drivers read.  A declared
// flag parses; an undeclared one is never looked up, so it is left to
// reportUnknown() like a typo instead of being silently ignored.
TEST(Options, EachBinaryAcceptsOnlyItsDeclaredEngineFlags)
{
    const std::string dir = ::testing::TempDir();
    struct Flag
    {
        std::string name, value;
        unsigned bit;
    };
    const std::vector<Flag> flags = {
        {"jobs", "2", kFlagJobs},
        {"quantum", "100", kFlagQuantum},
        {"record", dir + "cli_declared_store", kFlagStore},
        {"replay", dir, kFlagStore},
        {"sweep", "model", kFlagSweep},
        {"replicas", "off", kFlagReplicas},
        {"check", "10", kFlagCheck},
        {"protocol", "msi", kFlagProtocol},
        {"interconnect", "bus", kFlagInterconnect},
        {"race", "word", kFlagRace},
    };
    struct Set
    {
        const char* binaries;
        unsigned flags;
        int accepted;
    };
    const Set sets[] = {
        {"fig1, fig2, table1, table2", kPramFlags, 4},
        {"fig3", kWorkingSetFlags, 6},
        {"fig4, fig5, table3", kExperimentFlags, 6},
        {"fig6, fig7, ablation", kCharacterizationFlags, 7},
        {"interconnect_traffic", kCharacterizationFlags & ~kFlagProtocol,
         6},
        {"splash2run", kAllEngineFlags, 10},
    };
    for (const Set& set : sets) {
        int accepted = 0;
        for (const Flag& f : flags) {
            bool unknown = false;
            const std::string err = leftoverFlags(
                {"--" + f.name, f.value}, {}, &unknown, set.flags);
            if ((set.flags & f.bit) != 0) {
                EXPECT_FALSE(unknown) << set.binaries << ": --" << f.name;
                EXPECT_TRUE(err.empty()) << err;
                ++accepted;
            } else {
                EXPECT_TRUE(unknown) << set.binaries << ": --" << f.name;
                EXPECT_EQ(err, "unknown flag --" + f.name + "\n");
            }
        }
        EXPECT_EQ(accepted, set.accepted) << set.binaries;
    }
}

TEST(Options, RemovedEngineFlagsAreUnknown)
{
    // No engine flag selects an execution backend, a delivery shape or
    // a sweep replay pool: those spellings are unknown flags like any
    // other.
    for (const char* removed : {"backend", "delivery", "sweep-threads"}) {
        bool unknown = false;
        std::string err = leftoverFlags(
            {"--app", "fft", std::string("--") + removed, "fiber"},
            {"app"}, &unknown);
        EXPECT_TRUE(unknown) << removed;
        EXPECT_EQ(err, std::string("unknown flag --") + removed + "\n");
    }
    // ...and the replica consumer shape is not a --replicas value.
    EngineOpts eng;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse({"--replicas", "threads"}, &eng));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "unknown --replicas 'threads' (off or auto)\n");
}

// Non-numeric and partially-numeric values must terminate with an
// error (exit 1) instead of truncating ("2x" -> 2) or throwing an
// unhandled std::invalid_argument out of main().
TEST(EngineOptsDeathTest, NumericGarbageIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EngineOpts eng;
    EXPECT_EXIT(parse({"--jobs", "many"}, &eng),
                ::testing::ExitedWithCode(1), "expects an integer");
    EXPECT_EXIT(parse({"--quantum", "2x"}, &eng),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(OptionsDeathTest, NonNumericDoubleIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<std::string> full = {"prog", "--scale", "1.5x"};
    std::vector<char*> argv;
    for (auto& s : full)
        argv.push_back(s.data());
    Options opt(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT(opt.getD("scale", 1.0), ::testing::ExitedWithCode(1),
                "expects a number");
}
