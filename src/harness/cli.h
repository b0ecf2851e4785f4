/**
 * @file
 * Engine-related command-line flags of the characterization benches
 * and splash2run.  Each binary declares the set its drivers read
 * (the kFlag* bits below); parseEngineOpts looks up only those, so any
 * other engine flag reaches Options::reportUnknown() and the binary
 * exits 2 with "unknown flag --X" instead of running a setup it
 * cannot honour.
 *
 *   --jobs N          host threads for independent experiments
 *                     (N >= 1; default 1 = serial)
 *   --quantum N       instrumentation events per scheduling slice
 *                     (default 250)
 *   --record DIR      record each executed (app, P) reference stream
 *                     into trace store DIR (created if missing); an
 *                     already-recorded identity is skipped
 *   --replay DIR      replay reference streams from trace store DIR
 *                     (or a single .s2t file) instead of executing;
 *                     mutually exclusive with --record
 *   --sweep MODE      working-set sweep engine: exact | model | both
 *                     (default exact).  model predicts the Figure-3
 *                     curves from a reuse-distance profile instead of
 *                     simulating every cache configuration; both runs
 *                     the two and reports model-vs-exact error
 *   --replicas MODE   how multi-configuration runs share a stream:
 *                     off | auto (default auto).  auto broadcasts
 *                     one stream to every configuration, on consumer
 *                     threads on a multi-core host and inline on a
 *                     single core; off gives each configuration its
 *                     own run of the single-configuration driver
 *   --check N         coherence invariant checker sampling period: a
 *                     full directory/cache cross-validation every N
 *                     slow-path transactions (0 = off, the default)
 *   --protocol NAME   coherence protocol of the simulated machine:
 *                     msi | mesi | moesi | dragon (default mesi), or
 *                     "list" to print the protocol zoo and exit
 *   --interconnect K  interconnect organization of the simulated
 *                     machine: directory | bus (default directory).
 *                     Bus mode snoops the tag arrays instead of
 *                     consulting a directory and accounts address/data
 *                     bus occupancy instead of packet bytes
 *   --race GRAN       happens-before race detection over the
 *                     reference stream: off | word | line (default
 *                     off).  Observation only: characterization
 *                     output is byte-identical for any value.
 *
 * Every bench reads --jobs, --quantum, --record and --replay (the
 * working-set sweep adds --sweep and --replicas, the memory-system
 * benches --check and --protocol, the broadcast benches --replicas);
 * --interconnect and --race, whose results only splash2run reports,
 * are splash2run's alone.
 *
 * --record and --replay act in one place: the StreamSource every
 * driver in harness/experiment.h and harness/workingset.h gets its
 * reference stream from, so a live, recording or replayed run takes
 * the same path through every driver and every --replicas mode.
 *
 * --protocol and --interconnect select the machine being measured,
 * which reaches a driver only as a MemExperiment, and --quantum
 * selects the interleaving (where the scheduler switches processors),
 * so those three change results by design: radix at P=8, for one,
 * reports different traffic bytes per instruction at --quantum 7 than
 * at 250, which is why a recorded trace pins its quantum.  Every
 * other flag changes wall clock only, or adds observation; results
 * and output bytes are identical for any combination (--jobs 1
 * --replicas off is the serial differential oracle).  Invalid values
 * are rejected with an error rather than silently falling back, and
 * contradictory flag combinations are rejected up front with one
 * uniform message shape ("conflicting flags: ...") via
 * checkModeConflicts().
 */
#ifndef SPLASH2_HARNESS_CLI_H
#define SPLASH2_HARNESS_CLI_H

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "harness/report.h"
#include "sim/faultinject.h"

namespace splash::harness {

/** One bit per engine flag a binary can declare; --record and
 *  --replay share kFlagStore, the two ends of the trace store. */
constexpr unsigned kFlagJobs = 1u << 0;
constexpr unsigned kFlagQuantum = 1u << 1;
constexpr unsigned kFlagStore = 1u << 2;
constexpr unsigned kFlagSweep = 1u << 3;
constexpr unsigned kFlagReplicas = 1u << 4;
constexpr unsigned kFlagCheck = 1u << 5;
constexpr unsigned kFlagProtocol = 1u << 6;
constexpr unsigned kFlagInterconnect = 1u << 7;
constexpr unsigned kFlagRace = 1u << 8;

/** The engine flags each driver reads.  runPram (Figures 1-2, Table
 *  1) and the exact-only sweep of Table 2 read the stream flags; the
 *  Figure-3 sweep adds its engine choice and the profiler's replica
 *  shape; runExperiment (Figures 4-5, Table 3) adds the checker and
 *  the protocol; runCharacterizations (Figures 6-7, the ablation)
 *  adds --replicas to those.  splash2run runs every driver. */
constexpr unsigned kPramFlags = kFlagJobs | kFlagQuantum | kFlagStore;
constexpr unsigned kWorkingSetFlags = kPramFlags | kFlagSweep | kFlagReplicas;
constexpr unsigned kExperimentFlags = kPramFlags | kFlagCheck | kFlagProtocol;
constexpr unsigned kCharacterizationFlags = kExperimentFlags | kFlagReplicas;
constexpr unsigned kAllEngineFlags = (kFlagRace << 1) - 1;

struct EngineOpts
{
    int jobs = 1;
    SimOpts sim;
    /** The simulated machine (--protocol, --interconnect); a bench
     *  copies them into its MemExperiments. */
    sim::ProtocolKind protocol = sim::ProtocolKind::MESI;
    sim::Interconnect interconnect = sim::Interconnect::Directory;
    /** True when parseEngineOpts handled an informational request
     *  (--protocol list) and printed it: the caller should exit 0
     *  instead of treating the false return as a usage error. */
    bool listRequested = false;
    /** True when --sweep was given explicitly (splash2run switches
     *  from the memory-system characterization to the working-set
     *  sweep on it; the sweep benches always sweep). */
    bool sweepRequested = false;
};

/** Print the one uniform diagnostic shape for a contradictory flag
 *  combination and return false, so callers can
 *  `return conflictingFlags(...)` from a parse path. */
inline bool
conflictingFlags(const std::string& a, const std::string& b,
                 const std::string& why)
{
    std::fprintf(stderr,
                 "conflicting flags: %s and %s cannot be combined "
                 "(%s)\n",
                 a.c_str(), b.c_str(), why.c_str());
    return false;
}

/** Parse the engine flags in @p flags (kFlag* bits); the others
 *  are not looked up, keep their defaults, and are left to
 *  Options::reportUnknown().  Prints to stderr and returns false on an
 *  unrecognized value. */
inline bool
parseEngineOpts(const Options& opt, unsigned flags, EngineOpts* out)
{
    const auto getI = [&](unsigned f, const char* k, long def) {
        return (flags & f) != 0 ? opt.getI(k, def) : def;
    };
    const auto getS = [&](unsigned f, const char* k, const char* def) {
        return (flags & f) != 0 ? opt.getS(k, def) : std::string(def);
    };
    long jobs = getI(kFlagJobs, "jobs", 1);
    if (jobs < 1) {
        std::fprintf(stderr, "--jobs must be >= 1 (got %ld)\n", jobs);
        return false;
    }
    out->jobs = static_cast<int>(jobs);
    long quantum = getI(kFlagQuantum, "quantum", 250);
    if (quantum < 1) {
        std::fprintf(stderr, "--quantum must be >= 1 (got %ld)\n",
                     quantum);
        return false;
    }
    out->sim.quantum = static_cast<std::uint64_t>(quantum);
    std::string sweepMode = getS(kFlagSweep, "sweep", "exact");
    out->sweepRequested = (flags & kFlagSweep) != 0 && opt.has("sweep");
    if (!sim::parseSweepMode(sweepMode, &out->sim.sweep)) {
        std::fprintf(stderr,
                     "unknown --sweep '%s' (exact, model, or both)\n",
                     sweepMode.c_str());
        return false;
    }
    long check = getI(kFlagCheck, "check", 0);
    if (check < 0) {
        std::fprintf(stderr,
                     "--check must be >= 0 (got %ld; 0 = off)\n", check);
        return false;
    }
    out->sim.checkPeriod = static_cast<std::uint64_t>(check);
    std::string replicas = getS(kFlagReplicas, "replicas", "auto");
    if (!parseReplicas(replicas, &out->sim.replicas)) {
        std::fprintf(stderr,
                     "unknown --replicas '%s' (off or auto)\n",
                     replicas.c_str());
        return false;
    }
    std::string protoName = getS(kFlagProtocol, "protocol", "mesi");
    if (protoName == "list") {
        std::fputs(sim::protocolZoo().c_str(), stdout);
        out->listRequested = true;
        return false;
    }
    if (!sim::parseProtocol(protoName, &out->protocol)) {
        std::fprintf(stderr,
                     "unknown --protocol '%s' (msi, mesi, moesi, "
                     "dragon, or list)\n",
                     protoName.c_str());
        return false;
    }
    std::string icName =
        getS(kFlagInterconnect, "interconnect", "directory");
    if (!sim::parseInterconnect(icName, &out->interconnect)) {
        std::fprintf(stderr,
                     "unknown --interconnect '%s' (directory or "
                     "bus)\n",
                     icName.c_str());
        return false;
    }
    std::string race = getS(kFlagRace, "race", "off");
    if (!sim::parseRaceGranularity(race, &out->sim.race)) {
        std::fprintf(stderr,
                     "unknown --race '%s' (off, word, or line)\n",
                     race.c_str());
        return false;
    }
    out->sim.record = getS(kFlagStore, "record", "");
    out->sim.replay = getS(kFlagStore, "replay", "");
    if (!out->sim.record.empty() && !out->sim.replay.empty())
        return conflictingFlags("--record", "--replay",
                                "a run either writes the trace store "
                                "or reads from it");
    if (!out->sim.replay.empty()) {
        struct stat st{};
        if (::stat(out->sim.replay.c_str(), &st) != 0) {
            std::fprintf(stderr,
                         "--replay path '%s' does not exist\n",
                         out->sim.replay.c_str());
            return false;
        }
    }
    if (!out->sim.record.empty()) {
        // The store is a directory of one file per recorded identity;
        // create it up front so a non-writable destination fails here
        // rather than mid-run (a path naming an existing regular file
        // is allowed: single-file recording).
        struct stat st{};
        if (::stat(out->sim.record.c_str(), &st) != 0) {
            if (::mkdir(out->sim.record.c_str(), 0777) != 0) {
                std::fprintf(
                    stderr,
                    "--record path '%s' cannot be created\n",
                    out->sim.record.c_str());
                return false;
            }
        } else if (S_ISDIR(st.st_mode) &&
                   ::access(out->sim.record.c_str(), W_OK) != 0) {
            std::fprintf(stderr,
                         "--record path '%s' is not writable\n",
                         out->sim.record.c_str());
            return false;
        }
    }
    return true;
}

/** Reject contradictory mode-flag combinations with the uniform
 *  "conflicting flags" diagnostic.  splash2run calls this once after
 *  parseEngineOpts; it covers the run-mode matrix the engine flags
 *  cannot see on their own (--inject, --race-inject and --nomem are
 *  splash2run flags, not engine flags).  Each harness or mode owns
 *  the whole run, so combining two of them, or giving a mode a
 *  non-default value its driver never reads, would silently ignore
 *  one -- reject instead of no-op.  Returns true when the combination is runnable.
 */
inline bool
checkModeConflicts(const Options& opt, const EngineOpts& eng)
{
    const bool inject = opt.has("inject");
    const bool raceInject = opt.has("race-inject");
    const bool record = !eng.sim.record.empty();
    const bool replay = !eng.sim.replay.empty();
    const bool race = eng.sim.race != sim::RaceGranularity::Off;
    const bool bus = eng.interconnect == sim::Interconnect::Bus;

    if (inject && raceInject)
        return conflictingFlags("--inject", "--race-inject",
                                "each injection harness owns the "
                                "whole run");
    if (inject || raceInject) {
        const std::string flag = inject ? "--inject" : "--race-inject";
        if (eng.sweepRequested)
            return conflictingFlags(flag, "--sweep",
                                    "the working-set sweep has no "
                                    "protocol state to corrupt");
        if (record)
            return conflictingFlags(flag, "--record",
                                    "injection runs corrupt state and "
                                    "must not enter the trace store");
        if (replay)
            return conflictingFlags(flag, "--replay",
                                    "the harness re-executes the "
                                    "program itself");
        if (race)
            return conflictingFlags(flag, "--race",
                                    "the harness drives its own "
                                    "detector configuration");
    }
    if (bus && eng.sweepRequested)
        return conflictingFlags("--interconnect bus", "--sweep",
                                "the working-set sweep models cache "
                                "capacity only and has no "
                                "interconnect");
    // A non-default value the chosen driver never reads: the
    // working-set sweep has no detector and no coherence state, and
    // the --nomem PRAM run (which does attach the detector) has no
    // machine.  A default value changes nothing and stays legal, as
    // --interconnect directory does with --sweep above.
    const EngineOpts def;
    const char* unread = nullptr;
    if (eng.protocol != def.protocol)
        unread = "--protocol";
    else if (eng.sim.checkPeriod != def.sim.checkPeriod)
        unread = "--check";
    if (eng.sweepRequested && (race || unread != nullptr))
        return conflictingFlags("--sweep", race ? "--race" : unread,
                                "the working-set sweep models cache "
                                "capacity only");
    if (opt.has("nomem") && (bus || unread != nullptr))
        return conflictingFlags("--nomem",
                                bus ? "--interconnect bus" : unread,
                                "the PRAM run simulates no machine");
    // A named fault kind targets one organization's state; injecting
    // it under the other interconnect could only ever SKIP, so the
    // mismatch is rejected at parse time ('all' filters by
    // eligibility instead).
    if (inject) {
        std::string which = opt.getS("inject", "all");
        sim::FaultKind k;
        if (which != "all" && sim::parseFaultKind(which, &k) &&
            sim::faultKindIsBus(k) != bus)
            return conflictingFlags(
                "--inject " + which,
                bus ? "--interconnect bus" : "--interconnect directory",
                sim::faultKindIsBus(k)
                    ? "this fault kind corrupts snoopy-bus state"
                    : "this fault kind corrupts directory state");
    }
    return true;
}

/** Relative execution cost of one characterization of @p app at the
 *  suite default problem size -- a scheduling hint for the runner's
 *  LPT ordering (measured on the committed results; only the ordering
 *  matters, not the absolute values). */
inline double
appCostHint(const App& app)
{
    const std::string n = app.name();
    if (n == "FMM") return 8.0;
    if (n == "Barnes") return 6.0;
    if (n == "Ocean") return 5.0;
    if (n == "Water-Nsq") return 4.0;
    if (n == "Radiosity") return 3.0;
    if (n == "Raytrace") return 3.0;
    if (n == "Volrend") return 2.0;
    if (n == "Water-Sp") return 2.0;
    if (n == "Cholesky") return 1.5;
    return 1.0;  // FFT, LU, Radix
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_CLI_H
