/**
 * @file
 * Experiment drivers shared by the characterization benches: run a
 * program under a given machine configuration and collect execution
 * and memory-system statistics.
 */
#ifndef SPLASH2_HARNESS_EXPERIMENT_H
#define SPLASH2_HARNESS_EXPERIMENT_H

#include <memory>
#include <thread>

#include "base/log.h"
#include "harness/app.h"
#include "rt/env.h"
#include "sim/memsys.h"
#include "sim/racecheck.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "sim/tracestore.h"

namespace splash::harness {

/** Results of one instrumented execution. */
struct RunStats
{
    rt::ProcStats exec;            ///< aggregate execution counters
    std::vector<rt::ProcStats> perProc;
    sim::MemStats mem;             ///< aggregate memory-system counters
    std::vector<sim::MemStats> memPerProc;
    Tick elapsed = 0;              ///< PRAM time of the measured window
    bool valid = true;
    /** Race-detection verdict (SimOpts::race != Off only). */
    bool raceChecked = false;
    sim::RaceOutcome race;
};

/** How multi-configuration characterizations execute (bit-identical
 *  results in either mode):
 *
 *  - Off: one dedicated execution per configuration, each with its
 *    own Env (the serial oracle for broadcast replay).
 *  - Auto: one execution broadcast to all configurations.  The
 *    replicas run on consumer threads with bounded back-pressure when
 *    threadedReplicas() says so, else on the producer thread. */
enum class Replicas : std::uint8_t { Off, Auto };

inline bool
parseReplicas(const std::string& s, Replicas* out)
{
    if (s == "off") *out = Replicas::Off;
    else if (s == "auto") *out = Replicas::Auto;
    else return false;
    return true;
}

/** Auto's consumer shape for broadcast replicas: one consumer thread
 *  per replica when the host has more than one core, else inline on
 *  the producer thread (which saves the redundant executions without
 *  oversubscribing a single core). */
inline bool
threadedReplicas()
{
    return std::thread::hardware_concurrency() > 1;
}

/** Simulation-substrate knobs shared by the drivers below; the
 *  quantum default matches EnvConfig.  `protocol` and `interconnect`
 *  select the machine being measured and `quantum` the interleaving,
 *  so those three change results; the others change simulation speed
 *  or add observation only. */
struct SimOpts
{
    std::uint64_t quantum = 250;
    /** Coherence protocol for memory-system runs (--protocol). */
    sim::ProtocolKind protocol = sim::ProtocolKind::MESI;
    /** Interconnect organization for memory-system runs
     *  (--interconnect): the paper's point-to-point directory machine
     *  or a snoopy broadcast bus (sim/bus.h).  Like `protocol`, this
     *  selects the machine being measured. */
    sim::Interconnect interconnect = sim::Interconnect::Directory;
    /** Working-set sweep engine (--sweep): the exact simulation of
     *  every operating point, the reuse-distance analytical model, or
     *  both side by side (sim/reusedist.h). */
    sim::SweepMode sweep = sim::SweepMode::Exact;
    /** Broadcast-replay mode for multi-configuration experiments. */
    Replicas replicas = Replicas::Auto;
    /** Coherence invariant checker: run the full sweep every N
     *  slow-path transactions (0 = off).  Observation only -- results
     *  are identical with any value; violations abort. */
    std::uint64_t checkPeriod = 0;
    /** Happens-before race detection over the reference stream
     *  (--race).  Observation only: every characterization statistic
     *  is byte-identical with any value.  Word granularity verifies
     *  the suite's synchronization; Line quantifies false sharing. */
    sim::RaceGranularity race = sim::RaceGranularity::Off;
    /** Trace-store directory (or single .s2t file) to record this
     *  run's reference stream into (--record; empty = off).  Records
     *  ride alongside the live sinks, so recording never changes
     *  results; an already-recorded (app, P, problem, quantum) is
     *  skipped (record once). */
    std::string record;
    /** Trace-store directory (or single .s2t file) to replay from
     *  (--replay; empty = off).  The application never executes:
     *  every sink is fed the recorded stream, and execution counters
     *  come from the trace footer -- statistics are byte-identical to
     *  a live run. */
    std::string replay;
};

/** RaceChecker for one operating point: Word granules are fixed at 4
 *  bytes; Line granules follow the experiment's line size. */
inline sim::RaceConfig
raceConfigFor(sim::RaceGranularity gran, int nprocs, int lineSize)
{
    sim::RaceConfig rc;
    rc.gran = gran;
    rc.nprocs = nprocs;
    rc.lineSize = lineSize;
    return rc;
}

// ----------------------------------------------------------------------
// Trace-store glue (sim/tracestore.h): identity of a recording, the
// execution-profile <-> ProcStats conversions, and the record/replay
// entry points shared by every driver below.

/** Identity a trace is recorded under: everything the reference
 *  stream of (app, P) depends on.  The quantum is pinned because it
 *  sets where the interleaver switches processors: another quantum is
 *  another interleaving, and the sharing behavior it produces (misses,
 *  traffic) can differ. */
inline sim::TraceMeta
traceMetaFor(const App& app, int nprocs, const AppConfig& cfg,
             const SimOpts& simOpts)
{
    sim::TraceMeta m;
    m.app = app.name();
    m.nprocs = nprocs;
    m.scale = cfg.scale;
    m.n = cfg.n;
    m.iters = cfg.iters;
    m.aux = cfg.aux;
    m.seed = cfg.seed;
    m.quantum = simOpts.quantum;
    return m;
}

/** Pack per-processor execution counters into the footer image. */
inline sim::ExecProfile
execProfileFrom(const std::vector<rt::ProcStats>& perProc, Tick elapsed,
                bool valid)
{
    sim::ExecProfile e;
    e.valid = valid;
    e.elapsed = elapsed;
    for (const rt::ProcStats& s : perProc)
        e.procs.push_back({s.reads, s.writes, s.flops, s.work,
                           s.barriers, s.locks, s.pauses, s.barrierWait,
                           s.lockWait, s.pauseWait, s.startTime,
                           s.finishTime});
    return e;
}

/** Rebuild the execution half of a RunStats from a trace footer. */
inline RunStats
statsFromProfile(const sim::ExecProfile& e)
{
    RunStats r;
    r.valid = e.valid;
    r.elapsed = e.elapsed;
    for (const sim::ExecProfile::Row& row : e.procs) {
        rt::ProcStats s;
        s.reads = row[0];
        s.writes = row[1];
        s.flops = row[2];
        s.work = row[3];
        s.barriers = row[4];
        s.locks = row[5];
        s.pauses = row[6];
        s.barrierWait = row[7];
        s.lockWait = row[8];
        s.pauseWait = row[9];
        s.startTime = row[10];
        s.finishTime = row[11];
        r.perProc.push_back(s);
        r.exec += s;
    }
    return r;
}

/** Recorder for this run, or null when recording is off or a
 *  finalized trace for this identity already exists (record once). */
inline std::unique_ptr<sim::TraceWriter>
makeRecorder(const App& app, int nprocs, const AppConfig& cfg,
             const SimOpts& simOpts)
{
    if (simOpts.record.empty())
        return nullptr;
    const sim::TraceMeta m = traceMetaFor(app, nprocs, cfg, simOpts);
    if (sim::tracestore::haveTrace(simOpts.record, m))
        return nullptr;
    return std::make_unique<sim::TraceWriter>(
        sim::tracestore::pathFor(simOpts.record, m), m);
}

/** Finalize a recording with the run's execution profile. */
inline void
finalizeRecording(sim::TraceWriter& rec, const RunStats& r)
{
    std::string err;
    if (!rec.finalize(execProfileFrom(r.perProc, r.elapsed, r.valid),
                      &err))
        fatal(err);
}

/** Open (and identity-check) the trace this run replays from. */
inline std::unique_ptr<sim::TraceReader>
openReplay(const App& app, int nprocs, const AppConfig& cfg,
           const SimOpts& simOpts)
{
    std::string err;
    auto rd = sim::tracestore::openFor(
        simOpts.replay, traceMetaFor(app, nprocs, cfg, simOpts), &err);
    if (rd == nullptr)
        fatal(err);
    return rd;
}

/** Run @p app on @p nprocs with no memory system attached (PRAM-only;
 *  Figures 1 and 2, Table 1).  An optional pre-built RaceChecker can
 *  be attached (the injection harness arms drops on it beforehand);
 *  otherwise SimOpts::race != Off attaches an internal one. */
inline RunStats
runPram(App& app, int nprocs, const AppConfig& cfg,
        const SimOpts& sim = {}, sim::RaceChecker* race = nullptr)
{
    std::unique_ptr<sim::RaceChecker> owned;
    if (race == nullptr && sim.race != sim::RaceGranularity::Off) {
        owned = std::make_unique<sim::RaceChecker>(
            raceConfigFor(sim.race, nprocs, 64));
        race = owned.get();
    }
    if (!sim.replay.empty()) {
        auto rd = openReplay(app, nprocs, cfg, sim);
        if (race != nullptr) {
            std::string err;
            if (!rd->replay(race, &err))
                fatal(err);
        }
        RunStats out = statsFromProfile(rd->exec());
        if (race != nullptr) {
            out.raceChecked = true;
            out.race = race->outcome();
        }
        return out;
    }
    rt::Env env({rt::Mode::Sim, nprocs, sim.quantum});
    if (race != nullptr)
        env.attachSink(race);
    auto rec = makeRecorder(app, nprocs, cfg, sim);
    if (rec)
        env.attachSink(rec.get());
    RunStats out;
    out.valid = app.run(env, cfg).valid;
    for (int p = 0; p < nprocs; ++p) {
        out.perProc.push_back(env.stats(p));
        out.exec += env.stats(p);
    }
    out.elapsed = env.elapsed();
    if (rec)
        finalizeRecording(*rec, out);
    if (race != nullptr) {
        out.raceChecked = true;
        out.race = race->outcome();
    }
    return out;
}

/** One memory-system operating point of a multi-configuration
 *  characterization. */
struct MemExperiment
{
    sim::CacheConfig cache;
    bool hints = true;   ///< replacement hints (protocol ablation)
    bool placed = true;  ///< placement-aware homes vs pure interleave
    /** Coherence protocol of this replica; benches forward the
     *  --protocol flag here (one broadcast replay can feed replicas
     *  running different protocols side by side). */
    sim::ProtocolKind protocol = sim::ProtocolKind::MESI;
    /** Interconnect of this replica; one broadcast replay can feed a
     *  directory replica and a bus replica from the same execution
     *  (results/interconnect.csv is produced exactly that way). */
    sim::Interconnect interconnect = sim::Interconnect::Directory;
};

/** Broadcast replica set for @p exps: one MemSystem replica per
 *  experiment (placed ones resolve homes through @p homes), then --
 *  when race detection is on -- race replicas appended after the
 *  memory systems and deduplicated by granule size: Word granules are
 *  line-size independent (one replica serves every experiment), Line
 *  granules need one replica per distinct line size.
 *  @p raceReplicaOfExp maps each experiment to its race replica's
 *  spec index (-1 when race detection is off). */
inline std::vector<sim::ReplicaSpec>
broadcastSpecs(const std::vector<MemExperiment>& exps, int nprocs,
               const SimOpts& simOpts, const sim::HomeResolver* homes,
               std::vector<int>* raceReplicaOfExp)
{
    std::vector<sim::ReplicaSpec> specs;
    specs.reserve(exps.size());
    for (const MemExperiment& e : exps) {
        sim::ReplicaSpec s;
        s.machine.nprocs = nprocs;
        s.machine.cache = e.cache;
        s.machine.replacementHints = e.hints;
        s.machine.protocol = e.protocol;
        s.machine.interconnect = e.interconnect;
        s.homes = e.placed ? homes : nullptr;
        s.checkPeriod = simOpts.checkPeriod;
        specs.push_back(s);
    }
    raceReplicaOfExp->assign(exps.size(), -1);
    if (simOpts.race != sim::RaceGranularity::Off) {
        for (std::size_t i = 0; i < exps.size(); ++i) {
            const int granule =
                simOpts.race == sim::RaceGranularity::Word
                    ? 4
                    : exps[i].cache.lineSize;
            for (std::size_t j = 0; j < i; ++j) {
                if ((*raceReplicaOfExp)[j] >= 0 &&
                    specs[(*raceReplicaOfExp)[j]]
                            .machine.cache.lineSize == granule) {
                    (*raceReplicaOfExp)[i] = (*raceReplicaOfExp)[j];
                    break;
                }
            }
            if ((*raceReplicaOfExp)[i] >= 0)
                continue;
            sim::ReplicaSpec s;
            s.machine.nprocs = nprocs;
            s.machine.cache.lineSize = granule;
            s.race = simOpts.race;
            (*raceReplicaOfExp)[i] = static_cast<int>(specs.size());
            specs.push_back(s);
        }
    }
    return specs;
}

/** The live broadcast path of runCharacterizations with an explicit
 *  consumer shape: @p app executes once and a BroadcastReplay feeds
 *  one replica per experiment, replayed on one consumer thread per
 *  replica when @p threaded, else inline on the producer thread.
 *  Both shapes give identical statistics (tests/sim/replay_test.cc);
 *  runCharacterizations picks one with threadedReplicas(). */
inline std::vector<RunStats>
broadcastCharacterizations(App& app, int nprocs,
                           const std::vector<MemExperiment>& exps,
                           const AppConfig& cfg, const SimOpts& simOpts,
                           bool threaded)
{
    std::vector<RunStats> out;
    auto rec = makeRecorder(app, nprocs, cfg, simOpts);
    rt::Env env({rt::Mode::Sim, nprocs, simOpts.quantum});
    std::vector<int> raceReplicaOfExp;
    std::vector<sim::ReplicaSpec> specs = broadcastSpecs(
        exps, nprocs, simOpts, &env.heap(), &raceReplicaOfExp);
    sim::BroadcastReplay replay(specs, threaded);
    env.attachSink(&replay);
    if (rec)
        env.attachSink(rec.get());
    RunStats base;
    base.valid = app.run(env, cfg).valid;
    replay.flush();
    for (int p = 0; p < nprocs; ++p) {
        base.perProc.push_back(env.stats(p));
        base.exec += env.stats(p);
    }
    base.elapsed = env.elapsed();
    if (rec)
        finalizeRecording(*rec, base);
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const int ri = static_cast<int>(i);
        RunStats r = base;
        for (int p = 0; p < nprocs; ++p)
            r.memPerProc.push_back(replay.replica(ri).procStats(p));
        r.mem = replay.replica(ri).total();
        if (raceReplicaOfExp[i] >= 0) {
            r.raceChecked = true;
            r.race =
                replay.raceReplica(raceReplicaOfExp[i]).outcome();
        }
        out.push_back(std::move(r));
    }
    return out;
}

/** Characterize @p app on @p nprocs under every configuration in
 *  @p exps from ONE reference stream.
 *
 *  The PRAM reference stream of a given (app, P) does not depend on
 *  the memory system, so with broadcast replay enabled (the default)
 *  the application executes once and a BroadcastReplay feeds one
 *  MemSystem replica per experiment; with Replicas::Off each
 *  experiment re-executes serially in its own Env.  Statistics are
 *  bit-identical across all modes (tests/sim/replay_test.cc). */
inline std::vector<RunStats>
runCharacterizations(App& app, int nprocs,
                     const std::vector<MemExperiment>& exps,
                     const AppConfig& cfg, const SimOpts& simOpts = {})
{
    std::vector<RunStats> out;
    const bool threaded =
        simOpts.replicas == Replicas::Auto && threadedReplicas();
    if (!simOpts.replay.empty()) {
        // Replay from disk: the recorded stream feeds the broadcast
        // replicas directly -- zero fiber execution, execution
        // counters from the trace footer, statistics byte-identical
        // to any live mode (broadcast == serial is proven by
        // tests/sim/replay_test.cc; disk == live by
        // tests/sim/tracestore_test.cc).
        auto rd = openReplay(app, nprocs, cfg, simOpts);
        std::vector<int> raceReplicaOfExp;
        std::vector<sim::ReplicaSpec> specs = broadcastSpecs(
            exps, nprocs, simOpts, rd->placement(), &raceReplicaOfExp);
        sim::BroadcastReplay replay(specs, threaded);
        std::string err;
        if (!rd->replay(&replay, &err))
            fatal(err);
        replay.flush();
        const RunStats base = statsFromProfile(rd->exec());
        for (std::size_t i = 0; i < exps.size(); ++i) {
            const int ri = static_cast<int>(i);
            RunStats r = base;
            for (int p = 0; p < nprocs; ++p)
                r.memPerProc.push_back(replay.replica(ri).procStats(p));
            r.mem = replay.replica(ri).total();
            if (raceReplicaOfExp[i] >= 0) {
                r.raceChecked = true;
                r.race =
                    replay.raceReplica(raceReplicaOfExp[i]).outcome();
            }
            out.push_back(std::move(r));
        }
        return out;
    }
    if (simOpts.replicas == Replicas::Off || exps.size() <= 1) {
        auto rec = makeRecorder(app, nprocs, cfg, simOpts);
        for (const MemExperiment& e : exps) {
            rt::Env env({rt::Mode::Sim, nprocs, simOpts.quantum});
            sim::MachineConfig mc;
            mc.nprocs = nprocs;
            mc.cache = e.cache;
            mc.replacementHints = e.hints;
            mc.protocol = e.protocol;
            mc.interconnect = e.interconnect;
            sim::MemSystem mem(mc, e.placed ? &env.heap() : nullptr);
            mem.setCheckPeriod(simOpts.checkPeriod);
            env.attachMemSystem(&mem);
            std::unique_ptr<sim::RaceChecker> race;
            if (simOpts.race != sim::RaceGranularity::Off) {
                race = std::make_unique<sim::RaceChecker>(raceConfigFor(
                    simOpts.race, nprocs, e.cache.lineSize));
                env.attachSink(race.get());
            }
            if (rec)  // record rides the first serial execution
                env.attachSink(rec.get());
            RunStats r;
            r.valid = app.run(env, cfg).valid;
            for (int p = 0; p < nprocs; ++p) {
                r.perProc.push_back(env.stats(p));
                r.exec += env.stats(p);
                r.memPerProc.push_back(mem.procStats(p));
            }
            r.mem = mem.total();
            r.elapsed = env.elapsed();
            if (rec) {
                finalizeRecording(*rec, r);
                rec.reset();
            }
            if (race) {
                r.raceChecked = true;
                r.race = race->outcome();
            }
            out.push_back(std::move(r));
        }
        return out;
    }

    return broadcastCharacterizations(app, nprocs, exps, cfg, simOpts,
                                      threaded);
}

/** Run @p app under the full directory-coherent memory system
 *  (simOpts.protocol selects the protocol; default MESI). */
inline RunStats
runWithMemSystem(App& app, int nprocs, const sim::CacheConfig& cache,
                 const AppConfig& cfg, const SimOpts& simOpts = {})
{
    if (!simOpts.replay.empty() || !simOpts.record.empty()) {
        // One operating point of the general driver (identical
        // statistics; tests/sim/replay_test.cc), which owns the
        // record-once / replay-from-disk logic.
        MemExperiment e;
        e.cache = cache;
        e.protocol = simOpts.protocol;
        e.interconnect = simOpts.interconnect;
        return runCharacterizations(app, nprocs, {e}, cfg,
                                    simOpts)[0];
    }
    rt::Env env({rt::Mode::Sim, nprocs, simOpts.quantum});
    sim::MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache = cache;
    mc.protocol = simOpts.protocol;
    mc.interconnect = simOpts.interconnect;
    sim::MemSystem mem(mc, &env.heap());
    mem.setCheckPeriod(simOpts.checkPeriod);
    env.attachMemSystem(&mem);
    std::unique_ptr<sim::RaceChecker> race;
    if (simOpts.race != sim::RaceGranularity::Off) {
        race = std::make_unique<sim::RaceChecker>(
            raceConfigFor(simOpts.race, nprocs, cache.lineSize));
        env.attachSink(race.get());
    }
    RunStats out;
    out.valid = app.run(env, cfg).valid;
    for (int p = 0; p < nprocs; ++p) {
        out.perProc.push_back(env.stats(p));
        out.exec += env.stats(p);
        out.memPerProc.push_back(mem.procStats(p));
    }
    out.mem = mem.total();
    out.elapsed = env.elapsed();
    if (race) {
        out.raceChecked = true;
        out.race = race->outcome();
    }
    return out;
}

/** RefSink shim driving a CacheSweep from a replayed stream (the
 *  sweep is not itself a RefSink). */
class SweepRefSink final : public sim::RefSink
{
  public:
    explicit SweepRefSink(sim::CacheSweep& s) : sweep_(s) {}
    void
    access(const sim::AccessRec& r) override
    {
        sweep_.access(r.proc, r.addr, r.size, r.type);
    }
    void resetStats() override { sweep_.resetStats(); }

  private:
    sim::CacheSweep& sweep_;
};

/** Run @p app feeding the multi-configuration cache sweep; the caller
 *  owns the sweep so it can query arbitrary operating points. */
inline RunStats
runWithSweep(App& app, int nprocs, sim::CacheSweep& sweep,
             const AppConfig& cfg, const SimOpts& simOpts = {})
{
    if (!simOpts.replay.empty()) {
        auto rd = openReplay(app, nprocs, cfg, simOpts);
        SweepRefSink sink(sweep);
        std::string err;
        if (!rd->replay(&sink, &err))
            fatal(err);
        return statsFromProfile(rd->exec());
    }
    rt::Env env({rt::Mode::Sim, nprocs, simOpts.quantum});
    env.attachSweep(&sweep);
    auto rec = makeRecorder(app, nprocs, cfg, simOpts);
    if (rec)
        env.attachSink(rec.get());
    RunStats out;
    out.valid = app.run(env, cfg).valid;
    for (int p = 0; p < nprocs; ++p) {
        out.perProc.push_back(env.stats(p));
        out.exec += env.stats(p);
    }
    out.elapsed = env.elapsed();
    if (rec)
        finalizeRecording(*rec, out);
    return out;
}

/** Denominator for traffic ratios: FLOPS for floating-point codes,
 *  instructions for integer codes (paper Section 6). */
inline double
trafficDenominator(const App& app, const rt::ProcStats& exec)
{
    return app.isFloatingPoint() ? double(exec.flops)
                                 : double(exec.instructions());
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_EXPERIMENT_H
