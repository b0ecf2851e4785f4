/**
 * @file
 * Experiment drivers shared by the characterization benches: run a
 * program under a given machine configuration and collect execution
 * and memory-system statistics.
 *
 * Every driver has one shape -- build its sinks, drive one
 * StreamSource, collect -- so whether the reference stream comes from
 * live execution, live execution recorded into a trace store, or a
 * replayed trace is decided in one place, and --replicas off is a
 * loop over the single-configuration driver.
 */
#ifndef SPLASH2_HARNESS_EXPERIMENT_H
#define SPLASH2_HARNESS_EXPERIMENT_H

#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/** How multi-configuration characterizations run (bit-identical
 *  results in either mode):
 *
 *  - Off: one dedicated run of runExperiment per configuration (the
 *    serial oracle for broadcast replay).
 *  - Auto: one stream broadcast to all configurations.  The replicas
 *    run on consumer threads with bounded back-pressure when
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
 *  quantum default matches EnvConfig.  `quantum` selects the
 *  interleaving, so it changes results; the others change simulation
 *  speed or add observation only.  The machine being measured is not
 *  here: it reaches a driver only as a MemExperiment. */
struct SimOpts
{
    std::uint64_t quantum = 250;
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
// Trace-store glue (sim/tracestore.h): identity of a recording and the
// execution-profile <-> ProcStats conversions, then the one stream
// source every driver below runs on.

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

/** RefSink shim driving a MemSystem or a CacheSweep -- neither is
 *  itself a RefSink -- from a replayed stream. */
template <class Model>
class PortRefSink final : public sim::RefSink
{
  public:
    explicit PortRefSink(Model& m) : model_(m) {}
    void
    access(const sim::AccessRec& r) override
    {
        model_.access(r.proc, r.addr, r.size, r.type);
    }
    void resetStats() override { model_.resetStats(); }

  private:
    Model& model_;
};

using SweepRefSink = PortRefSink<sim::CacheSweep>;

/** One replayed stream fanned out to several sinks in order (the
 *  trace reader takes a single sink). */
class TeeRefSink final : public sim::RefSink
{
  public:
    explicit TeeRefSink(std::vector<sim::RefSink*> sinks)
        : sinks_(std::move(sinks))
    {
    }
    void
    access(const sim::AccessRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->access(r);
    }
    void
    sync(const sim::SyncRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->sync(r);
    }
    void
    place(const sim::PlaceRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->place(r);
    }
    void
    resetStats() override
    {
        for (sim::RefSink* s : sinks_)
            s->resetStats();
    }
    void
    streamBarrier() override
    {
        for (sim::RefSink* s : sinks_)
            s->streamBarrier();
    }

  private:
    std::vector<sim::RefSink*> sinks_;
};

/** The one source of every driver's reference stream.
 *
 *  Live (the default), the application executes in a fresh Env; with
 *  SimOpts::record set the stream is also recorded into the trace
 *  store, unless a finalized trace of this identity is already there
 *  (record once).  With SimOpts::replay set the application never
 *  executes: the recorded stream feeds the sinks and the execution
 *  counters come from the trace footer, so statistics are
 *  byte-identical to a live run (tests/sim/tracestore_test.cc).
 *
 *  A driver builds its sinks against homes(), attaches them, calls
 *  run() once and collects.  Every trace-store failure -- open,
 *  identity check, replay, finalize -- ends in the one fatal() of
 *  check(), with the store's own diagnostic. */
class StreamSource
{
  public:
    StreamSource(App& app, int nprocs, const AppConfig& cfg,
                 const SimOpts& simOpts)
        : app_(app), cfg_(cfg)
    {
        const sim::TraceMeta meta =
            traceMetaFor(app, nprocs, cfg, simOpts);
        if (!simOpts.replay.empty()) {
            rd_ = sim::tracestore::openFor(simOpts.replay, meta, &err_);
            check(rd_ != nullptr);
            return;
        }
        env_ = std::make_unique<rt::Env>(
            rt::EnvConfig{rt::Mode::Sim, nprocs, simOpts.quantum});
        if (!simOpts.record.empty() &&
            !sim::tracestore::haveTrace(simOpts.record, meta))
            rec_ = std::make_unique<sim::TraceWriter>(
                sim::tracestore::pathFor(simOpts.record, meta), meta);
    }

    /** Home resolver of the run's data placement, valid before run():
     *  the live heap, or the placement rebuilt from the recorded
     *  placement events. */
    const sim::HomeResolver*
    homes() const
    {
        return rd_ ? rd_->placement() : &env_->heap();
    }

    /** Attach a sink; MemSystem and CacheSweep take the Env's direct
     *  delivery path live and a PortRefSink on replay. */
    void
    attach(sim::MemSystem* m)
    {
        if (env_)
            env_->attachMemSystem(m);
        else
            attachPort(m);
    }
    void
    attach(sim::CacheSweep* s)
    {
        if (env_)
            env_->attachSweep(s);
        else
            attachPort(s);
    }
    void
    attach(sim::RefSink* s)
    {
        if (env_)
            env_->attachSink(s);
        else
            sinks_.push_back(s);
    }

    /** Drive the stream through every attached sink and return the
     *  execution half of the run's statistics.  A replay with no sink
     *  reads only the footer. */
    RunStats
    run()
    {
        if (rd_) {
            if (!sinks_.empty()) {
                TeeRefSink tee(sinks_);
                check(rd_->replay(&tee, &err_));
            }
            return statsFromProfile(rd_->exec());
        }
        if (rec_)
            env_->attachSink(rec_.get());
        RunStats r;
        r.valid = app_.run(*env_, cfg_).valid;
        for (int p = 0; p < env_->nprocs(); ++p) {
            r.perProc.push_back(env_->stats(p));
            r.exec += env_->stats(p);
        }
        r.elapsed = env_->elapsed();
        if (rec_)
            check(rec_->finalize(
                execProfileFrom(r.perProc, r.elapsed, r.valid), &err_));
        return r;
    }

  private:
    template <class Model>
    void
    attachPort(Model* m)
    {
        attach(ports_.emplace_back(std::make_unique<PortRefSink<Model>>(*m))
                   .get());
    }

    void
    check(bool ok) const
    {
        if (!ok)
            fatal(err_);
    }

    App& app_;
    const AppConfig& cfg_;
    std::string err_;
    std::unique_ptr<rt::Env> env_;             ///< live runs
    std::unique_ptr<sim::TraceWriter> rec_;    ///< live, recording
    std::unique_ptr<sim::TraceReader> rd_;     ///< replayed runs
    std::vector<sim::RefSink*> sinks_;         ///< replay fan-out
    std::vector<std::unique_ptr<sim::RefSink>> ports_;
};

/** Complete the execution half @p r of a run with the statistics of
 *  the memory system and the race detector that consumed its stream
 *  (either may be null). */
inline RunStats
measured(RunStats r, const sim::MemSystem* mem,
         const sim::RaceChecker* race)
{
    if (mem != nullptr) {
        for (std::size_t p = 0; p < r.perProc.size(); ++p)
            r.memPerProc.push_back(
                mem->procStats(static_cast<ProcId>(p)));
        r.mem = mem->total();
    }
    if (race != nullptr) {
        r.raceChecked = true;
        r.race = race->outcome();
    }
    return r;
}

/** Run @p app on @p nprocs with no memory system attached (PRAM-only;
 *  Figures 1 and 2, Table 1).  An optional pre-built RaceChecker can
 *  be attached (the injection harness arms drops on it beforehand);
 *  otherwise SimOpts::race != Off attaches an internal one. */
inline RunStats
runPram(App& app, int nprocs, const AppConfig& cfg,
        const SimOpts& simOpts = {}, sim::RaceChecker* race = nullptr)
{
    std::unique_ptr<sim::RaceChecker> owned;
    if (race == nullptr && simOpts.race != sim::RaceGranularity::Off) {
        owned = std::make_unique<sim::RaceChecker>(
            raceConfigFor(simOpts.race, nprocs, 64));
        race = owned.get();
    }
    StreamSource src(app, nprocs, cfg, simOpts);
    if (race != nullptr)
        src.attach(race);
    return measured(src.run(), nullptr, race);
}

/** One memory-system operating point of a multi-configuration
 *  characterization. */
struct MemExperiment
{
    sim::CacheConfig cache{};  ///< default: 1 MB 4-way 64 B lines
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

/** The simulated machine of @p e on @p nprocs processors. */
inline sim::MachineConfig
machineFor(const MemExperiment& e, int nprocs)
{
    sim::MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache = e.cache;
    mc.replacementHints = e.hints;
    mc.protocol = e.protocol;
    mc.interconnect = e.interconnect;
    return mc;
}

/** Characterize @p app under the one operating point @p e: the
 *  single-configuration driver, and -- one call per experiment --
 *  Replicas::Off's serial oracle for the broadcast path. */
inline RunStats
runExperiment(App& app, int nprocs, const MemExperiment& e,
              const AppConfig& cfg, const SimOpts& simOpts = {})
{
    StreamSource src(app, nprocs, cfg, simOpts);
    sim::MemSystem mem(machineFor(e, nprocs),
                       e.placed ? src.homes() : nullptr);
    mem.setCheckPeriod(simOpts.checkPeriod);
    src.attach(&mem);
    std::unique_ptr<sim::RaceChecker> race;
    if (simOpts.race != sim::RaceGranularity::Off) {
        race = std::make_unique<sim::RaceChecker>(
            raceConfigFor(simOpts.race, nprocs, e.cache.lineSize));
        src.attach(race.get());
    }
    return measured(src.run(), &mem, race.get());
}

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
        s.machine = machineFor(e, nprocs);
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

/** The broadcast path of runCharacterizations with an explicit
 *  consumer shape: one stream (live or replayed) feeds a
 *  BroadcastReplay with one replica per experiment, replayed on one
 *  consumer thread per replica when @p threaded, else inline on the
 *  stream's thread.  Both shapes give identical statistics
 *  (tests/sim/replay_test.cc); runCharacterizations picks one with
 *  threadedReplicas(). */
inline std::vector<RunStats>
broadcastCharacterizations(App& app, int nprocs,
                           const std::vector<MemExperiment>& exps,
                           const AppConfig& cfg, const SimOpts& simOpts,
                           bool threaded)
{
    StreamSource src(app, nprocs, cfg, simOpts);
    std::vector<int> raceOf;
    sim::BroadcastReplay bc(
        broadcastSpecs(exps, nprocs, simOpts, src.homes(), &raceOf),
        threaded);
    src.attach(&bc);
    const RunStats base = src.run();
    bc.flush();
    std::vector<RunStats> out;
    for (std::size_t i = 0; i < exps.size(); ++i)
        out.push_back(measured(
            base, &bc.replica(static_cast<int>(i)),
            raceOf[i] >= 0 ? &bc.raceReplica(raceOf[i]) : nullptr));
    return out;
}

/** Characterize @p app on @p nprocs under every configuration in
 *  @p exps.
 *
 *  The PRAM reference stream of a given (app, P) does not depend on
 *  the memory system, so under Replicas::Auto one stream feeds every
 *  configuration through broadcast replay; under Replicas::Off (and
 *  for a single configuration) each experiment gets its own run of
 *  runExperiment.  Statistics are bit-identical across both modes
 *  (tests/sim/replay_test.cc). */
inline std::vector<RunStats>
runCharacterizations(App& app, int nprocs,
                     const std::vector<MemExperiment>& exps,
                     const AppConfig& cfg, const SimOpts& simOpts = {})
{
    if (simOpts.replicas == Replicas::Auto && exps.size() > 1)
        return broadcastCharacterizations(app, nprocs, exps, cfg,
                                          simOpts, threadedReplicas());
    std::vector<RunStats> out;
    for (const MemExperiment& e : exps)
        out.push_back(runExperiment(app, nprocs, e, cfg, simOpts));
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
