/**
 * @file
 * Working-set sweep driver shared by the Figure-3 and Table-2 benches
 * and splash2run's --sweep mode: run one application and produce the
 * exact multi-configuration cache sweep (sim/sweep.h), the
 * reuse-distance analytical model (sim/reusedist.h), or both.  The
 * stream comes from the StreamSource every driver shares
 * (harness/experiment.h: live execution, optionally recorded, or a
 * trace replayed from disk); the model alone can also be loaded from
 * a recorded ".rdp" profile sidecar with no stream at all.
 *
 * Sidecar life cycle mirrors the trace store's record-once rule: a
 * live or replayed model pass saves its profile next to the trace
 * (--record store, or best effort into the --replay store) unless one
 * already exists; a later `--sweep model --replay STORE` run loads it
 * and evaluates the predicted curves in microseconds.
 */
#ifndef SPLASH2_HARNESS_WORKINGSET_H
#define SPLASH2_HARNESS_WORKINGSET_H

#include <sys/stat.h>

#include <memory>
#include <vector>

#include "harness/experiment.h"
#include "sim/reusedist.h"

namespace splash::harness {

/** Results of one working-set sweep of one application. */
struct WorkingSetRun
{
    RunStats stats;
    /** The exact engine's sweep (sweep mode != Model). */
    std::unique_ptr<sim::CacheSweep> exact;
    /** The analytical profile (sweep mode != Exact). */
    sim::ReuseDistProfile model;
    bool haveModel = false;
    /** The model came straight from a saved sidecar: neither fiber
     *  execution nor trace replay happened. */
    bool modelFromProfile = false;
};

/** Miss rate of @p run at one Figure-3 operating point from the
 *  requested engine (@p useModel selects the analytical curve). */
inline double
wsMissRate(const WorkingSetRun& run, std::uint64_t size, int assoc,
           bool useModel)
{
    return useModel ? run.model.missRate(size, assoc)
                    : run.exact->missRate(size, assoc);
}

/** Run @p app once and produce the sweep(s) requested by
 *  @p simOpts.sweep over @p sc's operating points.  @p sc.nprocs must
 *  equal @p nprocs. */
inline WorkingSetRun
runWorkingSets(App& app, int nprocs, const sim::SweepConfig& sc,
               const AppConfig& cfg, const SimOpts& simOpts = {})
{
    ensure(sc.nprocs == nprocs,
           "sweep config and run disagree on the processor count");
    const bool needExact = simOpts.sweep != sim::SweepMode::Model;
    const bool needModel = simOpts.sweep != sim::SweepMode::Exact;
    const sim::TraceMeta meta = traceMetaFor(app, nprocs, cfg, simOpts);

    WorkingSetRun out;
    // Fastest path: a model-bearing sweep with a saved sidecar in the
    // replay store skips straight to post-processing.
    if (needModel && !simOpts.replay.empty()) {
        std::string err;
        sim::ReuseDistProfile pr;
        if (sim::ReuseDistProfile::load(
                sim::profilePathFor(simOpts.replay, meta), meta,
                sc.lineSize, &pr, &err) &&
            pr.nprocs == sc.nprocs) {
            out.model = std::move(pr);
            out.haveModel = true;
            out.modelFromProfile = true;
            if (!needExact) {
                out.stats = statsFromProfile(out.model.exec);
                return out;
            }
        }
    }
    const bool profileLive = needModel && !out.haveModel;
    StreamSource src(app, nprocs, cfg, simOpts);
    if (needExact) {
        out.exact = std::make_unique<sim::CacheSweep>(sc);
        src.attach(out.exact.get());
    }
    std::unique_ptr<sim::ReuseDistProfiler> prof;
    std::unique_ptr<sim::BroadcastReplay> rdcast;
    if (profileLive) {
        if (simOpts.replicas == Replicas::Auto && threadedReplicas()) {
            // The profiler is the broadcast engine's third replica
            // kind: its consumer thread overlaps the exact sweep on
            // the stream's thread.
            sim::ReplicaSpec spec;
            spec.machine.nprocs = sc.nprocs;
            spec.machine.cache.lineSize = sc.lineSize;
            spec.rdProfile = true;
            rdcast = std::make_unique<sim::BroadcastReplay>(
                std::vector<sim::ReplicaSpec>{spec}, true);
            src.attach(rdcast.get());
        } else {
            prof = std::make_unique<sim::ReuseDistProfiler>(
                sc.nprocs, sc.lineSize);
            src.attach(prof.get());
        }
    }
    out.stats = src.run();
    if (rdcast)
        rdcast->flush();

    if (profileLive) {
        out.model =
            (rdcast ? rdcast->rdReplica(0) : *prof).profile();
        out.model.exec = execProfileFrom(
            out.stats.perProc, out.stats.elapsed, out.stats.valid);
        out.haveModel = true;
        // Save the sidecar next to the trace (record once): into the
        // --record store, or -- best effort -- back into the --replay
        // store so later model sweeps skip the replay too.
        const std::string& store =
            !simOpts.record.empty() ? simOpts.record : simOpts.replay;
        if (!store.empty()) {
            const std::string path =
                sim::profilePathFor(store, meta);
            struct stat st{};
            if (::stat(path.c_str(), &st) != 0) {
                std::string err;
                if (!out.model.save(path, meta, &err) &&
                    !simOpts.record.empty())
                    fatal(err);
            }
        }
    }
    return out;
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_WORKINGSET_H
