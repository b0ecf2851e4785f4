/**
 * @file
 * Benchmark driver: one pass of one workload over the twelve SPLASH-2
 * programs at P = 32 on the paper's default machine (1 MB 4-way caches,
 * 64 B lines, directory MESI).
 *
 * Each program is one runner job.  Every (program, configuration) pair
 * is one operation; for each the driver prints a JSON line carrying a
 * digest of its simulated statistics, so the caller can check results
 * without parsing report text.  The last line is a summary with the
 * host wall time, CPU time and peak RSS of the pass.
 *
 * With --trace 1 the pipeline is assembled from the same layers, but
 * every call into a layer goes through a wrapper in this file that
 * charges its host time to a span; the summary then carries the
 * per-layer spans.  Statistics are identical with tracing on or off,
 * which the digests prove.
 *
 * Usage:
 *   perfbench_driver --workload characterize|working_sets|record|replay
 *       --seed N --scale F [--trace 0|1] [--store DIR]
 *       [--apps a,b,...]
 */
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/app.h"
#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/workingset.h"
#include "rt/env.h"
#include "sim/grid.h"
#include "sim/memsys.h"
#include "sim/racecheck.h"
#include "sim/replay.h"
#include "sim/reusedist.h"
#include "sim/sweep.h"
#include "sim/tracestore.h"

namespace {

using namespace splash;
using Clock = std::chrono::steady_clock;

constexpr int kProcs = 32;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host seconds spent in one layer and the references it handled. */
struct Span
{
    double s = 0;
    std::uint64_t n = 0;

    void
    add(const Span& o)
    {
        s += o.s;
        n += o.n;
    }
};

/** Spans of one job.  Every span is self time except `run` (App::run,
 *  which includes the sinks it drives) and `decode`
 *  (TraceReader::replay, likewise); their self time is the span minus
 *  the child spans charged while it was open. */
struct JobTrace
{
    Span run;       ///< App::run under rt::Env; n = refs it issued
    double runChildren = 0;  ///< sink time charged inside App::run
    Span memsys;    ///< MemSystem::access
    Span producer;  ///< BroadcastReplay::access/sync/resetStats
    Span drain;     ///< BroadcastReplay::streamBarrier/flush
    Span sweep;     ///< CacheSweep::access
    Span rd;        ///< ReuseDistProfiler::access
    Span rdEval;    ///< profile snapshot + Figure-3 grid evaluation
    Span race;      ///< RaceChecker::access/sync
    Span encode;    ///< TraceWriter::access/sync/place/finalize
    Span decode;    ///< TraceReader::replay
    double decodeChildren = 0;
    std::uint64_t syncOps = 0;
    std::uint64_t memRefs = 0;  ///< measured-window MemSystem refs
    std::uint64_t memHits = 0;  ///< of which neither a miss nor upgrade
    std::uint64_t traceBytes = 0;
    std::uint64_t traceRecords = 0;
    std::uint64_t races = 0;
    double modelMaxAbsErr = 0;
};

/** Forwards a reference stream to @p Inner in batches and charges
 *  each batch's host time to a span, so the two clock reads are paid
 *  once per batch rather than once per reference.  Buffered records
 *  are delivered before every control event, which keeps the stream
 *  order (and the heap placement a live MemSystem resolves homes
 *  through) exactly as without the wrapper. */
template <class Inner>
class Timed final : public sim::RefSink
{
  public:
    static constexpr std::size_t kBatch = 4096;

    Timed(Inner& in, Span& work, Span& wait, std::uint64_t* syncs)
        : in_(in), work_(work), wait_(wait), syncs_(syncs)
    {
        buf_.reserve(kBatch);
    }

    void
    access(const sim::AccessRec& r) override
    {
        buf_.push_back(r);
        if (buf_.size() == kBatch)
            drain();
    }

    void
    sync(const sim::SyncRec& r) override
    {
        drain();
        const auto t0 = Clock::now();
        in_.sync(r);
        work_.s += since(t0);
        if (syncs_ != nullptr)
            ++*syncs_;
    }

    void
    place(const sim::PlaceRec& r) override
    {
        drain();
        const auto t0 = Clock::now();
        in_.place(r);
        work_.s += since(t0);
    }

    void
    resetStats() override
    {
        drain();
        const auto t0 = Clock::now();
        in_.resetStats();
        work_.s += since(t0);
    }

    void
    streamBarrier() override
    {
        drain();
        const auto t0 = Clock::now();
        in_.streamBarrier();
        wait_.s += since(t0);
    }

    /** Deliver the buffered references. */
    void
    drain()
    {
        if (buf_.empty())
            return;
        const auto t0 = Clock::now();
        for (const sim::AccessRec& r : buf_)
            in_.access(r);
        work_.s += since(t0);
        work_.n += buf_.size();
        buf_.clear();
    }

  private:
    Inner& in_;
    Span& work_;
    Span& wait_;
    std::uint64_t* syncs_;
    std::vector<sim::AccessRec> buf_;
};

/** MemSystem as a generic stream consumer. */
class MemPort final : public sim::RefSink
{
  public:
    explicit MemPort(sim::MemSystem& m) : m_(m) {}
    void
    access(const sim::AccessRec& r) override
    {
        m_.access(r.proc, r.addr, r.size, r.type);
    }
    void resetStats() override { m_.resetStats(); }

  private:
    sim::MemSystem& m_;
};

// ----------------------------------------------------------------------
// Digests of simulated output.

/** FNV-1a over a canonical text rendering of simulated results:
 *  counters in decimal, miss rates as exact hex floats. */
class Digest
{
  public:
    Digest& put(std::uint64_t v) { return mix(std::to_string(v) + ","); }

    Digest&
    put(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a,", v);
        return mix(buf);
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    Digest&
    mix(const std::string& s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
putExec(Digest& d, const harness::RunStats& r)
{
    d.put(std::uint64_t{r.valid}).put(std::uint64_t{r.elapsed});
    for (const rt::ProcStats& s : r.perProc)
        d.put(s.reads).put(s.writes).put(s.flops).put(s.work)
            .put(s.barriers).put(s.locks).put(s.pauses)
            .put(std::uint64_t{s.barrierWait})
            .put(std::uint64_t{s.lockWait})
            .put(std::uint64_t{s.pauseWait})
            .put(std::uint64_t{s.startTime})
            .put(std::uint64_t{s.finishTime});
}

void
putMem(Digest& d, const sim::MemSystem& m)
{
    for (int p = 0; p < m.config().nprocs; ++p) {
        const sim::MemStats& s = m.procStats(p);
        d.put(s.reads).put(s.writes);
        for (std::uint64_t v : s.misses)
            d.put(v);
        d.put(s.upgrades).put(s.invalidations).put(s.updates)
            .put(s.remoteSharedData).put(s.remoteColdData)
            .put(s.remoteCapacityData).put(s.remoteWriteback)
            .put(s.remoteOverhead).put(s.localData)
            .put(s.trueSharedData).put(s.busTransactions)
            .put(s.busAddrCycles).put(s.busDataCycles);
    }
}

/** Count the refs of @p m and those that took the hit fast path:
 *  neither a miss nor an upgrade. */
void
countHits(const sim::MemSystem& m, JobTrace& tr)
{
    const sim::MemStats t = m.total();
    tr.memRefs = t.accesses();
    tr.memHits = t.accesses() - t.totalMisses() - t.upgrades;
}

// ----------------------------------------------------------------------
// Workload pipelines.

/** One operation's result line. */
struct Op
{
    std::string config;
    bool valid = true;
    std::string digest;
    std::uint64_t races = 0;
    double modelMaxAbsErr = -1;  ///< working_sets only
};

struct JobOut
{
    std::vector<Op> ops;
    std::uint64_t refs = 0;  ///< measured-window shared references
    JobTrace tr;
};

const char* const kDefaultPoint = "1024k-4w-64b";

rt::EnvConfig
simEnv()
{
    rt::EnvConfig ec;
    ec.mode = rt::Mode::Sim;
    ec.nprocs = kProcs;
    return ec;
}

sim::MachineConfig
machine(std::uint64_t size, int lineSize)
{
    sim::MachineConfig mc;
    mc.nprocs = kProcs;
    mc.cache.size = size;
    mc.cache.lineSize = lineSize;
    return mc;
}

harness::RunStats
execOf(rt::Env& env, bool valid)
{
    harness::RunStats r;
    r.valid = valid;
    for (int p = 0; p < kProcs; ++p) {
        r.perProc.push_back(env.stats(p));
        r.exec += env.stats(p);
    }
    r.elapsed = env.elapsed();
    return r;
}

Op
memOp(const char* config, const harness::RunStats& exec,
      const sim::MemSystem& m)
{
    Digest d;
    putExec(d, exec);
    putMem(d, m);
    return {config, exec.valid, d.hex()};
}

/** Time App::run; the sink time charged during it is its children. */
template <class ChildSum>
bool
timedRun(harness::App& app, rt::Env& env, const harness::AppConfig& cfg,
         JobTrace& tr, ChildSum childSum)
{
    const auto t0 = Clock::now();
    const bool valid = app.run(env, cfg).valid;
    tr.run.s = since(t0);
    tr.runChildren = childSum();
    return valid;
}

/** Live execution; the default machine is simulated on the executing
 *  thread and the run is broadcast to two more MemSystem replicas (the
 *  Figure 6 small cache and a Figure 7 line size). */
JobOut
characterize(harness::App& app, const harness::AppConfig& cfg,
             bool trace)
{
    JobOut out;
    JobTrace& tr = out.tr;
    rt::Env env(simEnv());
    sim::MemSystem mem(machine(1u << 20, 64), &env.heap());
    std::vector<sim::ReplicaSpec> specs(2);
    specs[0].machine = machine(8u << 10, 64);
    specs[1].machine = machine(1u << 20, 128);
    for (sim::ReplicaSpec& s : specs)
        s.homes = &env.heap();
    sim::BroadcastReplay bc(specs);

    MemPort port(mem);
    std::unique_ptr<Timed<MemPort>> tm;
    std::unique_ptr<Timed<sim::BroadcastReplay>> tb;
    if (trace) {
        tm = std::make_unique<Timed<MemPort>>(port, tr.memsys, tr.memsys,
                                              &tr.syncOps);
        tb = std::make_unique<Timed<sim::BroadcastReplay>>(
            bc, tr.producer, tr.drain, nullptr);
        env.attachSink(tm.get());
        env.attachSink(tb.get());
    } else {
        env.attachMemSystem(&mem);
        env.attachSink(&bc);
    }
    const bool valid = timedRun(app, env, cfg, tr, [&] {
        return tr.memsys.s + tr.producer.s + tr.drain.s;
    });
    if (trace) {
        tm->drain();
        tb->drain();
    }
    const auto t0 = Clock::now();
    bc.flush();
    tr.drain.s += since(t0);
    tr.run.n = tr.memsys.n;

    const harness::RunStats exec = execOf(env, valid);
    out.refs = exec.exec.reads + exec.exec.writes;
    countHits(mem, tr);
    out.ops.push_back(memOp(kDefaultPoint, exec, mem));
    out.ops.push_back(memOp("8k-4w-64b", exec, bc.replica(0)));
    out.ops.push_back(memOp("1024k-4w-128b", exec, bc.replica(1)));
    return out;
}

/** Live execution feeding the exact Figure-3 sweep and the
 *  reuse-distance profiler side by side on the executing thread. */
JobOut
workingSets(harness::App& app, const harness::AppConfig& cfg, bool trace)
{
    JobOut out;
    JobTrace& tr = out.tr;
    rt::Env env(simEnv());
    const sim::SweepConfig sc;  // Figure-3 grid, P = 32, 64 B lines
    sim::CacheSweep sweep(sc);
    sim::ReuseDistProfiler prof(kProcs, sc.lineSize);

    harness::SweepRefSink sweepPort(sweep);
    std::unique_ptr<Timed<harness::SweepRefSink>> ts;
    std::unique_ptr<Timed<sim::ReuseDistProfiler>> tp;
    if (trace) {
        ts = std::make_unique<Timed<harness::SweepRefSink>>(
            sweepPort, tr.sweep, tr.sweep, &tr.syncOps);
        tp = std::make_unique<Timed<sim::ReuseDistProfiler>>(
            prof, tr.rd, tr.rd, nullptr);
        env.attachSink(ts.get());
        env.attachSink(tp.get());
    } else {
        env.attachSweep(&sweep);
        env.attachSink(&prof);
    }
    const bool valid = timedRun(app, env, cfg, tr,
                                [&] { return tr.sweep.s + tr.rd.s; });
    if (trace) {
        ts->drain();
        tp->drain();
    }
    tr.run.n = tr.sweep.n;
    const harness::RunStats exec = execOf(env, valid);
    out.refs = exec.exec.reads + exec.exec.writes;

    // Grid evaluation: the exact column against the model, and the
    // fully associative column, which must agree bit for bit.
    const auto t0 = Clock::now();
    const sim::ReuseDistProfile model = prof.profile();
    Digest d;
    putExec(d, exec);
    d.put(sweep.accesses());
    bool faExact = true;
    double maxErr = 0;
    for (std::uint64_t size : sc.sizes) {
        for (int assoc : sim::fig3ReportAssocs()) {
            const double exact = sweep.missRate(size, assoc);
            const double predicted = model.missRate(size, assoc);
            d.put(sweep.misses(size, assoc)).put(predicted);
            if (assoc == sim::kFullyAssoc)
                faExact = faExact && predicted == exact &&
                          model.faMisses(size) ==
                              sweep.misses(size, assoc);
            else
                maxErr = std::max(maxErr, std::fabs(predicted - exact));
        }
    }
    tr.rdEval.s = since(t0);
    tr.modelMaxAbsErr = maxErr;

    Op op{"sweep", valid && faExact, d.hex()};
    op.modelMaxAbsErr = maxErr;
    out.ops.push_back(op);
    return out;
}

sim::TraceMeta
metaFor(const harness::App& app, const harness::AppConfig& cfg)
{
    return harness::traceMetaFor(app, kProcs, cfg, harness::SimOpts{});
}

/** Set-up of the replay workload: live execution on the default
 *  machine, recording the reference stream into @p store. */
JobOut
record(harness::App& app, const harness::AppConfig& cfg,
       const std::string& store, bool trace)
{
    JobOut out;
    JobTrace& tr = out.tr;
    const sim::TraceMeta meta = metaFor(app, cfg);
    const std::string path = sim::tracestore::pathFor(store, meta);
    rt::Env env(simEnv());
    sim::MemSystem mem(machine(1u << 20, 64), &env.heap());
    sim::TraceWriter writer(path, meta);

    MemPort port(mem);
    std::unique_ptr<Timed<MemPort>> tm;
    std::unique_ptr<Timed<sim::TraceWriter>> tw;
    if (trace) {
        tm = std::make_unique<Timed<MemPort>>(port, tr.memsys, tr.memsys,
                                              &tr.syncOps);
        tw = std::make_unique<Timed<sim::TraceWriter>>(
            writer, tr.encode, tr.encode, nullptr);
        env.attachSink(tm.get());
        env.attachSink(tw.get());
    } else {
        env.attachMemSystem(&mem);
        env.attachSink(&writer);
    }
    const bool valid = timedRun(app, env, cfg, tr, [&] {
        return tr.memsys.s + tr.encode.s;
    });
    if (trace) {
        tm->drain();
        tw->drain();
    }
    tr.run.n = tr.memsys.n;
    const harness::RunStats exec = execOf(env, valid);
    const auto t0 = Clock::now();
    std::string err;
    if (!writer.finalize(harness::execProfileFrom(exec.perProc,
                                                  exec.elapsed,
                                                  exec.valid),
                         &err))
        fatal(err);
    tr.encode.s += since(t0);
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0)
        tr.traceBytes = static_cast<std::uint64_t>(st.st_size);
    tr.traceRecords = writer.records();

    out.refs = exec.exec.reads + exec.exec.writes;
    countHits(mem, tr);
    out.ops.push_back(memOp(kDefaultPoint, exec, mem));
    return out;
}

/** Timed phase of the replay workload: no execution; the recorded
 *  stream feeds the default machine and the word-grain race detector
 *  on the decoding thread. */
JobOut
replay(harness::App& app, const harness::AppConfig& cfg,
       const std::string& store, bool trace)
{
    JobOut out;
    JobTrace& tr = out.tr;
    std::string err;
    auto rd = sim::tracestore::openFor(store, metaFor(app, cfg), &err);
    if (rd == nullptr)
        fatal(err);
    sim::MemSystem mem(machine(1u << 20, 64), rd->placement());
    sim::RaceConfig rc;
    rc.gran = sim::RaceGranularity::Word;
    rc.nprocs = kProcs;
    sim::RaceChecker race(rc);

    MemPort port(mem);
    std::unique_ptr<Timed<MemPort>> tm;
    std::unique_ptr<Timed<sim::RaceChecker>> tc;
    std::vector<sim::RefSink*> sinks{&port, &race};
    if (trace) {
        tm = std::make_unique<Timed<MemPort>>(port, tr.memsys, tr.memsys,
                                              nullptr);
        tc = std::make_unique<Timed<sim::RaceChecker>>(
            race, tr.race, tr.race, nullptr);
        sinks = {tm.get(), tc.get()};
    }
    harness::TeeRefSink tee(sinks);
    const auto t0 = Clock::now();
    if (!rd->replay(&tee, &err))
        fatal(err);
    if (trace) {
        tm->drain();
        tc->drain();
    }
    tr.decode.s = since(t0);
    tr.decode.n = rd->records();
    tr.decodeChildren = tr.memsys.s + tr.race.s;

    const harness::RunStats exec = harness::statsFromProfile(rd->exec());
    out.refs = exec.exec.reads + exec.exec.writes;
    countHits(mem, tr);
    tr.races = race.races();
    Op op = memOp(kDefaultPoint, exec, mem);
    op.races = race.races();
    out.ops.push_back(op);
    return out;
}

// ----------------------------------------------------------------------
// Output.

void
printSpan(const char* name, const Span& s)
{
    std::printf("\"%s\": [%.9f, %llu], ", name, s.s,
                static_cast<unsigned long long>(s.n));
}

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload characterize|working_sets|record|replay "
                 "--seed N --scale F [--trace 0|1] "
                 "[--store DIR] [--apps a,b,...]\n",
                 why.c_str());
    std::exit(2);
}

double
cpuSeconds(const rusage& ru)
{
    return double(ru.ru_utime.tv_sec) + double(ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, store, appsArg;
    harness::AppConfig cfg;
    bool trace = false;
    bool haveSeed = false, haveScale = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            cfg.seed = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
            haveSeed = *end == '\0' && !v.empty();
        } else if (a == "--scale") {
            cfg.scale = std::strtod(v.c_str(), &end);
            haveScale = *end == '\0' && cfg.scale > 0;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            trace = v == "1";
        } else if (a == "--store") {
            store = v;
        } else if (a == "--apps") {
            appsArg = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (!haveSeed || !haveScale)
        usage("--seed and --scale are required");
    const bool needStore = workload == "record" || workload == "replay";
    if (workload != "characterize" && workload != "working_sets" &&
        !needStore)
        usage("unknown workload '" + workload + "'");
    if (needStore && store.empty())
        usage("--store is required for " + workload);

    std::vector<harness::App*> apps;
    if (appsArg.empty()) {
        apps = harness::suite();
    } else {
        std::size_t pos = 0;
        while (pos <= appsArg.size()) {
            const std::size_t comma = appsArg.find(',', pos);
            const std::string name = appsArg.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            harness::App* app = harness::findApp(name);
            if (app == nullptr)
                usage("unknown app '" + name + "'");
            apps.push_back(app);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    std::vector<JobOut> outs(apps.size());
    std::vector<double> jobSeconds(apps.size(), 0.0);
    // Runner workers, chosen so that no workload keeps more than four
    // host threads busy: characterize runs one program at a time (its
    // executing thread plus one consumer thread per broadcast replica);
    // the others run four single-threaded jobs.
    harness::Runner runner(workload == "characterize" ? 1 : 4);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), harness::appCostHint(*apps[i]),
                   [&, i] {
                       const auto t0 = Clock::now();
                       harness::App& app = *apps[i];
                       if (workload == "characterize")
                           outs[i] = characterize(app, cfg, trace);
                       else if (workload == "working_sets")
                           outs[i] = workingSets(app, cfg, trace);
                       else if (workload == "record")
                           outs[i] = record(app, cfg, store, trace);
                       else
                           outs[i] = replay(app, cfg, store, trace);
                       jobSeconds[i] = since(t0);
                   });
    }

    rusage ru0{}, ru1{};
    getrusage(RUSAGE_SELF, &ru0);
    const auto t0 = Clock::now();
    runner.run();
    const double wall = since(t0);
    getrusage(RUSAGE_SELF, &ru1);

    JobTrace sum;
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const JobOut& o = outs[i];
        refs += o.refs;
        for (const Op& op : o.ops) {
            std::printf("{\"op\": \"%s/%s\", \"valid\": %s, "
                        "\"digest\": \"%s\", \"races\": %llu",
                        apps[i]->name().c_str(), op.config.c_str(),
                        op.valid ? "true" : "false", op.digest.c_str(),
                        static_cast<unsigned long long>(op.races));
            if (op.modelMaxAbsErr >= 0)
                std::printf(", \"model_max_abs_err\": %.17g",
                            op.modelMaxAbsErr);
            std::printf("}\n");
        }
        const JobTrace& t = o.tr;
        sum.run.add(t.run);
        sum.runChildren += t.runChildren;
        sum.memsys.add(t.memsys);
        sum.producer.add(t.producer);
        sum.drain.add(t.drain);
        sum.sweep.add(t.sweep);
        sum.rd.add(t.rd);
        sum.rdEval.add(t.rdEval);
        sum.race.add(t.race);
        sum.encode.add(t.encode);
        sum.decode.add(t.decode);
        sum.decodeChildren += t.decodeChildren;
        sum.syncOps += t.syncOps;
        sum.memRefs += t.memRefs;
        sum.memHits += t.memHits;
        sum.traceBytes += t.traceBytes;
        sum.traceRecords += t.traceRecords;
        sum.races += t.races;
        sum.modelMaxAbsErr = std::max(sum.modelMaxAbsErr, t.modelMaxAbsErr);
    }

    std::printf("{\"summary\": true, \"wall_s\": %.9f, \"cpu_s\": %.6f, "
                "\"maxrss_kb\": %ld, \"refs\": %llu, \"workers\": %d, "
                "\"job_s\": [",
                wall, cpuSeconds(ru1) - cpuSeconds(ru0), ru1.ru_maxrss,
                static_cast<unsigned long long>(refs), runner.jobs());
    for (std::size_t i = 0; i < jobSeconds.size(); ++i)
        std::printf("%s%.9f", i ? ", " : "", jobSeconds[i]);
    std::printf("]");
    if (trace) {
        std::printf(", \"layers\": {");
        printSpan("run", sum.run);
        printSpan("memsys", sum.memsys);
        printSpan("producer", sum.producer);
        printSpan("drain", sum.drain);
        printSpan("sweep", sum.sweep);
        printSpan("rd", sum.rd);
        printSpan("rd_eval", sum.rdEval);
        printSpan("race", sum.race);
        printSpan("encode", sum.encode);
        printSpan("decode", sum.decode);
        std::printf("\"run_children_s\": %.9f, \"decode_children_s\": "
                    "%.9f, \"sync_ops\": %llu, \"mem_refs\": %llu, "
                    "\"mem_hits\": %llu, "
                    "\"trace_bytes\": %llu, \"trace_records\": %llu, "
                    "\"races\": %llu, \"model_max_abs_err\": %.17g}",
                    sum.runChildren, sum.decodeChildren,
                    static_cast<unsigned long long>(sum.syncOps),
                    static_cast<unsigned long long>(sum.memRefs),
                    static_cast<unsigned long long>(sum.memHits),
                    static_cast<unsigned long long>(sum.traceBytes),
                    static_cast<unsigned long long>(sum.traceRecords),
                    static_cast<unsigned long long>(sum.races),
                    sum.modelMaxAbsErr);
    }
    std::printf("}\n");
    return 0;
}
