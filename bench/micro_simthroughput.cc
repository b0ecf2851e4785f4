/**
 * @file
 * Micro-benchmarks (google-benchmark) of the simulation substrate
 * itself, plus the DESIGN.md ablation on scheduler quantum size.
 *
 *  - MemSystem reference throughput: hit fast path (BM_MemSysHit),
 *    miss/coherence slow path (BM_MemSysMiss, BM_MemSysSharingMiss),
 *    each also captured per coherence protocol (BM_MemSysHitProto/msi,
 *    BM_MemSysMissProto/dragon, ...) to show the table-driven dispatch
 *    costs the same across the zoo
 *  - Working-set sweep throughput: every Figure-3 operating point
 *    updated per reference (BM_SweepAccess), and the reuse-distance
 *    profiler on the same reference mix (BM_ReuseDistAccess)
 *  - Race-detector throughput at word grain (BM_RaceCheckAccess)
 *  - Batched reference delivery under a full Env (BM_Delivery_Batched)
 *  - Scheduler context-switch cost and quantum sensitivity
 *  - Fiber handoff cost: ping-pong benchmarks where two processors
 *    alternate via yield and via block/unblock, so items/sec is
 *    context switches per second.  scripts/
 *    bench_simcore.py turns these into BENCH_simcore.json and
 *    scripts/bench_memsys.py turns the memory-path ones into
 *    BENCH_memsys.json.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "rt/env.h"
#include "rt/scheduler.h"
#include "rt/shared.h"
#include "sim/memsys.h"
#include "sim/racecheck.h"
#include "sim/replay.h"
#include "sim/reusedist.h"
#include "sim/sweep.h"

using namespace splash;

/** Hit-dominated reference stream: after the 64 cold fills every
 *  access takes the silent-hit fast path (tag probe + mask test +
 *  counters, no directory consult).  Mixes reads (M-state hits) and
 *  writes (silent stores) 3:1 like typical SPLASH-2 codes. */
static void
BM_MemSysHitProto(benchmark::State& state, sim::ProtocolKind proto)
{
    sim::MachineConfig mc;
    mc.nprocs = 4;
    mc.protocol = proto;
    sim::MemSystem mem(mc);
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr a = 0x10000 + (i % 64) * 8;
        mem.access(0, a, 8,
                   (i & 3) == 3 ? AccessType::Write : AccessType::Read);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

/** The headline number (MESI, the paper default): must not regress
 *  against the hand-inlined hit path the protocol table replaced. */
static void
BM_MemSysHit(benchmark::State& state)
{
    BM_MemSysHitProto(state, sim::ProtocolKind::MESI);
}
BENCHMARK(BM_MemSysHit);
BENCHMARK_CAPTURE(BM_MemSysHitProto, msi, sim::ProtocolKind::MSI);
BENCHMARK_CAPTURE(BM_MemSysHitProto, moesi, sim::ProtocolKind::MOESI);
BENCHMARK_CAPTURE(BM_MemSysHitProto, dragon, sim::ProtocolKind::Dragon);

/** Miss-dominated stream: a cyclic scan over 2x the cache capacity in
 *  a direct-mapped cache, so every reference takes the slow path
 *  (classification, directory, table-driven transition, victim
 *  writeback accounting). */
static void
BM_MemSysMissProto(benchmark::State& state, sim::ProtocolKind proto)
{
    sim::MachineConfig mc;
    mc.nprocs = 4;
    mc.cache.size = 1u << 16;
    mc.cache.assoc = 1;
    mc.protocol = proto;
    sim::MemSystem mem(mc);
    const std::uint64_t kLines = (mc.cache.size / 64) * 2;
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem.access(0, 0x100000 + (i % kLines) * 64, 8, AccessType::Read);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

static void
BM_MemSysMiss(benchmark::State& state)
{
    BM_MemSysMissProto(state, sim::ProtocolKind::MESI);
}
BENCHMARK(BM_MemSysMiss);
BENCHMARK_CAPTURE(BM_MemSysMissProto, msi, sim::ProtocolKind::MSI);
BENCHMARK_CAPTURE(BM_MemSysMissProto, moesi, sim::ProtocolKind::MOESI);
BENCHMARK_CAPTURE(BM_MemSysMissProto, dragon, sim::ProtocolKind::Dragon);

static void
BM_MemSysSharingMiss(benchmark::State& state)
{
    sim::MachineConfig mc;
    mc.nprocs = 2;
    sim::MemSystem mem(mc);
    bool flip = false;
    for (auto _ : state) {
        mem.access(flip ? 0 : 1, 0x10000, 8, AccessType::Write);
        flip = !flip;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSysSharingMiss);

namespace {

/** Pseudo-random 4-proc reference mix shared by the sweep benches. */
inline void
sweepStep(sim::RefSink& sink, std::uint64_t& x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sim::AccessRec r;
    r.addr = 0x100000 + ((x >> 30) % 4096) * 64;
    r.size = 8;
    r.proc = static_cast<std::int16_t>((x >> 62) & 3);
    r.type = ((x >> 11) & 3) == 0 ? AccessType::Write : AccessType::Read;
    sink.access(r);
}

/** CacheSweep is not itself a RefSink; adapt it for sweepStep. */
struct SweepSink final : sim::RefSink
{
    explicit SweepSink(sim::CacheSweep& s) : sweep(s) {}
    void
    access(const sim::AccessRec& r) override
    {
        sweep.access(r.proc, r.addr, r.size, r.type);
    }
    void resetStats() override { sweep.resetStats(); }
    sim::CacheSweep& sweep;
};

} // namespace

/** Sweep cost per reference: all 44 Figure-3 operating points (one
 *  MRU list per set count plus the Mattson stack) updated at once. */
static void
BM_SweepAccess(benchmark::State& state)
{
    sim::SweepConfig sc;
    sc.nprocs = 4;
    sim::CacheSweep sweep(sc);
    SweepSink sink(sweep);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(sink, x);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepAccess);

/** Reuse-distance profiler cost per reference on the BM_SweepAccess
 *  mix: coherence advance, the Mattson stack and one bucket update. */
static void
BM_ReuseDistAccess(benchmark::State& state)
{
    sim::ReuseDistProfiler prof(4, 64);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(prof, x);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseDistAccess);

namespace {

/** A race-free word-grain reference stream whose shares follow the
 *  perfbench `replay` workload: the whole suite recorded at P = 32,
 *  scale 0.25, replayed through a copy of the detector that counts.
 *  Each share below is this stream's, with the workload's in
 *  parentheses.
 *
 *  - 32 processors take turns issuing runs of 150 references (142),
 *    and a barrier ends each round: 13.3 sync edges per 1000
 *    references (13.3).
 *  - Three references in sixteen touch 24 bytes, the rest 8: 2.75
 *    granules per reference (2.84).
 *  - 65% read the neighbours' partitions of the array the last phase
 *    wrote, so 58% of granule checks find a read vector clock (57%).
 *    2% write the processor's own partition of the other array,
 *    collapsing its read clocks, which the next phase promotes again:
 *    0.047 promotions per reference (0.040).  The other 33% stay in a
 *    private slice, 3 in 8 of them writes: 14% writes in all (15%).
 *  - Region switches send 47% of references to another shadow page
 *    than the last (48%), and 15% of granule checks are same-epoch
 *    (18%).
 *  - The shadow holds 72 pages (Ocean 89, Barnes 22). */
class RaceStream
{
  public:
    static constexpr int kProcs = 32;

    /** Issue the next reference, and the barrier that ends a round. */
    void
    step(sim::RaceChecker& rc)
    {
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        const int p = proc_;
        sim::AccessRec r;
        r.proc = static_cast<std::int16_t>(p);
        r.ltime = ++ltime_[p];
        r.size = ((x_ >> 20) & 15) < 3 ? 24 : 8;
        const unsigned u = static_cast<unsigned>((x_ >> 33) % 100);
        const Addr readArr = kBase + (phase_ & 1) * kArray;
        const Addr writeArr = kBase + (~phase_ & 1) * kArray;
        if (u < 65) {
            // Neighbours' partitions p-1..p+1 of the read array.
            Addr& c = shared_[p];
            c = ((x_ >> 10) & 15) == 0 ? jump(3 * kPart - 16)
                                       : (c + 8) % (3 * kPart - 16);
            const Addr at = Addr((p + kProcs - 1) % kProcs) * kPart + c;
            r.addr = readArr + at % kArray;
            if (at % kArray + 24 > kArray)
                r.size = 8;
            r.type = AccessType::Read;
        } else if (u < 67) {
            Addr& c = own_[p];
            c = (c + 8) % (kPart - 16);
            r.addr = writeArr + Addr(p) * kPart + c;
            r.type = AccessType::Write;
        } else {
            Addr& c = priv_[p];
            if ((x_ >> 12) & 1)
                c = ((x_ >> 10) & 15) == 0 ? jump(kPriv - 16)
                                           : (c + 8) % (kPriv - 16);
            r.addr = kBase + 2 * kArray + Addr(p) * kPriv + c;
            r.type = ((x_ >> 14) & 7) < 3 ? AccessType::Write
                                          : AccessType::Read;
        }
        rc.access(r);
        if (++inRun_ < kRun)
            return;
        inRun_ = 0;
        if (++proc_ < kProcs)
            return;
        proc_ = 0;
        ++phase_;
        sim::SyncRec s;
        s.prim = sim::SyncPrim::Barrier;
        for (sim::SyncOp op : {sim::SyncOp::Release, sim::SyncOp::Acquire})
            for (int q = 0; q < kProcs; ++q) {
                s.op = op;
                s.proc = static_cast<std::int16_t>(q);
                rc.sync(s);
            }
    }

  private:
    /** A random 8-byte-aligned offset below @p span. */
    Addr jump(Addr span) const { return (x_ >> 40) % span & ~Addr(7); }

    static constexpr int kRun = 150;
    static constexpr Addr kBase = Addr(1) << 32;  // SharedHeap::kSimBase
    static constexpr Addr kPart = 512;            // 128 granules
    static constexpr Addr kArray = kProcs * kPart;
    static constexpr Addr kPriv = 8192;           // 2 shadow pages

    std::uint64_t x_ = 12345;
    int proc_ = 0;
    int inRun_ = 0;
    std::uint64_t phase_ = 0;
    Tick ltime_[kProcs] = {};
    Addr shared_[kProcs] = {};
    Addr own_[kProcs] = {};
    Addr priv_[kProcs] = {};
};

} // namespace

/** Race-detector cost per reference at word grain on RaceStream.  An
 *  untimed prefix of 64 rounds creates the shadow pages and fills the
 *  read vector-clock pool first, so the figure is steady state and
 *  does not move with the iteration count. */
static void
BM_RaceCheckAccess(benchmark::State& state)
{
    sim::RaceConfig cfg;
    cfg.nprocs = RaceStream::kProcs;
    sim::RaceChecker rc(cfg);
    RaceStream stream;
    for (int i = 0; i < 64 * 4800; ++i)
        stream.step(rc);
    for (auto _ : state)
        stream.step(rc);
    if (!rc.outcome().clean())
        state.SkipWithError("race reported on a race-free stream");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RaceCheckAccess);

/** Broadcast replay throughput: the sweepStep reference mix fanned
 *  out to N MemSystem replicas on consumer threads (N > 0) or
 *  replayed inline on the producer (N == 0 runs one replica inline).
 *  items/sec is producer-side references absorbed, so it shows how
 *  back-pressure scales with the replica count. */
static void
BM_Broadcast(benchmark::State& state)
{
    const int replicas = static_cast<int>(state.range(0));
    std::vector<sim::ReplicaSpec> specs(
        static_cast<std::size_t>(replicas ? replicas : 1));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].machine.nprocs = 4;
        specs[i].machine.cache.lineSize = 8 << (i % 6);
    }
    sim::BroadcastReplay replay(specs, /*threaded=*/replicas > 0);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(replay, x);
    replay.flush();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Broadcast)->Arg(0)->Arg(1)->Arg(2)->Arg(6)->UseRealTime();

/** End-to-end reference delivery under a full Env + MemSystem: the
 *  instrumented read hook, clock bump, scheduling, and the batched
 *  ring drained into the sink. */
static void
BM_Delivery_Batched(benchmark::State& state)
{
    const int procs = 4;
    const int refsPerProc = 8192;
    for (auto _ : state) {
        rt::Env env({rt::Mode::Sim, procs, /*quantum=*/250});
        sim::MachineConfig mc;
        mc.nprocs = procs;
        sim::MemSystem mem(mc);
        env.attachMemSystem(&mem);
        env.run([&](rt::ProcCtx& ctx) {
            Addr base = 0x100000 + Addr(ctx.id()) * 65536;
            for (int i = 0; i < refsPerProc; ++i)
                ctx.read(reinterpret_cast<const void*>(
                             base + Addr(i % 512) * 8),
                         8);
        });
    }
    state.SetItemsProcessed(state.iterations() * procs * refsPerProc);
}
BENCHMARK(BM_Delivery_Batched);

/** Ablation: scheduler quantum size vs simulation throughput. */
static void
BM_SchedulerQuantum(benchmark::State& state)
{
    const int procs = 8;
    const std::uint64_t quantum = state.range(0);
    for (auto _ : state) {
        rt::Scheduler s(procs, quantum);
        s.run([&](ProcId p) {
            for (int i = 0; i < 2000; ++i) {
                s.advance(p, 1);
                s.event(p);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * procs * 2000);
}
BENCHMARK(BM_SchedulerQuantum)->Arg(10)->Arg(50)->Arg(250)->Arg(1000);

/** Pure handoff cost, block/unblock flavor: two processors take turns,
 *  each round is advance + unblock(partner) + block(self), i.e. two
 *  context switches per round.  items/sec == switches/sec. */
static void
BM_SchedulerPingPong_Fiber(benchmark::State& state)
{
    const int rounds = 4096;
    for (auto _ : state) {
        // Quantum never expires: every switch is an explicit handoff.
        rt::Scheduler s(2, /*quantum=*/1u << 30);
        s.run([&](ProcId p) {
            ProcId other = 1 - p;
            for (int i = 0; i < rounds; ++i) {
                s.advance(p, 1);
                s.unblock(other);
                s.block(p, "ping-pong");
            }
            s.unblock(other);  // release the partner's final block
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_SchedulerPingPong_Fiber)->UseRealTime();

/** Pure handoff cost, yield flavor: equal clock rates make the
 *  smallest-time-first policy alternate the two processors, so each
 *  yield is one context switch. */
static void
BM_SchedulerYield_Fiber(benchmark::State& state)
{
    const int rounds = 4096;
    for (auto _ : state) {
        rt::Scheduler s(2, /*quantum=*/1u << 30);
        s.run([&](ProcId p) {
            for (int i = 0; i < rounds; ++i) {
                s.advance(p, 1);
                s.yield(p);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_SchedulerYield_Fiber)->UseRealTime();

BENCHMARK_MAIN();
