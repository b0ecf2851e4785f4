/**
 * @file
 * Deterministic cooperative scheduler -- the reference interleaver.
 *
 * This plays the role Tango-Lite played for the paper: it multiplexes P
 * simulated processors so that exactly one executes at any instant, and
 * context switches happen only at instrumentation points.
 *
 * Scheduling policy: among runnable processors, run the one with the
 * smallest logical (PRAM) clock, breaking ties by processor id.  Each
 * processor runs for a bounded quantum of instrumentation events before
 * yielding.  Because both the yield points and the policy are functions
 * of the (deterministic) application alone, entire simulations are
 * bit-reproducible -- and the interleaving approximates the PRAM
 * execution the paper's timing model defines.
 *
 * Every simulated processor is a stackful fiber (rt/fiber.h)
 * multiplexed on the host thread that called run(); a handoff is one
 * user-space context switch.  Since at most one simulated processor
 * executes at a time, the policy state below needs no host
 * synchronization of its own.
 *
 * Synchronization primitives integrate through block()/unblock(); a
 * state where no processor is runnable and not all are done is reported
 * as a deadlock with a per-processor diagnostic (status, logical time,
 * and what each blocked processor is waiting on).
 */
#ifndef SPLASH2_RT_SCHEDULER_H
#define SPLASH2_RT_SCHEDULER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"

namespace splash::rt {

class Fiber;

class Scheduler
{
  public:
    /** @param nprocs simulated processors; @param quantum max
     *  instrumentation events per scheduling slice. */
    explicit Scheduler(int nprocs, std::uint64_t quantum = 250);
    ~Scheduler();

    /** Run @p body once per simulated processor to completion. */
    void run(const std::function<void(ProcId)>& body);

    /** Called by the running processor on every instrumentation event;
     *  yields when the quantum expires. @p p must be the running proc. */
    void
    event(ProcId p)
    {
        if (++eventsInSlice_ >= quantum_)
            yield(p);
    }

    /** Explicitly hand control to the best runnable processor. */
    void yield(ProcId p);

    /** Block the running processor @p p until another processor calls
     *  unblock(p). Returns once rescheduled. @p why labels what the
     *  processor waits on (shown in deadlock diagnostics). */
    void block(ProcId p, const char* why = "event");

    /** Mark @p q runnable again. Must be called by the running
     *  processor. Unblocking a processor that is not blocked (e.g.
     *  already done) is a no-op. */
    void unblock(ProcId q);

    /** Logical clock accessors; used by the sync primitives to
     *  implement PRAM time. */
    Tick time(ProcId p) const { return lt_[p]; }
    void advance(ProcId p, Tick n) { lt_[p] += n; }
    void advanceTo(ProcId p, Tick t) { if (lt_[p] < t) lt_[p] = t; }

    int nprocs() const { return nprocs_; }

    /** True while run() is active (used by instrumentation hooks). */
    bool active() const { return active_; }

    /** The processor currently holding control; -1 outside run().
     *  This is how fiber-aware cur() resolves the running context. */
    ProcId running() const { return running_; }

    /** Hook invoked with the outgoing processor immediately before any
     *  control transfer (yield, block, exit).  The Env's reference
     *  delivery drains its record ring here, which is what makes the
     *  drained order equal the execution order.  Plain function pointer
     *  plus context: this sits on the context-switch path. */
    using PreSwitchHook = void (*)(void* ctx, ProcId p);
    void
    setPreSwitchHook(PreSwitchHook fn, void* ctx)
    {
        preSwitch_ = fn;
        preSwitchCtx_ = ctx;
    }

  private:
    enum class Status : std::uint8_t { Ready, Running, Blocked, Done };

    /** Fiber entry: runs the body of the processor being switched to
     *  for the first time (running_), then ends its fiber. */
    static void procMain(void* self);
    /** Pick the runnable processor with the smallest logical time;
     *  -1 if none. */
    ProcId pickNext() const;
    /** Hand off from @p p (already marked non-Running). Returns when
     *  @p p is rescheduled, unless @p exiting. */
    void switchFrom(ProcId p, bool exiting);
    /** One line per processor: status, logical time, block reason. */
    std::string stateReport() const;

    int nprocs_;
    std::uint64_t quantum_;
    std::uint64_t eventsInSlice_ = 0;
    bool active_ = false;

    /** One fiber per processor, live during run(); home_ is the
     *  caller's context that run() returns to. */
    std::vector<std::unique_ptr<Fiber>> fibers_;
    Fiber* home_ = nullptr;
    const std::function<void(ProcId)>* body_ = nullptr;
    PreSwitchHook preSwitch_ = nullptr;
    void* preSwitchCtx_ = nullptr;
    ProcId running_ = -1;
    int doneCount_ = 0;
    std::vector<Status> status_;
    std::vector<const char*> blockReason_;
    std::vector<Tick> lt_;
};

} // namespace splash::rt

#endif // SPLASH2_RT_SCHEDULER_H
