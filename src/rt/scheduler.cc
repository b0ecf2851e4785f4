#include "rt/scheduler.h"

#include <string>

#include "base/log.h"
#include "rt/fiber.h"

namespace splash::rt {

Scheduler::Scheduler(int nprocs, std::uint64_t quantum)
    : nprocs_(nprocs), quantum_(quantum), status_(nprocs, Status::Ready),
      blockReason_(nprocs, nullptr), lt_(nprocs, 0)
{
    ensure(nprocs >= 1 && nprocs <= kMaxProcs, "bad processor count");
    ensure(quantum >= 1, "quantum must be positive");
}

Scheduler::~Scheduler() = default;

ProcId
Scheduler::pickNext() const
{
    ProcId best = -1;
    for (int p = 0; p < nprocs_; ++p) {
        if (status_[p] != Status::Ready)
            continue;
        if (best < 0 || lt_[p] < lt_[best])
            best = p;
    }
    return best;
}

void
Scheduler::run(const std::function<void(ProcId)>& body)
{
    ensure(!active_,
           "scheduler is already running (nested run() on one Env)");
    active_ = true;
    doneCount_ = 0;
    for (int p = 0; p < nprocs_; ++p) {
        status_[p] = Status::Ready;
        blockReason_[p] = nullptr;
    }
    eventsInSlice_ = 0;
    running_ = pickNext();
    ensure(running_ >= 0, "no runnable processor at start");
    status_[running_] = Status::Running;

    body_ = &body;
    fibers_.clear();
    fibers_.reserve(nprocs_);
    for (int p = 0; p < nprocs_; ++p)
        fibers_.push_back(std::make_unique<Fiber>(&procMain, this));

    // Adopt the caller's context fresh each episode: successive
    // episodes may legally start from different host threads (or from
    // inside another Env's fiber).
    Fiber home;
    home_ = &home;
    Fiber::switchTo(home, *fibers_[running_]);
    home_ = nullptr;
    fibers_.clear();
    body_ = nullptr;

    active_ = false;
    running_ = -1;
}

void
Scheduler::procMain(void* self)
{
    auto* s = static_cast<Scheduler*>(self);
    // Control only ever arrives here through a switch to a fresh
    // fiber, and every switch sets running_ to its target first.
    const ProcId p = s->running_;
    (*s->body_)(p);
    s->status_[p] = Status::Done;
    if (++s->doneCount_ == s->nprocs_) {
        s->running_ = -1;
        Fiber::exitTo(*s->fibers_[p], *s->home_);
    } else {
        s->switchFrom(p, /*exiting=*/true);
    }
}

void
Scheduler::switchFrom(ProcId p, bool exiting)
{
    if (preSwitch_)
        preSwitch_(preSwitchCtx_, p);
    ProcId next = pickNext();
    if (next < 0) {
        if (doneCount_ == nprocs_)
            return;
        panic("deadlock: no runnable processor\n" + stateReport());
    }
    eventsInSlice_ = 0;
    running_ = next;
    status_[next] = Status::Running;
    if (exiting) {
        Fiber::exitTo(*fibers_[p], *fibers_[next]);
    } else if (next != p) {
        Fiber::switchTo(*fibers_[p], *fibers_[next]);
        // Resumed: whoever scheduled us already marked us Running.
    }
}

void
Scheduler::yield(ProcId p)
{
    ensure(running_ == p, "yield from a processor that is not running");
    status_[p] = Status::Ready;
    switchFrom(p, /*exiting=*/false);
}

void
Scheduler::block(ProcId p, const char* why)
{
    ensure(running_ == p, "block from a processor that is not running");
    status_[p] = Status::Blocked;
    blockReason_[p] = why;
    switchFrom(p, /*exiting=*/false);
    blockReason_[p] = nullptr;
}

void
Scheduler::unblock(ProcId q)
{
    ensure(q >= 0 && q < nprocs_, "unblock of invalid processor");
    if (status_[q] == Status::Blocked)
        status_[q] = Status::Ready;
}

std::string
Scheduler::stateReport() const
{
    auto statusName = [](Status s) {
        switch (s) {
        case Status::Ready: return "Ready";
        case Status::Running: return "Running";
        case Status::Blocked: return "Blocked";
        case Status::Done: return "Done";
        }
        return "?";
    };
    std::string out;
    for (int p = 0; p < nprocs_; ++p) {
        out += "  P" + std::to_string(p) + ": " +
               statusName(status_[p]);
        if (status_[p] == Status::Blocked && blockReason_[p]) {
            out += "(";
            out += blockReason_[p];
            out += ")";
        }
        out += " @t=" + std::to_string(lt_[p]) + "\n";
    }
    return out;
}

} // namespace splash::rt
