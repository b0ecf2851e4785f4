/**
 * @file
 * Stackful user-level fibers -- the mechanism underneath the Scheduler.
 *
 * A Fiber is an independent execution context (its own stack, its own
 * saved register file) that is switched to and from explicitly, in
 * user space, on a single host thread.  Switching costs a few tens of
 * nanoseconds: on x86-64 it is a hand-rolled save/restore of the
 * callee-saved registers and the FP control words (see
 * fiber_switch_x86_64.S); other architectures fall back to POSIX
 * ucontext, which is slower (it round-trips the signal mask through
 * the kernel) but semantically identical.
 *
 * Stacks are mmap'd with a PROT_NONE guard page below them so that an
 * overflow faults deterministically instead of corrupting a neighbor.
 * Under AddressSanitizer every switch is bracketed with the
 * __sanitizer_*_switch_fiber annotations so ASan tracks the active
 * stack correctly across switches.  Under ThreadSanitizer every Fiber
 * carries a __tsan_create_fiber context and every transfer calls
 * __tsan_switch_to_fiber immediately before the switch, so TSan's
 * per-context shadow state follows the simulated processors instead of
 * reporting phantom races between frames that merely share a host
 * thread (build with -DSPLASH2_TSAN=ON).
 *
 * Two transfer flavors:
 *  - switchTo(from, to): `from` expects to be resumed later.
 *  - exitTo(from, to):   `from` is finished and will never run again
 *    (lets ASan release its fake-stack frames immediately).
 */
#ifndef SPLASH2_RT_FIBER_H
#define SPLASH2_RT_FIBER_H

#include <cstddef>

#if !defined(__x86_64__)
#define SPLASH2_FIBER_UCONTEXT 1
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SPLASH2_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPLASH2_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SPLASH2_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPLASH2_FIBER_TSAN 1
#endif
#endif

namespace splash::rt {

class Fiber
{
  public:
    using Entry = void (*)(void* arg);

    /** Default stack size. Like host-thread stacks this is virtual
     *  address space; only pages actually touched are committed. */
    static constexpr std::size_t kDefaultStackBytes =
        std::size_t{8} << 20;

    /** Adopt the calling host-thread context (no stack is allocated);
     *  used for the scheduler's "home" context that run() returns to. */
    Fiber();

    /** Create a fiber that will execute entry(arg) when first switched
     *  to. entry must not return; it must exitTo() another fiber. */
    Fiber(Entry entry, void* arg,
          std::size_t stackBytes = kDefaultStackBytes);

    ~Fiber();

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /** Transfer control from @p from (the running fiber) to @p to.
     *  Returns when something switches back to @p from. */
    static void switchTo(Fiber& from, Fiber& to);

    /** Transfer control to @p to; @p from never resumes. Its stack
     *  stays mapped until the Fiber is destroyed. */
    static void exitTo(Fiber& from, Fiber& to);

    /** Internal: first-entry target invoked by the switch trampoline. */
    [[noreturn]] void invoke();

  private:
    void initStack(std::size_t stackBytes);
    static void switchImpl(Fiber& from, Fiber& to, bool fromExiting);

    void* sp_ = nullptr;       ///< saved stack pointer (asm path)
    Entry entry_ = nullptr;
    void* arg_ = nullptr;
    void* stackMap_ = nullptr; ///< mmap base (guard page + stack)
    std::size_t mapBytes_ = 0;

#if SPLASH2_FIBER_UCONTEXT
    ucontext_t uc_;
#endif
#if SPLASH2_FIBER_ASAN
    void* fakeStack_ = nullptr;       ///< ASan fake-stack save slot
    const void* asanBottom_ = nullptr; ///< stack bottom for annotations
    std::size_t asanSize_ = 0;
#endif
#if SPLASH2_FIBER_TSAN
    void* tsanFiber_ = nullptr;  ///< TSan context for this fiber
    /** The context belongs to the adopting host thread (default-
     *  constructed fibers); it must not be destroyed with the Fiber. */
    bool tsanAdopted_ = false;
#endif
};

} // namespace splash::rt

#endif // SPLASH2_RT_FIBER_H
