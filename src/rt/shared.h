/**
 * @file
 * Instrumented shared-data containers.
 *
 * All shared application state lives in SharedArray<T> / SharedVar<T>,
 * allocated from the Env's SharedHeap.  Every access goes through the
 * current ProcCtx's read/write hooks, which is how the reference
 * stream reaches the memory-system simulator: the hook is a record
 * append into the Env's ring, drained at scheduling boundaries (see
 * rt/env.h).  Outside a team
 * body (problem setup, result verification) the hooks are no-ops,
 * matching the paper's methodology of measuring only the parallel
 * phase.
 *
 * Access idioms:
 *
 *  - scalar element types: `a[i]` yields a proxy usable as a value and
 *    as an assignment target (`a[i] = x; y = a[i]; a[i] += z;`);
 *  - struct element types: whole-element `ld(i)` / `st(i, v)`, or
 *    field-granular `ldf(i, &S::member)` / `stf(i, &S::member, v)`
 *    which reference only the member's bytes (important for false
 *    sharing fidelity);
 *  - bulk kernels may use `raw()` with explicit `touchRead/touchWrite`
 *    annotations when proxy overhead matters.
 */
#ifndef SPLASH2_RT_SHARED_H
#define SPLASH2_RT_SHARED_H

#include <cstddef>
#include <type_traits>

#include "base/log.h"
#include "rt/env.h"

namespace splash::rt {

/** Record an instrumented read of [p, p+n) on the current processor. */
inline void
touchRead(const void* p, std::size_t n)
{
    if (ProcCtx* c = cur())
        c->read(p, n);
}

/** Record an instrumented write of [p, p+n) on the current processor. */
inline void
touchWrite(const void* p, std::size_t n)
{
    if (ProcCtx* c = cur())
        c->write(p, n);
}

/** Like touchRead/touchWrite, but the record carries the atomic flag:
 *  identical for every memory-system statistic, excluded from
 *  happens-before race checking (sim/racecheck.h). */
inline void
touchReadAtomic(const void* p, std::size_t n)
{
    if (ProcCtx* c = cur())
        c->readAtomic(p, n);
}

inline void
touchWriteAtomic(const void* p, std::size_t n)
{
    if (ProcCtx* c = cur())
        c->writeAtomic(p, n);
}

/** A shared array of trivially-copyable elements. */
template <typename T>
class SharedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "shared elements must be trivially copyable");
    static_assert(std::is_trivially_destructible_v<T>,
                  "shared elements must be trivially destructible");

  public:
    /** Element proxy that instruments value reads and writes. */
    class Ref
    {
      public:
        explicit Ref(T* p) : p_(p) {}

        operator T() const
        {
            touchRead(p_, sizeof(T));
            return *p_;
        }

        Ref&
        operator=(const T& v)
        {
            touchWrite(p_, sizeof(T));
            *p_ = v;
            return *this;
        }

        Ref&
        operator=(const Ref& o)
        {
            return *this = static_cast<T>(o);
        }

        Ref& operator+=(const T& v) { return *this = static_cast<T>(*this) + v; }
        Ref& operator-=(const T& v) { return *this = static_cast<T>(*this) - v; }
        Ref& operator*=(const T& v) { return *this = static_cast<T>(*this) * v; }
        Ref& operator/=(const T& v) { return *this = static_cast<T>(*this) / v; }

      private:
        T* p_;
    };

    SharedArray() = default;

    /** Allocate @p n zero-initialized elements from @p env's heap. */
    SharedArray(Env& env, std::size_t n)
        : heap_(&env.heap()), n_(n),
          data_(static_cast<T*>(env.heap().alloc(
              n * sizeof(T), alignof(T) > 64 ? alignof(T) : 64)))
    {}

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }

    Ref
    operator[](std::size_t i)
    {
        return Ref(&data_[i]);
    }

    /** Instrumented whole-element load. */
    T
    ld(std::size_t i) const
    {
        touchRead(&data_[i], sizeof(T));
        return data_[i];
    }

    /** Instrumented whole-element store. */
    void
    st(std::size_t i, const T& v)
    {
        touchWrite(&data_[i], sizeof(T));
        data_[i] = v;
    }

    /** Instrumented field load: references only the member's bytes. */
    template <typename F, typename U = T>
        requires std::is_class_v<U>
    F
    ldf(std::size_t i, F U::* field) const
    {
        const F* p = &(data_[i].*field);
        touchRead(p, sizeof(F));
        return *p;
    }

    /** Instrumented field store. */
    template <typename F, typename U = T>
        requires std::is_class_v<U>
    void
    stf(std::size_t i, F U::* field, const F& v)
    {
        F* p = &(data_[i].*field);
        touchWrite(p, sizeof(F));
        *p = v;
    }

    /** Instrumented load that is also a host-level relaxed atomic.
     *  The *simulated* machine is coherent (the memory-system model
     *  provides that), but lock-free idioms like an unlocked emptiness
     *  peek are real data races on the host unless both sides use
     *  atomic accesses.  Same address/size/type instrumentation as
     *  ld(), so the simulated reference stream is unchanged -- the
     *  record just carries the atomic flag, which excludes it from
     *  happens-before race checking exactly as the host-level atomic
     *  excludes it from TSan. */
    template <typename U = T>
        requires std::is_integral_v<U>
    T
    ldAtomic(std::size_t i) const
    {
        touchReadAtomic(&data_[i], sizeof(T));
        return __atomic_load_n(&data_[i], __ATOMIC_RELAXED);
    }

    /** Instrumented store, host-level relaxed atomic (see ldAtomic). */
    template <typename U = T>
        requires std::is_integral_v<U>
    void
    stAtomic(std::size_t i, const T& v)
    {
        touchWriteAtomic(&data_[i], sizeof(T));
        __atomic_store_n(&data_[i], v, __ATOMIC_RELAXED);
    }

    /** Instrumented whole-element load annotated as an *intentional*
     *  unsynchronized read.  Some SPLASH-2 codes read shared records
     *  without holding the protecting lock by design -- Radiosity's
     *  visibility and refinement stages read patch data that another
     *  processor may be subdividing, tolerating stale values (the
     *  original release documents these as acceptable data races).
     *  The reference stream is identical to ld() -- same address,
     *  size, and type, so every memory-system statistic is unchanged
     *  -- but the record carries the atomic flag, which excludes it
     *  from happens-before race checking the same way a TSan
     *  suppression silences a known benign race.  Only the annotated
     *  access is excluded: a second *unannotated* unsynchronized
     *  access to the same data still reports. */
    T
    ldRacy(std::size_t i) const
    {
        touchReadAtomic(&data_[i], sizeof(T));
        return data_[i];
    }

    /** Uninstrumented access for setup/verification and for annotated
     *  bulk kernels. */
    T* raw() { return data_; }
    const T* raw() const { return data_; }

    /** Home [first, first+count) elements at node @p home (rounded to
     *  the enclosing byte range). */
    void
    setHome(std::size_t first, std::size_t count, ProcId home)
    {
        heap_->setHome(&data_[first], count * sizeof(T), home);
    }

  private:
    SharedHeap* heap_ = nullptr;
    std::size_t n_ = 0;
    T* data_ = nullptr;
};

/** A single shared scalar. */
template <typename T>
class SharedVar
{
  public:
    SharedVar() = default;
    explicit SharedVar(Env& env, const T& init = T{}) : a_(env, 1)
    {
        *a_.raw() = init;
    }

    typename SharedArray<T>::Ref operator*() { return a_[0]; }
    T get() const { return a_.ld(0); }
    void set(const T& v) { a_.st(0, v); }
    /** Host-level relaxed atomics (see SharedArray::ldAtomic). */
    T getAtomic() const { return a_.ldAtomic(0); }
    void setAtomic(const T& v) { a_.stAtomic(0, v); }
    T* raw() { return a_.raw(); }

  private:
    SharedArray<T> a_;
};

} // namespace splash::rt

#endif // SPLASH2_RT_SHARED_H
