/**
 * @file
 * StreamDigest -- a fingerprint of the reference stream.
 *
 * Every number the simulator reports is a function of the reference
 * stream the interleaver delivers for one (app, P, problem, quantum).
 * StreamDigest folds that stream, in delivered order, into one
 * FNV-1a-64 value: every AccessRec (proc, addr, size, type, flags,
 * ltime), every SyncRec, every PlaceRec, and the position of every
 * measurement reset.  Pinning the digest of each program therefore
 * pins the interleaving itself -- any change to scheduling, delivery
 * order, instrumentation or placement shows up as a different value
 * (tests/sim/fingerprint_test.cc).
 *
 * Each record is hashed field by field with a leading tag byte, so the
 * value does not depend on struct padding.
 */
#ifndef SPLASH2_SIM_STREAMDIGEST_H
#define SPLASH2_SIM_STREAMDIGEST_H

#include <cstdint>

#include "base/hash.h"
#include "sim/trace.h"

namespace splash::sim {

class StreamDigest final : public RefSink
{
  public:
    void
    access(const AccessRec& r) override
    {
        tag('A');
        mix(r.proc);
        mix(r.addr);
        mix(r.size);
        mix(static_cast<std::uint8_t>(r.type));
        mix(r.flags);
        mix(r.ltime);
        ++accesses_;
    }

    void
    sync(const SyncRec& r) override
    {
        tag('S');
        mix(r.proc);
        mix(r.obj);
        mix(static_cast<std::uint8_t>(r.op));
        mix(static_cast<std::uint8_t>(r.prim));
        mix(r.ltime);
    }

    void
    place(const PlaceRec& r) override
    {
        tag('P');
        mix(r.addr);
        mix(r.bytes);
        mix(static_cast<std::int32_t>(r.home));
    }

    /** A measurement reset is a stream position, not a reason to
     *  forget the prefix: it is folded in as a marker. */
    void resetStats() override { tag('R'); }

    /** Fingerprint of everything delivered so far. */
    std::uint64_t value() const { return h_; }
    /** References delivered so far. */
    std::uint64_t accesses() const { return accesses_; }

  private:
    void
    tag(char c)
    {
        h_ = fnv1a64(&c, 1, h_);
    }

    template <typename T>
    void
    mix(T v)
    {
        h_ = fnv1a64(&v, sizeof(v), h_);
    }

    std::uint64_t h_ = kFnv1a64Basis;
    std::uint64_t accesses_ = 0;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_STREAMDIGEST_H
