// Wait-loop pacing shared by every off-hot-path poll loop in the runtime: the
// shard runtime's waits (start barrier, re-allocation rendezvous) and the
// multi-process supervisor's reap loop.
//
// Escalation schedule: yield first so a runnable peer gets the core (the
// single-core case — the peer we are waiting on may be timesliced onto *this*
// CPU), then drop to micro-sleeps so a long wait does not burn the timeslice a
// working shard (or shard process) needs. The schedule is pinned by
// tests/runtime/backoff_test.cc: spins 1..kYieldSpins-1 yield, everything after
// sleeps kSleepMicros — no exponential growth, because the waits this paces are
// rendezvous barriers whose expected duration is one peer batch (~microseconds),
// and a grown sleep would turn a one-batch wait into a stall.
#ifndef DISTCACHE_RUNTIME_BACKOFF_H_
#define DISTCACHE_RUNTIME_BACKOFF_H_

#include <chrono>
#include <thread>

namespace distcache {

class Backoff {
 public:
  // What a Pause() did — exposed so the escalation schedule is unit-testable
  // without timing the sleeps.
  enum class Kind { kYield, kSleep };

  static constexpr int kYieldSpins = 64;
  static constexpr int kSleepMicros = 50;

  Kind Pause() {
    if (++spins_ < kYieldSpins) {
      std::this_thread::yield();
      return Kind::kYield;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kSleepMicros));
    return Kind::kSleep;
  }

  // The schedule alone (no yield/sleep side effect): what the next Pause()
  // would do. Drives the unit test and costs nothing in shipping code.
  Kind NextKind() const {
    return spins_ + 1 < kYieldSpins ? Kind::kYield : Kind::kSleep;
  }

  int spins() const { return spins_; }
  void Reset() { spins_ = 0; }

 private:
  int spins_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_BACKOFF_H_
