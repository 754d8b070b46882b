// CPU pinning for shard workers — threads and forked shard processes alike.
//
// On Linux, sched_setaffinity(0, ...) binds the *calling thread* (or a
// single-threaded child process), which covers both deployment shapes:
//
//   * the in-process sharded engine calls PinToCore from each shard thread
//     when SimBackendConfig::pin_cores is set (--pin-cores), and
//   * the multi-process engine calls it from each forked shard process right
//     after the fork, before the process allocates its state or writes its
//     arena telemetry slot — so their first-touch page placement lands on
//     the pinned core's NUMA node (the "NUMA-aware arena placement"
//     discipline: no mbind/libnuma dependency, just pin-then-touch).
//
// Cores are assigned round-robin modulo the online-CPU count, so shard counts
// above the machine size degrade to oversubscription instead of failing.
// Non-Linux builds compile PinToCore to a no-op returning false.
#ifndef DISTCACHE_RUNTIME_AFFINITY_H_
#define DISTCACHE_RUNTIME_AFFINITY_H_

#include <cstdint>

#ifdef __linux__
#include <sched.h>
#include <unistd.h>
#endif

namespace distcache {

// Number of CPUs currently usable, >= 1 (1 on probe failure / non-Linux).
inline uint32_t OnlineCores() {
#ifdef __linux__
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint32_t>(n) : 1u;
#else
  return 1u;
#endif
}

// Pins the calling thread (thread 0 of a forked child = the whole shard
// process) to core `core % OnlineCores()`. Returns true on success; failure is
// benign (the shard just runs unpinned) so callers treat it as advisory.
inline bool PinToCore(uint32_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % OnlineCores(), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_AFFINITY_H_
