// Gate for sim tests that fork: the multiproc launcher is skipped under TSan
// (TSan's runtime does not follow fork-without-exec children; the thread
// launcher keeps TSan coverage of the shared arena logic) and on hosts where
// the shm arena cannot be mapped.
#ifndef DISTCACHE_TESTS_SIM_MULTIPROC_RUNNABLE_H_
#define DISTCACHE_TESTS_SIM_MULTIPROC_RUNNABLE_H_

#include <gtest/gtest.h>

#include "sim/multiproc_backend.h"

#if defined(__SANITIZE_THREAD__)
#define DISTCACHE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DISTCACHE_TSAN 1
#endif
#endif

namespace distcache {

inline bool MultiprocRunnable() {
#if defined(DISTCACHE_TSAN)
  return false;
#else
  return MultiprocBackend::Supported();
#endif
}

}  // namespace distcache

#define SKIP_UNLESS_MULTIPROC_RUNNABLE()                                  \
  do {                                                                    \
    if (!MultiprocRunnable()) {                                           \
      GTEST_SKIP() << "multiproc backend not runnable here (TSan build, " \
                      "non-Linux, or shm arena unavailable)";             \
    }                                                                     \
  } while (0)

#endif  // DISTCACHE_TESTS_SIM_MULTIPROC_RUNNABLE_H_
