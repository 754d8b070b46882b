// Fixed-layout shared-memory arena — the transport substrate of the
// multi-process sharded engine (sim/multiproc_backend.h).
//
// One anonymous MAP_SHARED region is mapped by the supervisor *before* it forks
// the shard processes; every child inherits the mapping at the same virtual
// address, so the region needs no name to unlink, no fixed-address negotiation,
// and — unlike a SysV/POSIX segment attached post-exec — plain pointers into it
// are valid in every process (the SBLLmalloc shared-heap idiom: one
// page-granular region, layout fixed up front, processes communicate through
// offsets computed against a common base). Everything cross-process lives here:
// the supervisor's control block (abort flag, start barrier, per-shard
// completion states and heartbeats), one telemetry slot per shard (a version
// word and its load partials), the serialized route tables, the realloc report
// slots and one serialized-BackendStats region per shard for the quota-end
// merge.
//
// Huge pages: Map(bytes, /*huge_pages=*/true) first tries MAP_HUGETLB with the
// size rounded up to 2 MiB and falls back to normal pages when the pool is
// empty or the kernel lacks support — the run proceeds either way and
// ShmArena::huge() reports what actually backed the region (surfaced in the
// bench substrate column). See the CMU-CORGI LLC-port docs / SBLLmalloc notes
// referenced from ROADMAP for the hugepage pool setup itself
// (vm.nr_hugepages); nothing here requires it.
//
// Page placement is the kernel's first-touch default: nothing binds or
// interleaves the region across NUMA nodes, so the plan tables the supervisor
// serializes land on its node and each shard's slots on the first writer's.
//
// Layout discipline: ArenaLayout is a bump allocator over *offsets* run twice —
// once before Map() to size the region, once after to hand out the same
// offsets as pointers. Alignment floor is the cache line, so no two
// independently-reserved blocks can share a line (the false-sharing rule the
// in-process rings already follow).
#ifndef DISTCACHE_RUNTIME_SHM_ARENA_H_
#define DISTCACHE_RUNTIME_SHM_ARENA_H_

#include <cstddef>
#include <cstdint>

#include "common/cacheline.h"

namespace distcache {

// Offset bump allocator for the arena's fixed layout.
class ArenaLayout {
 public:
  // Reserves `bytes` aligned to max(align, cache line); returns the offset.
  size_t Reserve(size_t bytes, size_t align = kCacheLineSize) {
    if (align < kCacheLineSize) {
      align = kCacheLineSize;
    }
    total_ = (total_ + align - 1) & ~(align - 1);
    const size_t offset = total_;
    total_ += bytes;
    return offset;
  }
  size_t total() const { return total_; }

 private:
  size_t total_ = 0;
};

class ShmArena {
 public:
  ShmArena() = default;
  ~ShmArena() { Unmap(); }

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  // Maps `bytes` of zero-filled shared memory (anonymous, inherited across
  // fork). With `huge_pages`, tries a 2 MiB-page backing first and silently
  // falls back. Returns false only when even the normal-page mapping fails
  // (address space / memory exhaustion).
  bool Map(size_t bytes, bool huge_pages);
  // Releases the mapping (the process's view; the region itself dies with the
  // last attached process). Idempotent — the teardown the ASan test pins.
  void Unmap();

  bool mapped() const { return base_ != nullptr; }
  bool huge() const { return huge_; }
  size_t size() const { return size_; }
  uint8_t* base() const { return base_; }
  uint8_t* At(size_t offset) const { return base_ + offset; }

  // Probe: can a region of `bytes` be mapped right now (normal pages)? Used by
  // the bench/CI detect-and-skip path — maps and immediately unmaps.
  static bool Available(size_t bytes);
  // Probe: does a MAP_HUGETLB mapping of one huge page succeed right now?
  // (Reserved pool non-empty and kernel support present.)
  static bool HugePagesAvailable();

 private:
  uint8_t* base_ = nullptr;
  size_t size_ = 0;    // bytes requested
  size_t mapped_ = 0;  // bytes actually mapped (huge rounds up)
  bool huge_ = false;
};

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_SHM_ARENA_H_
