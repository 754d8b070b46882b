#include "runtime/shm_arena.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace distcache {

#ifdef __linux__

namespace {

constexpr size_t kHugePageBytes = 2u << 20;  // the common 2 MiB hugetlb size

void* TryMap(size_t bytes, int extra_flags) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS | extra_flags, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

}  // namespace

bool ShmArena::Map(size_t bytes, bool huge_pages) {
  Unmap();
  if (bytes == 0) {
    bytes = 1;
  }
  if (huge_pages) {
    const size_t rounded = (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    if (void* p = TryMap(rounded, MAP_HUGETLB)) {
      base_ = static_cast<uint8_t*>(p);
      size_ = bytes;
      mapped_ = rounded;
      huge_ = true;
      return true;
    }
    // Pool empty or unsupported: fall through to normal pages — the engine
    // works identically, only the TLB footprint differs.
  }
  if (void* p = TryMap(bytes, 0)) {
    base_ = static_cast<uint8_t*>(p);
    size_ = bytes;
    mapped_ = bytes;
    huge_ = false;
    return true;
  }
  return false;
}

void ShmArena::Unmap() {
  if (base_ != nullptr) {
    ::munmap(base_, mapped_);
    base_ = nullptr;
    size_ = 0;
    mapped_ = 0;
    huge_ = false;
  }
}

bool ShmArena::Available(size_t bytes) {
  if (void* p = TryMap(bytes == 0 ? 1 : bytes, 0)) {
    ::munmap(p, bytes == 0 ? 1 : bytes);
    return true;
  }
  return false;
}

bool ShmArena::HugePagesAvailable() {
  if (void* p = TryMap(kHugePageBytes, MAP_HUGETLB)) {
    ::munmap(p, kHugePageBytes);
    return true;
  }
  return false;
}

#else  // !__linux__

bool ShmArena::Map(size_t, bool) { return false; }
void ShmArena::Unmap() {}
bool ShmArena::Available(size_t) { return false; }
bool ShmArena::HugePagesAvailable() { return false; }

#endif

}  // namespace distcache
