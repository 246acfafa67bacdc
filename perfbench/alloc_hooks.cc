// Replacement global allocation functions for the traced binary only: every
// allocation is counted against the layer whose TracedNode is on the stack
// and added to the live-heap gauge. The untraced binary does not link this
// file, so it measures the program with the system allocator untouched.

#include <cstdlib>
#include <new>

#include "perfbench/layer_trace.h"

namespace {

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  perfbench::NoteAlloc(p);
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(align, ((n == 0 ? 1 : n) + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  perfbench::NoteAlloc(p);
  return p;
}

void Release(void* p) {
  if (p != nullptr) {
    perfbench::NoteFree(p);
    std::free(p);
  }
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return AllocateAligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return AllocateAligned(n, al); }

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { Release(p); }
