#include "testing/heap_count.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<long> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t bytes = size == 0 ? 1 : size;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(bytes)
                  : std::aligned_alloc(align,
                                       (bytes + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

long
gpsched::testing::heapAllocations()
{
    return allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

// The nothrow forms are replaced too, so that a sanitizer's own
// versions never pair with the free() below.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size, alignof(std::max_align_t));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size, static_cast<std::size_t>(align));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
