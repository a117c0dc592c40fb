/**
 * @file
 * Heap-allocation counter for tests that pin an allocation-free
 * path. A test binary built with heap_count.cc (tests/CMakeLists.txt
 * adds it per binary) replaces the global operator new and delete
 * with versions that count every allocation and forward to malloc
 * and free.
 */

#ifndef GPSCHED_TESTING_HEAP_COUNT_HH
#define GPSCHED_TESTING_HEAP_COUNT_HH

namespace gpsched::testing
{

/** Global operator new calls in this process so far. */
long heapAllocations();

} // namespace gpsched::testing

#endif // GPSCHED_TESTING_HEAP_COUNT_HH
