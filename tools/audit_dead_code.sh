#!/usr/bin/env bash
# Lists the library functions that no shipped binary links.
#
#   tools/audit_dead_code.sh [BUILD_DIR]   # default: build-audit
#
# Configures BUILD_DIR as an -O0 build with one section per function
# and tests off, links every shipped binary (gpsched, eval, the five
# examples, and perfbench built by hand against the same library)
# with --gc-sections, and prints each out-of-line gpsched:: function
# that libgpsched.a defines but none of those binaries keeps. Inline
# functions are outside the audit: only strong text symbols count.
# Functions in ALLOWED below are kept on purpose. Exits 1 when it
# prints anything.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(realpath -m "${1:-build-audit}")

# Kept though no shipped binary links them: tests use each one.
ALLOWED=(
  # validateSchedule/simulate on a PartialSchedule, and the flattening
  # they share: the scheduler unit tests' oracles (about 30 calls).
  'gpsched::validateSchedule(gpsched::Ddg const&, gpsched::MachineConfig const&, gpsched::PartialSchedule const&)'
  'gpsched::sim::simulate(gpsched::Ddg const&, gpsched::MachineConfig const&, gpsched::PartialSchedule const&)'
  'gpsched::flattenSchedule(gpsched::Ddg const&, gpsched::PartialSchedule const&, gpsched::ScheduleImage&)'
  # Equality of parsed machines: what EXPECT_EQ compares in the
  # machine-description round-trip tests.
  'gpsched::MachineConfig::operator==(gpsched::MachineConfig const&) const'
)

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DGPSCHED_BUILD_TESTS=OFF >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null
lib="$build/src/libgpsched.a"
c++ -std=c++17 -O0 -ffunction-sections -I"$root/src" \
  -DPERFBENCH_BUILD_TYPE='"Debug"' -DPERFBENCH_COMPILER='"audit"' \
  "$root/perfbench/perfbench.cc" "$lib" -pthread -Wl,--gc-sections \
  -o "$build/perfbench"

# Strong text symbols in namespace gpsched, demangled, one per line.
functions() {
  nm -C --defined-only "$@" |
    sed -n 's/^[0-9a-f]* T \(gpsched::.*\)$/\1/p' | sort -u
}

binaries=("$build/tools/gpsched" "$build/bench/eval" "$build/perfbench")
for exe in "$build"/examples/*; do
  if [[ -f $exe && -x $exe ]]; then binaries+=("$exe"); fi
done

dead=$(comm -23 <(functions "$lib") \
  <({ functions "${binaries[@]}"; printf '%s\n' "${ALLOWED[@]}"; } |
    sort -u))
if [[ -n "$dead" ]]; then
  echo "$dead"
  exit 1
fi
