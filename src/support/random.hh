/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in gpsched (workload generation, tie
 * shuffling in ablation benches) flows through Rng so that every run
 * of every binary is bit-reproducible. The generator is SplitMix64
 * seeded xoshiro256**, which is small, fast and has no global state.
 */

#ifndef GPSCHED_SUPPORT_RANDOM_HH
#define GPSCHED_SUPPORT_RANDOM_HH

#include <cstdint>
#include <vector>

namespace gpsched
{

/** Deterministic xoshiro256** generator with convenience helpers. */
class Rng
{
  public:
    /** Seeds the state via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns the next raw 64-bit value. */
    std::uint64_t next();

    /** Returns a uniform integer in [0, bound), bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Returns a uniform integer in [lo, hi] (inclusive). */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Returns a uniform double in [0, 1). */
    double nextDouble();

    /** Returns true with probability @p p (clamped to [0,1]). */
    bool nextBool(double p);

    /** Fisher-Yates shuffles @p values in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            std::size_t j = nextBelow(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /**
     * Derives an independent child generator; used to give each
     * synthetic loop its own stream so adding loops never perturbs
     * the others.
     */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace gpsched

#endif // GPSCHED_SUPPORT_RANDOM_HH
