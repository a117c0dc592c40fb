#include "support/random.hh"

#include "support/logging.hh"

namespace gpsched
{

namespace
{

/** SplitMix64 step used for seeding. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro256** must not start from the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 0x2545f4914f6cdd1dULL;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    GPSCHED_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    GPSCHED_ASSERT(lo <= hi, "nextRange requires lo <= hi, got ", lo,
                   " > ", hi);
    std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits.
    return (next() >> 11) * (1.0 / 9007199254740992.0);
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace gpsched
