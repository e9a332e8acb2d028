/**
 * @file
 * Deterministic pseudo-random number generation for workloads.
 *
 * A small, fast PCG32 generator. Every stochastic component of the
 * simulator takes an explicit Rng (or a seed) so that all experiments
 * are reproducible run-to-run.
 */

#ifndef DSASIM_SIM_RANDOM_HH
#define DSASIM_SIM_RANDOM_HH

#include <cstdint>

namespace dsasim
{

/** PCG32 (Melissa O'Neill's pcg32_random_r), deterministic and seedable. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL)
    {
        state = 0;
        inc = (seq << 1) | 1u;
        next32();
        state += seed;
        next32();
    }

    /** Uniform 32-bit value. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next32()) << 32) | next32();
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        // Debiased modulo (Lemire-style rejection kept simple).
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi <= lo)
            return lo;
        std::uint64_t span = hi - lo + 1;
        if (span == 0) // full 64-bit range
            return next64();
        return lo + next64() % span;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next32()) / 4294967296.0;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

} // namespace dsasim

#endif // DSASIM_SIM_RANDOM_HH
