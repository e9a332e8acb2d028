/**
 * @file
 * Deterministic open-loop traffic generation for multi-tenant
 * serving scenarios.
 *
 * The serving roadmap item needs thousands of tenants submitting
 * independently across partitioned sockets, with the N=1 and N=k
 * `DSASIM_PARTITIONS` event streams bit-identical even mid-overload.
 * A stateful generator (sim/random.hh's Rng) cannot provide that:
 * its draw order would depend on how tenant coroutines interleave.
 * Arrival streams here are therefore *counter-based*: the k-th
 * variate of tenant t is a pure function of (seed, t, k), so any
 * execution order — or partitioning — observes the same stream.
 * simlint's `tenant-rng` rule enforces the discipline for this
 * translation unit.
 *
 * Arrival-mix grammar (DSASIM_ARRIVALS), mirroring DSASIM_FAULTS:
 *
 *   pattern[:key=value[,key=value]...][;pattern:...]
 *
 *   patterns: poisson | bursty | diurnal
 *   keys:     rate=<arrivals/sec>   mean arrival rate (all patterns)
 *             weight=<N>            share of tenants on this class
 *             bytes=<N>             mean request payload size
 *             factor=<F>            bursty: on-phase rate multiplier
 *             period=<N>            bursty/diurnal: arrivals per cycle
 *             duty=<0..1>           bursty: on fraction of the cycle
 *             amp=<0..1>            diurnal: rate swing fraction
 *
 * Example:
 *   DSASIM_ARRIVALS="poisson:rate=2000,weight=14;bursty:rate=500,
 *                    factor=16,weight=2"
 */

#ifndef DSASIM_SIM_TRAFFIC_HH
#define DSASIM_SIM_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace dsasim
{

/**
 * Stateless counter-based random source (SplitMix64-style mixing).
 * Draw k of stream s is a pure function of (seed, s, k): there is no
 * mutable position, so concurrent readers and replays always agree.
 */
class CounterRng
{
  public:
    constexpr CounterRng(std::uint64_t seed, std::uint64_t stream)
        : base(mix(seed ^ kGolden * (stream + 1)))
    {}

    /** The k-th 64-bit draw. */
    constexpr std::uint64_t
    at(std::uint64_t k) const
    {
        return mix(base + kGolden * (k + 1));
    }

    /** The k-th draw in [0, 1). */
    constexpr double
    uniformAt(std::uint64_t k) const
    {
        return static_cast<double>(at(k) >> 11) * 0x1.0p-53;
    }

    /** The k-th draw in [0, bound) via Lemire reduction. */
    constexpr std::uint64_t
    belowAt(std::uint64_t k, std::uint64_t bound) const
    {
        using u128 = unsigned __int128;
        return static_cast<std::uint64_t>(
            (static_cast<u128>(at(k)) * bound) >> 64);
    }

    /** The k-th unit-mean exponential variate (strictly positive). */
    double expAt(std::uint64_t k) const;

  private:
    static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

    static constexpr std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    std::uint64_t base;
};

enum class ArrivalPattern : std::uint8_t
{
    Poisson, ///< memoryless: exponential inter-arrivals
    Bursty,  ///< on/off: on-phase rate scaled by burstFactor
    Diurnal, ///< sinusoidal rate modulation over diurnalPeriod
};

const char *arrivalPatternName(ArrivalPattern p);

/** One tenant class of the arrival mix. */
struct ArrivalClass
{
    ArrivalPattern pattern = ArrivalPattern::Poisson;
    double ratePerSec = 1000.0;  ///< mean arrivals per second
    unsigned weight = 1;         ///< share of tenants on this class
    std::uint64_t payloadBytes = 4096; ///< mean request payload

    /// @name Bursty shape (rate-preserving on/off cycle).
    /// @{
    double burstFactor = 8.0;  ///< on-phase rate multiplier
    unsigned burstPeriod = 64; ///< arrivals per on+off cycle
    double burstDuty = 0.25;   ///< on fraction of the cycle
    /// @}

    /// @name Diurnal shape.
    /// @{
    double diurnalAmplitude = 0.5; ///< rate swing fraction in [0,1]
    unsigned diurnalPeriod = 256;  ///< arrivals per "day"
    /// @}
};

/**
 * A parsed arrival mix: tenants map onto classes deterministically
 * by weighted round-robin (tenant % total-weight), so the assignment
 * is independent of construction order or partitioning.
 */
class ArrivalMix
{
  public:
    /** Parse a mix spec (see file header); malformed is fatal. */
    static ArrivalMix parse(const std::string &spec);

    const ArrivalClass &classFor(std::uint64_t tenant) const;
    std::size_t classIndexFor(std::uint64_t tenant) const;

    std::size_t classCount() const { return classes.size(); }
    const ArrivalClass &at(std::size_t i) const { return classes[i]; }

  private:
    std::vector<ArrivalClass> classes;
    unsigned totalWeight = 0;
};

/**
 * The arrival stream of one tenant: inter-arrival k is a pure
 * function of (seed, tenant, k). Offered load never adapts to
 * completions — the generator is open-loop by construction.
 */
class ArrivalStream
{
  public:
    ArrivalStream(std::uint64_t seed, std::uint64_t tenant,
                  const ArrivalClass &c)
        : rng(seed, tenant), cls(c)
    {}

    /** Ticks between arrival k-1 and arrival k (always >= 1). */
    Tick interarrival(std::uint64_t k) const;

    const ArrivalClass &arrivalClass() const { return cls; }

  private:
    CounterRng rng;
    ArrivalClass cls;
};

} // namespace dsasim

#endif // DSASIM_SIM_TRAFFIC_HH
