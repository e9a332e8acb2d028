/**
 * @file
 * Shared test scaffolding: a small SPR-like platform with a reduced
 * LLC (so per-test construction stays cheap) plus coroutine drivers
 * for running one-shot operations to completion.
 */

#ifndef DSASIM_TESTS_UTIL_HH
#define DSASIM_TESTS_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dml/dml.hh"
#include "driver/platform.hh"
#include "sim/random.hh"
#include "sim/task.hh"

namespace dsasim::test
{

inline PlatformConfig
smallSpr(unsigned dsa_devices = 1, int cores = 4)
{
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = cores;
    cfg.numDsaDevices = dsa_devices;
    cfg.mem.llc.sizeBytes = 8 << 20; // keep the directory small
    cfg.mem.llc.ways = 8;
    cfg.mem.llc.ddioWays = 2;
    for (auto &n : cfg.mem.nodes)
        n.capacityBytes = 2ull << 30;
    return cfg;
}

/** A platform + one address space, ready for operations. */
struct Bench
{
    explicit Bench(PlatformConfig config = smallSpr())
        : cfg(std::move(config)), plat(sim, cfg),
          as(&plat.mem().createSpace())
    {}

    /** Fill [va, va+n) with deterministic pseudo-random bytes. */
    void
    randomize(Addr va, std::uint64_t n, std::uint64_t seed = 1)
    {
        Rng rng(seed);
        std::vector<std::uint8_t> buf(n);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next32());
        as->write(va, buf.data(), n);
    }

    std::vector<std::uint8_t>
    bytes(Addr va, std::uint64_t n)
    {
        std::vector<std::uint8_t> buf(n);
        as->read(va, buf.data(), n);
        return buf;
    }

    Simulation sim;
    PlatformConfig cfg;
    Platform plat;
    AddressSpace *as;
};

/** Drive one dml op to completion on core 0. */
inline SimTask
driveOp(Bench &b, dml::Executor &ex, WorkDescriptor d,
        dml::OpResult &out, bool &finished)
{
    co_await ex.execute(b.plat.core(0), d, out);
    finished = true;
}

/** Drive one op and record the elapsed virtual time. */
inline SimTask
driveTimedOp(Bench &b, dml::Executor &ex, WorkDescriptor d,
             dml::OpResult &out, Tick &elapsed)
{
    Tick t0 = b.sim.now();
    co_await ex.execute(b.plat.core(0), d, out);
    elapsed = b.sim.now() - t0;
}

/**
 * Device @p idx's dsa<N>.eng<E>.<leaf> registry counter summed over
 * its engines (e.g. leaf "bytes_read" is the device's inbound bytes).
 */
inline std::uint64_t
engineCounterSum(Platform &plat, std::size_t idx, const std::string &leaf)
{
    const DsaDevice &dev = plat.dsa(idx);
    const std::string stem =
        "dsa" + std::to_string(dev.deviceId()) + ".eng";
    std::uint64_t sum = 0;
    for (std::size_t e = 0; e < dev.engineCount(); ++e)
        sum += plat.sim().stats().counterValue(
            stem + std::to_string(dev.engine(e).engineId()) + "." +
            leaf);
    return sum;
}

} // namespace dsasim::test

#endif // DSASIM_TESTS_UTIL_HH
