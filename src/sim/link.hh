/**
 * @file
 * LinkResource: a serializing bandwidth resource.
 *
 * Models a pipe with a fixed byte rate (I/O fabric port, a memory
 * channel group's read or write bandwidth, a UPI link, the CXL link).
 * Requests are served in arrival order; a request of B bytes occupies
 * the link for B/rate. Contention between concurrent agents emerges
 * naturally as queueing delay; because agents issue work in small
 * chunks (cache lines up to a few KB), interleaving approximates fair
 * sharing closely enough for the figure-level results reproduced
 * here.
 */

#ifndef DSASIM_SIM_LINK_HH
#define DSASIM_SIM_LINK_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/ticks.hh"

namespace dsasim
{

class LinkResource
{
  public:
    /**
     * @param s        owning simulation
     * @param gbps     capacity in decimal GB/s (1e9 bytes/sec)
     * @param link_name for diagnostics
     */
    LinkResource(Simulation &s, double gbps, std::string link_name)
        : sim(s), name(std::move(link_name))
    {
        setRate(gbps);
    }

    /** Reconfigure the capacity (takes effect for future requests). */
    void
    setRate(double gbps)
    {
        fatal_if(gbps <= 0.0, "link '%s': non-positive rate %f GB/s",
                 name.c_str(), gbps);
        rateGBps = gbps;
        psPerByte = 1000.0 / gbps; // 1 GB/s == 1 byte/ns == 1000 ps/byte
    }

    double rate() const { return rateGBps; }
    const std::string &linkName() const { return name; }

    /**
     * Reserve the link for @p bytes starting no earlier than now.
     * Returns the absolute completion tick. Does not suspend; pair
     * with Simulation::delayUntil() to model blocking.
     */
    Tick occupy(std::uint64_t bytes) { return occupyAt(0, bytes); }

    /**
     * Like occupy(), but the transfer also cannot start before
     * @p earliest — the cross-socket pull path uses this to start a
     * return transfer only once the remote DRAM read has finished.
     */
    Tick
    occupyAt(Tick earliest, std::uint64_t bytes)
    {
        Tick start = std::max({sim.now(), readyAt, earliest});
        Tick duration = static_cast<Tick>(
            static_cast<double>(bytes) * psPerByte + 0.5);
        readyAt = start + duration;
        totalBytes += bytes;
        totalBusy += duration;
        return readyAt;
    }

    /**
     * Awaitable convenience: occupy the link and suspend until the
     * transfer completes. `co_await link.transfer(n);`
     */
    auto
    transfer(std::uint64_t bytes)
    {
        return sim.delayUntil(occupy(bytes));
    }

    /** Earliest tick at which a new request could start. */
    Tick nextFree() const { return std::max(readyAt, sim.now()); }

    /** Queueing backlog, in ticks, seen by a request issued now. */
    Tick
    backlog() const
    {
        return readyAt > sim.now() ? readyAt - sim.now() : 0;
    }

    std::uint64_t bytesServed() const { return totalBytes; }
    Tick busyTicks() const { return totalBusy; }

    /** Fraction of [0, now] the link spent busy. */
    double
    utilization() const
    {
        if (sim.now() == 0)
            return 0.0;
        return static_cast<double>(std::min(totalBusy, sim.now())) /
               static_cast<double>(sim.now());
    }

    /** Clear accounting (not the ready time). */
    void
    resetStats()
    {
        totalBytes = 0;
        totalBusy = 0;
    }

  private:
    Simulation &sim;
    std::string name;
    double rateGBps = 0.0;
    double psPerByte = 0.0;
    Tick readyAt = 0;
    std::uint64_t totalBytes = 0;
    Tick totalBusy = 0;
};

} // namespace dsasim

#endif // DSASIM_SIM_LINK_HH
