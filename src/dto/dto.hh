/**
 * @file
 * DTO — the DSA Transparent Offload library (paper §5 and the
 * CacheLib case study, Fig. 19).
 *
 * Stands in for the LD_PRELOAD interposer: an application keeps
 * calling memcpy()/memmove()/memset()/memcmp() and DTO redirects
 * calls at or above a size threshold to a *synchronous* DSA job,
 * leaving the rest on the core. Faulting offloads (block-on-fault
 * disabled, as the paper's CacheBench deployment ran) are redone on
 * the CPU, touching the pages in the process.
 */

#ifndef DSASIM_DTO_DTO_HH
#define DSASIM_DTO_DTO_HH

#include <cstdint>
#include <string>

#include "dml/dml.hh"
#include "sim/stats.hh"

namespace dsasim
{

class Dto
{
  public:
    struct Config
    {
        /** Offload at or above this size (paper: 8 KB for Fig. 19). */
        std::uint64_t threshold = 8192;
        /** Keep destination writes in LLC (cache-control hint). */
        bool cacheControl = true;
    };

    Dto(dml::Executor &exec, Config cfg);

    explicit Dto(dml::Executor &exec)
        : Dto(exec, Config{})
    {}

    /// @name Intercepted libc entry points.
    /// @{
    CoTask memcpyCall(Core &core, AddressSpace &as, Addr dst, Addr src,
                      std::uint64_t n);
    CoTask memmoveCall(Core &core, AddressSpace &as, Addr dst,
                       Addr src, std::uint64_t n);
    CoTask memsetCall(Core &core, AddressSpace &as, Addr dst,
                      std::uint8_t value, std::uint64_t n);
    /** @p result receives memcmp-style 0 / non-zero. */
    CoTask memcmpCall(Core &core, AddressSpace &as, Addr a, Addr b,
                      std::uint64_t n, int &result);
    /// @}

    /// @name Interposition statistics.
    /// @{
    std::uint64_t calls = 0;
    std::uint64_t offloaded = 0;
    std::uint64_t cpuFallbacks = 0; ///< failed offloads redone on CPU
    std::uint64_t bytesOffloaded = 0;
    std::uint64_t bytesOnCpu = 0;

    /// @name Fallback causes (each fallback counts exactly once).
    /// Registry counters under this instance's dto<N>. scope
    /// (DESIGN.md §15), read through the const accessors.
    /// @{
    std::uint64_t
    fallbackPageFault() const ///< partial completion
    {
        return fallbackPageFaultCtr.value();
    }
    std::uint64_t
    fallbackHwError() const ///< read/write/decode error
    {
        return fallbackHwErrorCtr.value();
    }
    std::uint64_t
    fallbackAborted() const ///< reset/watchdog abort
    {
        return fallbackAbortedCtr.value();
    }
    std::uint64_t
    fallbackQueue() const ///< overflow / queue-full
    {
        return fallbackQueueCtr.value();
    }
    std::uint64_t
    fallbackOther() const ///< unsupported, batch error
    {
        return fallbackOtherCtr.value();
    }
    /// @}
    /// @}

  private:
    /** Delegate binding the cause counters under one dto<N>. scope. */
    Dto(dml::Executor &exec, Config cfg, const std::string &scope);

    CoTask dispatch(Core &core, WorkDescriptor d, std::uint64_t n,
                    int *cmp_result);

    dml::Executor &executor;
    Config config;

    // Registry-backed fallback-cause counters (bound in the
    // constructor under a fresh dto<N>. scope).
    stats::Counter &fallbackPageFaultCtr;
    stats::Counter &fallbackHwErrorCtr;
    stats::Counter &fallbackAbortedCtr;
    stats::Counter &fallbackQueueCtr;
    stats::Counter &fallbackOtherCtr;
};

} // namespace dsasim

#endif // DSASIM_DTO_DTO_HH
