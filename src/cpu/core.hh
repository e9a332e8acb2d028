/**
 * @file
 * A CPU core: identity (for cache-occupancy accounting), a private
 * data TLB, and cycle bookkeeping split across activity classes so
 * the UMWAIT analysis (Fig. 11) and datacenter-tax style breakdowns
 * fall straight out of the accounting.
 */

#ifndef DSASIM_CPU_CORE_HH
#define DSASIM_CPU_CORE_HH

#include <string>

#include "cpu/params.hh"
#include "mem/tlb.hh"
#include "mem/types.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace dsasim
{

class Core
{
  public:
    Core(Simulation &s, const CpuParams &p, int core_id, int socket = 0)
        : sim(s), params(p), agent_(Agent::core(core_id, socket)),
          dtlb(p.tlbEntries)
    {}

    Simulation &simulation() { return sim; }
    const CpuParams &cpuParams() const { return params; }
    Agent agent() const { return agent_; }
    int id() const { return agent_.ownerId; }
    TranslationCache &tlb() { return dtlb; }

    /// @name Cycle accounting.
    /// @{
    void
    chargeBusy(Tick t, const std::string &bucket = "busy")
    {
        busy += t;
        account.charge(bucket, t);
    }

    void
    chargeUmwait(Tick t)
    {
        umwait += t;
        account.charge("umwait", t);
    }

    Tick busyTicks() const { return busy; }
    Tick umwaitTicks() const { return umwait; }
    CycleAccount &cycleAccount() { return account; }

    void
    resetAccounting()
    {
        busy = 0;
        umwait = 0;
        account.clear();
    }
    /// @}

    /** Awaitable: occupy the core for @p t ticks of real work. */
    auto
    busyFor(Tick t, const std::string &bucket = "busy")
    {
        chargeBusy(t, bucket);
        return sim.delay(t);
    }

  private:
    Simulation &sim;
    CpuParams params;
    Agent agent_;
    TranslationCache dtlb;
    Tick busy = 0;
    Tick umwait = 0;
    CycleAccount account;
};

} // namespace dsasim

#endif // DSASIM_CPU_CORE_HH
