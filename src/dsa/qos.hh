/**
 * @file
 * WQ-level admission control and QoS for shared (ENQCMD) work
 * queues.
 *
 * The paper's SWQ threshold (idxd's `threshold` attribute, Fig. 9)
 * is a single global admission limit: one aggressive tenant can keep
 * the queue at the threshold and starve everyone. A WqAdmission
 * policy sits in front of the portal and decides per PASID:
 *
 *  - a per-tenant token bucket bounds each tenant's sustained
 *    submission rate (Throttle verdict: surfaces as ENQCMD Retry,
 *    exactly like a full queue, so clients need no new protocol);
 *  - QoS classes map to per-class occupancy limits, mirroring how
 *    idxd partitions a SWQ's threshold between kernel users:
 *    Opportunistic tenants stop being admitted at a lower occupancy
 *    than Standard, which stops below Guaranteed (Busy verdict).
 *
 * All accounting is integer tick math — refills carry an exact
 * remainder — so verdicts are a pure function of the (deterministic)
 * query sequence and never of host state. The policy object is
 * installed on a WorkQueue by the serving layer, which owns it; an
 * idle bucket refills from its timestamp on the next query.
 */

#ifndef DSASIM_DSA_QOS_HH
#define DSASIM_DSA_QOS_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/types.hh"
#include "sim/ticks.hh"

namespace dsasim
{

namespace stats { class Registry; }

/** Integer-exact token bucket (tokens = submission credits). */
class TokenBucket
{
  public:
    struct Config
    {
        std::uint64_t ratePerSec = 0; ///< sustained tokens/second
        std::uint64_t burst = 1;      ///< bucket capacity
    };

    TokenBucket() = default;

    explicit TokenBucket(Config c, Tick now = 0)
        : rate(c.ratePerSec), burst(c.burst), tokens(c.burst),
          last(now)
    {}

    /** Take @p n tokens at @p now; false when the bucket is short. */
    bool
    tryTake(Tick now, std::uint64_t n = 1)
    {
        refill(now);
        if (tokens < n)
            return false;
        tokens -= n;
        return true;
    }

    /** Balance after refilling to @p now. */
    std::uint64_t
    available(Tick now)
    {
        refill(now);
        return tokens;
    }

  private:
    void
    refill(Tick now)
    {
        if (now <= last) {
            last = now > last ? now : last;
            return;
        }
        using u128 = unsigned __int128;
        // Exact integer refill: the sub-token remainder carries in
        // numerator units so no fraction is ever lost to rounding.
        u128 num = static_cast<u128>(now - last) * rate + carry;
        std::uint64_t add =
            static_cast<std::uint64_t>(num / ticksPerSec);
        carry = static_cast<std::uint64_t>(num % ticksPerSec);
        tokens = tokens + add > burst ? burst : tokens + add;
        last = now;
    }

    std::uint64_t rate = 0;
    std::uint64_t burst = 1;
    std::uint64_t tokens = 1;
    Tick last = 0;
    std::uint64_t carry = 0; ///< refill remainder, in rate*tick units
};

/** Priority class of a tenant at a shared WQ portal. */
enum class QosClass : std::uint8_t
{
    Guaranteed,    ///< admitted up to the full SWQ threshold
    Standard,      ///< admitted up to standardLimit
    Opportunistic, ///< admitted up to opportunisticLimit
};

const char *qosClassName(QosClass c);

/** Per-tenant admission policy for one shared WQ. */
class WqAdmission
{
  public:
    struct Config
    {
        /** Default per-tenant rate limit (0 rate = no bucket). */
        TokenBucket::Config bucket{};

        /**
         * Class occupancy limits as a fraction of the WQ threshold;
         * Guaranteed always gets the full threshold.
         */
        double standardFraction = 0.875;
        double opportunisticFraction = 0.5;

        /** Class of tenants with no explicit assignment. */
        QosClass defaultClass = QosClass::Standard;
    };

    enum class Verdict : std::uint8_t
    {
        Admit,    ///< pass through to the portal occupancy check
        Throttle, ///< token bucket empty -> ENQCMD Retry
        Busy,     ///< class occupancy limit reached -> ENQCMD Retry
    };

    WqAdmission() = default;
    explicit WqAdmission(Config c) : cfg(c) {}

    void setClass(Pasid tenant, QosClass c);
    void setBucket(Pasid tenant, TokenBucket::Config c);

    /**
     * Decide admission for @p tenant at @p now given the WQ's
     * current @p occupancy and configured @p threshold. Verdicts
     * other than Admit surface to the submitter as ENQCMD Retry.
     */
    Verdict admit(Pasid tenant, Tick now, std::size_t occupancy,
                  std::size_t threshold);

    /// @name Statistics.
    /// @{
    struct TenantStats
    {
        std::uint64_t admitted = 0;
        std::uint64_t throttled = 0;
        std::uint64_t busy = 0;
    };

    const TenantStats &stats(Pasid tenant) const;

    std::uint64_t totalAdmitted = 0;
    std::uint64_t totalThrottled = 0;
    std::uint64_t totalBusy = 0;

    /**
     * Publish this policy's aggregate verdict counters in @p reg
     * under @p prefix (e.g. "socket0.dsa0.wq0.qos."): admitted /
     * throttled / busy as supplier-backed counters (DESIGN.md §15).
     */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix) const;
    /// @}

    const Config &config() const { return cfg; }

  private:
    struct Entry
    {
        TokenBucket bucket;
        bool hasBucket = false;
        QosClass cls;
        TenantStats stats;
    };

    Entry &entryFor(Pasid tenant, Tick now);
    std::size_t classLimit(QosClass c, std::size_t threshold) const;

    Config cfg;
    // Ordered map: tenant lookup only (never iterated on a
    // tick-affecting path), but deterministic by construction.
    std::map<Pasid, Entry> tenants;
};

} // namespace dsasim

#endif // DSASIM_DSA_QOS_HH
