/**
 * @file
 * DsaTopology: a declarative description of a device's group / work
 * queue / engine configuration — the accel-config half of a device's
 * identity, separated from its runtime state.
 *
 * A Platform is fully described by its PlatformConfig once the
 * topology lives here: PlatformConfig::dsaTopology applies one
 * topology to every DSA device at construction.
 *
 * Identifiers are positional: apply() creates all groups, then the
 * work queues in WQ-id order, then the engines in engine-id order,
 * so the ids a device assigns by creation order match the indices
 * recorded here.
 */

#ifndef DSASIM_DSA_TOPOLOGY_HH
#define DSASIM_DSA_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "dsa/wq.hh"

namespace dsasim
{

class DsaDevice;

struct DsaTopology
{
    struct GroupSpec
    {
        /** 0 = share the unclaimed remainder at enable() time. */
        unsigned readBuffers = 0;
    };

    struct WqSpec
    {
        int group = 0; ///< owning group index
        WorkQueue::Mode mode = WorkQueue::Mode::Dedicated;
        unsigned size = 32;
        unsigned priority = 0;
        unsigned threshold = 0; ///< 0 = defaults to size
    };

    std::vector<GroupSpec> groups;
    std::vector<WqSpec> wqs;
    /** One entry per engine: the owning group index, in id order. */
    std::vector<int> engines;

    /** No topology configured (Platform leaves the device bare). */
    bool empty() const { return groups.empty(); }

    /**
     * The default single-group shape most benchmarks use: one group,
     * one WQ of @p wq_size entries in @p mode, @p engine_count
     * engines, enabled.
     */
    static DsaTopology
    basic(unsigned wq_size = 32, unsigned engine_count = 1,
          WorkQueue::Mode mode = WorkQueue::Mode::Dedicated);

    /**
     * The fully-populated shape (the paper's whole-device setups):
     * four groups, each with one dedicated and one shared 16-entry
     * WQ and one engine, enabled.
     */
    static DsaTopology full();

    /** Build this topology onto a freshly constructed device. */
    void apply(DsaDevice &dev) const;
};

} // namespace dsasim

#endif // DSASIM_DSA_TOPOLOGY_HH
