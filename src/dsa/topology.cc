#include "dsa/topology.hh"

#include "dsa/device.hh"
#include "dsa/engine.hh"
#include "dsa/group.hh"
#include "sim/logging.hh"

namespace dsasim
{

DsaTopology
DsaTopology::basic(unsigned wq_size, unsigned engine_count,
                   WorkQueue::Mode mode)
{
    DsaTopology t;
    t.groups.push_back(GroupSpec{});
    t.wqs.push_back(WqSpec{0, mode, wq_size, 0, 0});
    t.engines.assign(engine_count, 0);
    return t;
}

DsaTopology
DsaTopology::full()
{
    DsaTopology t;
    for (int g = 0; g < 4; ++g) {
        t.groups.push_back(GroupSpec{});
        t.wqs.push_back(
            WqSpec{g, WorkQueue::Mode::Dedicated, 16, 0, 0});
        t.wqs.push_back(WqSpec{g, WorkQueue::Mode::Shared, 16, 0, 0});
        t.engines.push_back(g);
    }
    return t;
}

void
DsaTopology::apply(DsaDevice &dev) const
{
    fatal_if(dev.groupCount() != 0 || dev.wqCount() != 0 ||
                 dev.engineCount() != 0,
             "DsaTopology::apply: device %d is already configured",
             dev.deviceId());
    for (const GroupSpec &gs : groups) {
        Group &g = dev.addGroup();
        if (gs.readBuffers != 0)
            dev.setGroupReadBuffers(g, gs.readBuffers);
    }
    for (const WqSpec &ws : wqs) {
        fatal_if(ws.group < 0 ||
                     static_cast<std::size_t>(ws.group) >=
                         dev.groupCount(),
                 "DsaTopology::apply: WQ names group %d of %zu",
                 ws.group, dev.groupCount());
        dev.addWorkQueue(dev.group(static_cast<std::size_t>(ws.group)),
                         ws.mode, ws.size, ws.priority, ws.threshold);
    }
    for (int eg : engines) {
        fatal_if(eg < 0 ||
                     static_cast<std::size_t>(eg) >= dev.groupCount(),
                 "DsaTopology::apply: engine names group %d of %zu",
                 eg, dev.groupCount());
        dev.addEngine(dev.group(static_cast<std::size_t>(eg)));
    }
    dev.enable();
}

} // namespace dsasim
