#include "driver/platform.hh"

#include <atomic>

#include "sim/logging.hh"

namespace dsasim
{

namespace
{

MemSystemConfig
sprMemory()
{
    MemSystemConfig mem;

    MemNodeConfig local;
    local.kind = MemKind::DramLocal;
    local.socket = 0;
    local.capacityBytes = 64ull << 30;
    local.readGBps = 220.0;  // 8x DDR5-4800, sustained read
    local.writeGBps = 95.0;
    local.readLatency = fromNs(95);
    local.writeLatency = fromNs(95);

    MemNodeConfig remote = local;
    remote.socket = 1;

    MemNodeConfig cxl;
    cxl.kind = MemKind::Cxl;
    cxl.socket = 0;
    cxl.capacityBytes = 16ull << 30; // Agilex-I dev kit, 16 GB DDR4
    cxl.readGBps = 22.0;
    cxl.writeGBps = 13.0; // writes notably slower than reads (§4.2)
    cxl.readLatency = fromNs(210);
    cxl.writeLatency = fromNs(330);

    mem.nodes = {local, remote, cxl};
    mem.llc.sizeBytes = 105ull << 20;
    mem.llc.ways = 15;
    mem.llc.ddioWays = 2;
    mem.upiGBps = 60.0;
    mem.upiLatency = fromNs(60);
    mem.llcGBps = 400.0;
    mem.llcLatency = fromNs(33);
    return mem;
}

MemSystemConfig
icxMemory()
{
    MemSystemConfig mem = sprMemory();
    // 6x DDR4-3200 and the smaller Ice Lake LLC.
    mem.nodes[0].readGBps = 140.0;
    mem.nodes[0].writeGBps = 110.0;
    mem.nodes[1] = mem.nodes[0];
    mem.nodes[1].socket = 1;
    // No CXL support before SPR; keep the node out of the platform.
    mem.nodes.pop_back();
    mem.llc.sizeBytes = 57ull << 20;
    mem.llc.ways = 12;
    mem.llc.ddioWays = 2;
    return mem;
}

} // namespace

PlatformConfig
PlatformConfig::spr()
{
    PlatformConfig cfg;
    cfg.name = "SPR";
    cfg.numCores = 56;
    cfg.numDsaDevices = 4;
    cfg.numCbdmaDevices = 0;
    cfg.mem = sprMemory();
    return cfg;
}

PlatformConfig
PlatformConfig::icx()
{
    PlatformConfig cfg;
    cfg.name = "ICX";
    cfg.numCores = 40;
    cfg.numDsaDevices = 0;
    cfg.numCbdmaDevices = 1;
    cfg.mem = icxMemory();
    // Ice Lake cores stream DDR4 a bit slower than SPR streams DDR5.
    cfg.cpu.readDramLocal = fromNs(4.1);
    cfg.cpu.writeDramLocal = fromNs(3.6);
    cfg.cpu.readDramRemote = fromNs(5.8);
    cfg.cpu.writeDramRemote = fromNs(5.0);
    return cfg;
}

Platform::Platform(Simulation &s, const PlatformConfig &cfg)
    : simulation(s), config(cfg)
{
    memSys = std::make_unique<MemSystem>(s, cfg.mem);
    swKernels = std::make_unique<SwKernels>(*memSys);
    for (int c = 0; c < cfg.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(s, cfg.cpu, c, 0));
    for (unsigned d = 0; d < cfg.numDsaDevices; ++d) {
        dsas_.push_back(std::make_unique<DsaDevice>(
            s, *memSys, cfg.dsa, static_cast<int>(d), 0));
    }
    for (unsigned d = 0; d < cfg.numCbdmaDevices; ++d) {
        cbdmas_.push_back(std::make_unique<CbdmaDevice>(
            s, *memSys, cfg.cbdma, static_cast<int>(d), 0));
    }
    if (!cfg.dsaTopology.empty()) {
        for (auto &d : dsas_)
            cfg.dsaTopology.apply(*d);
    }
    // Opt-in chaos: DSASIM_FAULTS seeds a platform-wide injector.
    setFaultInjector(FaultInjector::fromEnv());

    // Opt-in telemetry: DSASIM_STATS installs the deterministic
    // registry poller. One hook per calendar — in multi-platform
    // setups (rare outside tests) the first platform samples.
    if (stats::samplingEnabled() && !s.hasSampleHook()) {
        static std::atomic<unsigned> instance{0};
        const unsigned n = instance.fetch_add(1);
        statsExportStem = stats::exportPrefix() + cfg.name;
        if (n != 0)
            statsExportStem += strfmt("-%u", n);
        statsSampler = std::make_unique<stats::Sampler>(
            s, stats::samplePeriodTicks());
    }
}

Platform::~Platform()
{
    if (statsSampler && statsSampler->sampleCount() > 0) {
        const std::string csv = statsExportStem + ".csv";
        const std::string prom = statsExportStem + ".prom";
        if (!statsSampler->writeCsv(csv))
            warn("stats: failed to write %s", csv.c_str());
        if (!statsSampler->writePrometheusFile(prom))
            warn("stats: failed to write %s", prom.c_str());
    }
}

void
Platform::setFaultInjector(std::unique_ptr<FaultInjector> fi)
{
    faultInjector = std::move(fi);
    FaultInjector *p = faultInjector.get();
    if (p)
        p->attachClock(simulation);
    for (auto &d : dsas_)
        d->setFaultInjector(p);
    memSys->iommu().setFaultInjector(p);
}

} // namespace dsasim
