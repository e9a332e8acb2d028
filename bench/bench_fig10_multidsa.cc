/**
 * @file
 * Figure 10: throughput using multiple DSA instances.
 *
 * Paper shape: throughput scales linearly with the number of
 * devices, but beyond 64 KB transfers the aggregate write footprint
 * overflows the DDIO partition of the LLC ("leaky DMA"): dirty DDIO
 * lines are evicted to DRAM, the extra writeback traffic saturates
 * memory write bandwidth, and 3-4 instances land around 70-90 GB/s
 * instead of 90-120.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

SimTask
devicePump(Rig &rig, int dev_idx, std::uint64_t ts, int jobs,
           Latch &done, std::uint64_t &bytes)
{
    // One submitting core per device, each with a private executor
    // ring through its own buffers; destination footprint per device
    // is sized to overflow the DDIO partition when aggregated.
    Core &core = rig.plat.core(static_cast<std::size_t>(dev_idx));
    DsaDevice &dev = rig.plat.dsa(static_cast<std::size_t>(dev_idx));
    Submitter sub(core, dev.params());
    WorkQueue &wq = dev.wq(0);
    Semaphore window(rig.sim, 32);
    Latch all(rig.sim, static_cast<std::uint64_t>(jobs));

    // 128 in-flight buffers per device, as dsa-perf-micros uses:
    // the write footprint is 128 * TS per device, so the aggregate
    // overflows the 14 MB DDIO partition only for TS >= ~32-64 KB.
    const int slots = 128;
    Addr src = rig.as->alloc(ts * static_cast<std::uint64_t>(slots));
    Addr dst = rig.as->alloc(ts * static_cast<std::uint64_t>(slots));

    std::vector<std::unique_ptr<CompletionRecord>> crs;
    struct W
    {
        static SimTask
        drain(CompletionRecord &cr, Semaphore &win, Latch &a)
        {
            if (!cr.isDone())
                co_await cr.done.wait();
            win.release();
            a.arrive();
        }
    };

    for (int i = 0; i < jobs; ++i) {
        co_await window.acquire();
        crs.push_back(std::make_unique<CompletionRecord>(rig.sim));
        WorkDescriptor d = dml::Executor::memMove(
            *rig.as, dst + static_cast<Addr>(i % slots) * ts,
            src + static_cast<Addr>(i % slots) * ts, ts);
        // Fig. 10 runs with DDIO-style allocating writes — that is
        // what makes the write footprint overflow the LLC's DDIO
        // ways and leak to DRAM.
        d.flags |= descflags::cacheControl;
        d.completion = crs.back().get();
        co_await sub.movdir64b(dev, wq, d);
        W::drain(*crs.back(), window, all);
        bytes += ts;
    }
    co_await all.wait();
    done.arrive();
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20};
    const std::vector<unsigned> device_counts = {1, 2, 3, 4};

    std::vector<std::string> cols = {"devices"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 10: aggregate memcpy GB/s vs DSA instances", cols);

    // One rig per (devices, TS) cell, each built on the
    // SweepRunner; cells sweep concurrently.
    SweepRunner sweep;
    auto cells = sweep.run(
        device_counts.size() * sizes.size(), [&](std::size_t i) {
            const unsigned n = device_counts[i / sizes.size()];
            const std::uint64_t ts = sizes[i % sizes.size()];
            Rig::Options o;
            o.devices = n;
            Rig rig(o);
            const int jobs = static_cast<int>(
                std::max<std::uint64_t>(64, (48ull << 20) / ts));
            Latch done(rig.sim, n);
            std::vector<std::uint64_t> bytes(n, 0);
            Tick t0 = rig.sim.now();
            for (unsigned d = 0; d < n; ++d) {
                devicePump(rig, static_cast<int>(d), ts, jobs, done,
                           bytes[d]);
            }
            rig.sim.run();
            Tick elapsed = rig.sim.now() - t0;
            std::uint64_t total = 0;
            for (auto b : bytes)
                total += b;
            return fmt(achievedGBps(total, elapsed), 1);
        });
    for (std::size_t d = 0; d < device_counts.size(); ++d) {
        std::vector<std::string> row = {
            std::to_string(device_counts[d]) + " DSA"};
        for (std::size_t s = 0; s < sizes.size(); ++s)
            row.push_back(std::move(cells[d * sizes.size() + s]));
        tbl.addRow(std::move(row));
    }
    tbl.print();

    std::printf("\nDDIO partition: %.1f MB; destination footprint "
                "128 x TS per device.\n",
                static_cast<double>(
                    CacheModel(PlatformConfig::spr().mem.llc)
                        .ddioCapacityBytes()) /
                    (1 << 20));
    return 0;
}
