/**
 * @file
 * Calibration regression guards: the paper's headline quantitative
 * anchors, expressed as tests so that future model changes cannot
 * silently break the reproduced shapes.
 *
 *  - sync offload break-even vs one core between 2 KB and 16 KB
 *  - async offload break-even between 128 B and 1 KB
 *  - single-PE streaming saturates at the ~30 GB/s fabric limit
 *  - UMWAIT holds the majority of cycles from 4 KB up (Fig. 11)
 *  - CXL writes are slower than CXL reads (Fig. 6b)
 *  - remote-socket sync latency exceeds local by about one UPI hop
 */

#include <gtest/gtest.h>

#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct CalBench : Bench
{
    CalBench()
    {
        DsaTopology::basic().apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    /** Mean sync latency of one path over a few flushed iters. */
    Tick
    syncLatency(bool hw, const WorkDescriptor &d, int iters = 12)
    {
        Tick total = 0;
        struct Drv
        {
            static SimTask
            go(CalBench &cb, WorkDescriptor wd, bool hw_path,
               int n, Tick &sum)
            {
                for (int i = 0; i < n; ++i) {
                    cb.plat.mem().cache().invalidateAll();
                    dml::OpResult r;
                    if (hw_path)
                        co_await cb.exec->executeHardware(
                            cb.plat.core(0), wd, r);
                    else
                        co_await cb.exec->executeSoftware(
                            cb.plat.core(1), wd, r);
                    sum += r.latency;
                }
            }
        };
        Drv::go(*this, d, hw, iters, total);
        sim.run();
        return total / static_cast<Tick>(iters);
    }

    /** Async streaming throughput at depth 16, ring of 8 buffers. */
    double
    asyncGbps(std::uint64_t ts, int jobs = 96)
    {
        Addr src = as->alloc(ts * 8);
        Addr dst = as->alloc(ts * 8);
        Tick elapsed = 0;
        struct Drv
        {
            static SimTask
            go(CalBench &cb, Addr s, Addr d, std::uint64_t len,
               int count, Tick &el)
            {
                Tick t0 = cb.sim.now();
                Semaphore window(cb.sim, 16);
                Latch all(cb.sim,
                          static_cast<std::uint64_t>(count));
                struct W
                {
                    static SimTask
                    drain(std::unique_ptr<dml::Job> j,
                          Semaphore &win, Latch &a)
                    {
                        if (!j->cr.isDone())
                            co_await j->cr.done.wait();
                        win.release();
                        a.arrive();
                    }
                };
                for (int i = 0; i < count; ++i) {
                    co_await window.acquire();
                    auto job = cb.exec->prepare(
                        dml::Executor::memMove(
                            *cb.as,
                            d + static_cast<Addr>(i % 8) * len,
                            s + static_cast<Addr>(i % 8) * len,
                            len));
                    co_await cb.exec->submit(cb.plat.core(0), *job);
                    W::drain(std::move(job), window, all);
                }
                co_await all.wait();
                el = cb.sim.now() - t0;
            }
        };
        Drv::go(*this, src, dst, ts, jobs, elapsed);
        sim.run();
        return achievedGBps(static_cast<std::uint64_t>(jobs) * ts,
                            elapsed);
    }

    std::unique_ptr<dml::Executor> exec;
};

TEST(Calibration, SyncBreakEvenSitsNearFourKb)
{
    CalBench b;
    Addr src = b.as->alloc(64 << 10);
    Addr dst = b.as->alloc(64 << 10);

    // Below the break-even band the core must win...
    Tick hw1k = b.syncLatency(
        true, dml::Executor::memMove(*b.as, dst, src, 1 << 10));
    Tick sw1k = b.syncLatency(
        false, dml::Executor::memMove(*b.as, dst, src, 1 << 10));
    EXPECT_LT(sw1k, hw1k);

    // ...and above it DSA must win (paper: 4-10 KB band).
    Tick hw16k = b.syncLatency(
        true, dml::Executor::memMove(*b.as, dst, src, 16 << 10));
    Tick sw16k = b.syncLatency(
        false, dml::Executor::memMove(*b.as, dst, src, 16 << 10));
    EXPECT_GT(sw16k, hw16k);
}

TEST(Calibration, AsyncBreakEvenSitsNear256B)
{
    CalBench b;
    // CPU cold-copy throughput for the same sizes.
    Addr src = b.as->alloc(8 << 10);
    Addr dst = b.as->alloc(8 << 10);
    auto cpu_gbps = [&](std::uint64_t ts) {
        Tick lat = b.syncLatency(
            false, dml::Executor::memMove(*b.as, dst, src, ts));
        return static_cast<double>(ts) / toNs(lat);
    };
    // 64 B: the core wins; 1 KB: DSA wins (crossover ~256 B).
    EXPECT_LT(b.asyncGbps(64), cpu_gbps(64));
    EXPECT_GT(b.asyncGbps(1 << 10), cpu_gbps(1 << 10));
}

TEST(Calibration, StreamingSaturatesAtTheFabricLimit)
{
    CalBench b;
    double gbps = b.asyncGbps(256 << 10, 48);
    double fabric = b.plat.dsa(0).params().fabricGBps;
    EXPECT_GT(gbps, 0.95 * fabric);
    EXPECT_LE(gbps, 1.005 * fabric);
}

TEST(Calibration, UmwaitMajorityFromFourKb)
{
    CalBench b;
    Core &core = b.plat.core(0);
    Addr src = b.as->alloc(4 << 10);
    Addr dst = b.as->alloc(4 << 10);
    core.resetAccounting();
    struct Drv
    {
        static SimTask
        go(CalBench &cb, Addr s, Addr d)
        {
            for (int i = 0; i < 20; ++i) {
                dml::OpResult r;
                co_await cb.exec->executeHardware(
                    cb.plat.core(0),
                    dml::Executor::memMove(*cb.as, d, s, 4 << 10),
                    r);
            }
        }
    };
    Tick t0 = b.sim.now();
    Drv::go(b, src, dst);
    b.sim.run();
    double frac = static_cast<double>(core.umwaitTicks()) /
                  static_cast<double>(b.sim.now() - t0);
    EXPECT_GT(frac, 0.5); // "majority of cycles" (Fig. 11)
}

TEST(Calibration, CxlReadsBeatCxlWrites)
{
    // (C src, D dst) must out-run (D src, C dst): CXL write
    // bandwidth/latency is the weaker direction (Fig. 6b).
    double from_cxl = 0, to_cxl = 0;
    {
        CalBench b;
        Addr src = b.as->alloc(8 << 20, MemKind::Cxl);
        Addr dst = b.as->alloc(8 << 20, MemKind::DramLocal);
        Tick lat = b.syncLatency(
            true, dml::Executor::memMove(*b.as, dst, src, 1 << 20),
            6);
        from_cxl = static_cast<double>(1 << 20) / toNs(lat);
    }
    {
        CalBench b;
        Addr src = b.as->alloc(8 << 20, MemKind::DramLocal);
        Addr dst = b.as->alloc(8 << 20, MemKind::Cxl);
        Tick lat = b.syncLatency(
            true, dml::Executor::memMove(*b.as, dst, src, 1 << 20),
            6);
        to_cxl = static_cast<double>(1 << 20) / toNs(lat);
    }
    EXPECT_GT(from_cxl, 1.3 * to_cxl);
}

TEST(Calibration, RemoteSyncLatencyAddsRoughlyOneUpiHop)
{
    CalBench b;
    Addr local = b.as->alloc(64 << 10, MemKind::DramLocal);
    Addr remote = b.as->alloc(64 << 10, MemKind::DramRemote);
    Addr dst = b.as->alloc(64 << 10, MemKind::DramLocal);
    Tick l = b.syncLatency(
        true, dml::Executor::memMove(*b.as, dst, local, 16 << 10));
    Tick r = b.syncLatency(
        true, dml::Executor::memMove(*b.as, dst, remote, 16 << 10));
    Tick upi = b.plat.mem().cfg().upiLatency;
    EXPECT_GT(r, l);
    EXPECT_LT(r, l + 3 * upi);
}

} // namespace
} // namespace dsasim
