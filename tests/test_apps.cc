/**
 * @file
 * Integration tests for the case-study applications: data integrity
 * and ordering in the vhost path, cache-service correctness through
 * DTO, NVMe/TCP digest correctness, fabric message fidelity, and
 * X-Mem latency behavior.
 */

#include <gtest/gtest.h>

#include "apps/fabric.hh"
#include "ops/dif.hh"
#include "apps/minicache.hh"
#include "apps/nvmetcp.hh"
#include "apps/vhost.hh"
#include "apps/xmem.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct AppBench : Bench
{
    explicit AppBench(unsigned engines = 2)
    {
        DsaTopology::basic(32, engines).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }
    std::unique_ptr<dml::Executor> exec;
};

TEST(Vhost, CpuPathDeliversInOrder)
{
    AppBench b;
    apps::Virtqueue vq(256);
    apps::VhostSwitch::Config cfg;
    cfg.useDsa = false;
    cfg.packetBytes = 512;
    apps::VhostSwitch host(b.plat, *b.as, b.plat.core(0), nullptr,
                           vq, cfg);
    apps::GuestDriver guest(b.plat, *b.as, b.plat.core(1), vq, 2048,
                            128);
    host.run(fromUs(200));
    guest.run(fromUs(200));
    b.sim.runUntil(fromUs(200));
    EXPECT_GT(guest.received(), 500u);
    EXPECT_EQ(guest.orderViolations(), 0u);
    EXPECT_EQ(guest.payloadErrors(), 0u);
}

TEST(Vhost, DsaPipelineKeepsOrderAndData)
{
    AppBench b;
    apps::Virtqueue vq(256);
    apps::VhostSwitch::Config cfg;
    cfg.useDsa = true;
    cfg.packetBytes = 1024;
    apps::VhostSwitch host(b.plat, *b.as, b.plat.core(0),
                           b.exec.get(), vq, cfg);
    apps::GuestDriver guest(b.plat, *b.as, b.plat.core(1), vq, 2048,
                            128);
    host.run(fromUs(300));
    guest.run(fromUs(300));
    b.sim.runUntil(fromUs(300));
    EXPECT_GT(guest.received(), 1000u);
    EXPECT_EQ(guest.orderViolations(), 0u);
    EXPECT_EQ(guest.payloadErrors(), 0u);
    // The copies really went through the device.
    EXPECT_GT(b.plat.dsa(0).descriptorsProcessed(), 30u);
}

TEST(Vhost, DsaFasterForLargePackets)
{
    double mpps[2] = {0, 0};
    for (int dsa = 0; dsa < 2; ++dsa) {
        AppBench b;
        apps::Virtqueue vq(512);
        apps::VhostSwitch::Config cfg;
        cfg.useDsa = dsa == 1;
        cfg.packetBytes = 1518;
        apps::VhostSwitch host(b.plat, *b.as, b.plat.core(0),
                               b.exec.get(), vq, cfg);
        apps::GuestDriver guest(b.plat, *b.as, b.plat.core(1), vq,
                                2048, 256);
        host.run(fromUs(400));
        guest.run(fromUs(400));
        b.sim.runUntil(fromUs(400));
        mpps[dsa] = static_cast<double>(host.packetsForwarded()) /
                    toUs(b.sim.now());
    }
    EXPECT_GT(mpps[1], mpps[0] * 1.3);
}


TEST(Vhost, DequeueDirectionVerifiesAtHost)
{
    for (bool dsa : {false, true}) {
        AppBench b;
        apps::Virtqueue vq(256);
        apps::VhostSwitch::Config cfg;
        cfg.direction = apps::VhostSwitch::Direction::Dequeue;
        cfg.useDsa = dsa;
        cfg.packetBytes = 512;
        apps::VhostSwitch host(b.plat, *b.as, b.plat.core(0),
                               b.exec.get(), vq, cfg);
        apps::GuestTxDriver guest(b.plat, *b.as, b.plat.core(1), vq,
                                  2048, 128);
        host.run(fromUs(250));
        guest.run(fromUs(250));
        b.sim.runUntil(fromUs(250));
        EXPECT_GT(host.packetsForwarded(), 500u) << "dsa=" << dsa;
        EXPECT_EQ(host.hostOrderViolations(), 0u) << "dsa=" << dsa;
        EXPECT_EQ(host.hostPayloadErrors(), 0u) << "dsa=" << dsa;
    }
}


TEST(Vhost, BidirectionalSwitchesShareOneDevice)
{
    // Enqueue and dequeue switches on separate cores, both
    // offloading to the same DSA instance — the paper's real
    // deployment shape (multiple virtqueues per device, G6).
    AppBench b;
    apps::Virtqueue rx(256), tx(256);

    apps::VhostSwitch::Config rx_cfg;
    rx_cfg.useDsa = true;
    rx_cfg.packetBytes = 1024;
    apps::VhostSwitch rx_switch(b.plat, *b.as, b.plat.core(0),
                                b.exec.get(), rx, rx_cfg);
    apps::GuestDriver rx_guest(b.plat, *b.as, b.plat.core(1), rx,
                               2048, 128);

    apps::VhostSwitch::Config tx_cfg;
    tx_cfg.direction = apps::VhostSwitch::Direction::Dequeue;
    tx_cfg.useDsa = true;
    tx_cfg.packetBytes = 1024;
    apps::VhostSwitch tx_switch(b.plat, *b.as, b.plat.core(2),
                                b.exec.get(), tx, tx_cfg);
    apps::GuestTxDriver tx_guest(b.plat, *b.as, b.plat.core(3), tx,
                                 2048, 128);

    const Tick horizon = fromUs(300);
    rx_switch.run(horizon);
    rx_guest.run(horizon);
    tx_switch.run(horizon);
    tx_guest.run(horizon);
    b.sim.runUntil(horizon);

    EXPECT_GT(rx_switch.packetsForwarded(), 800u);
    EXPECT_GT(tx_switch.packetsForwarded(), 800u);
    EXPECT_EQ(rx_guest.orderViolations(), 0u);
    EXPECT_EQ(rx_guest.payloadErrors(), 0u);
    EXPECT_EQ(tx_switch.hostOrderViolations(), 0u);
    EXPECT_EQ(tx_switch.hostPayloadErrors(), 0u);
}


TEST(Vhost, DsaLowersTailLatencyNearTheKnee)
{
    // Offered load near the CPU path's capacity for 1518B packets:
    // queueing inflates the CPU tail while DSA absorbs it (§6.4).
    double p99[2] = {0, 0};
    for (int dsa = 0; dsa < 2; ++dsa) {
        AppBench b;
        apps::Virtqueue vq(1024);
        apps::VhostSwitch::Config cfg;
        cfg.useDsa = dsa == 1;
        cfg.packetBytes = 1518;
        cfg.offeredMpps = 4.5;
        apps::VhostSwitch host(b.plat, *b.as, b.plat.core(0),
                               b.exec.get(), vq, cfg);
        apps::GuestDriver guest(b.plat, *b.as, b.plat.core(1), vq,
                                2048, 512);
        const Tick horizon = fromUs(1500);
        host.run(horizon);
        guest.run(horizon);
        b.sim.runUntil(fromUs(400)); // warm up
        host.latencyHistogram().reset();
        b.sim.runUntil(horizon);
        p99[dsa] = host.latencyHistogram().percentile(99);
        EXPECT_EQ(host.drops(), 0u);
    }
    EXPECT_LT(p99[1], p99[0] / 3);
}

TEST(MiniCache, GetReturnsWhatSetStored)
{
    AppBench b;
    Dto dto(*b.exec);
    apps::MiniCache cache(b.plat, *b.as, dto, {});
    Addr in = b.as->alloc(64 << 10);
    Addr out = b.as->alloc(64 << 10);
    b.randomize(in, 64 << 10, 5);

    struct Drv
    {
        static SimTask
        go(AppBench &ab, apps::MiniCache &c, Addr src, Addr dst,
           bool &fin, bool &hit, std::uint64_t &len)
        {
            co_await c.set(ab.plat.core(0), 42, src, 40000);
            co_await c.get(ab.plat.core(0), 42, dst, len, hit);
            fin = true;
        }
    };
    bool fin = false, hit = false;
    std::uint64_t len = 0;
    Drv::go(b, cache, in, out, fin, hit, len);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_TRUE(hit);
    EXPECT_EQ(len, 40000u);
    EXPECT_TRUE(b.as->equal(in, out, 40000));
    EXPECT_EQ(cache.itemCount(), 1u);
}

TEST(MiniCache, MissThenEvictions)
{
    AppBench b;
    Dto dto(*b.exec);
    apps::MiniCache::Config cc;
    cc.capacityBytes = 1 << 20; // tiny: force evictions
    apps::MiniCache cache(b.plat, *b.as, dto, cc);
    Addr buf = b.as->alloc(256 << 10);

    struct Drv
    {
        static SimTask
        go(AppBench &ab, apps::MiniCache &c, Addr scratch, bool &fin)
        {
            bool hit = true;
            std::uint64_t len = 0;
            co_await c.get(ab.plat.core(0), 999, scratch, len, hit);
            EXPECT_FALSE(hit);
            for (std::uint64_t k = 0; k < 40; ++k)
                co_await c.set(ab.plat.core(0), k, scratch,
                               64 << 10);
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(b, cache, buf, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.bytesCached(), 1u << 20);
}

TEST(NvmeTcp, DigestsVerifyEndToEnd)
{
    for (auto mode : {apps::NvmeTcpTarget::Digest::IsaL,
                      apps::NvmeTcpTarget::Digest::Dsa}) {
        AppBench b;
        apps::NvmeTcpTarget::Config cfg;
        cfg.digest = mode;
        cfg.targetCores = 2;
        cfg.queueDepth = 32;
        cfg.ioBytes = 16 << 10;
        apps::NvmeTcpTarget target(b.plat, *b.as, b.exec.get(), cfg);
        target.run(fromUs(800));
        b.sim.run();
        EXPECT_GT(target.completedIos(), 100u);
        EXPECT_EQ(target.crcMismatches(), 0u);
    }
}

TEST(NvmeTcp, DsaDigestBeatsIsal)
{
    double iops[2] = {0, 0};
    int i = 0;
    for (auto mode : {apps::NvmeTcpTarget::Digest::IsaL,
                      apps::NvmeTcpTarget::Digest::Dsa}) {
        AppBench b;
        apps::NvmeTcpTarget::Config cfg;
        cfg.digest = mode;
        cfg.targetCores = 2;
        cfg.ioBytes = 16 << 10;
        apps::NvmeTcpTarget target(b.plat, *b.as, b.exec.get(), cfg);
        target.run(fromMs(2));
        b.sim.run();
        iops[i++] = target.iops();
    }
    EXPECT_GT(iops[1], iops[0] * 1.05);
}


TEST(NvmeTcp, WritePathProtectsWithDif)
{
    for (auto mode : {apps::NvmeTcpTarget::Digest::IsaL,
                      apps::NvmeTcpTarget::Digest::Dsa}) {
        AppBench b;
        apps::NvmeTcpTarget::Config cfg;
        cfg.kind = apps::NvmeTcpTarget::Kind::Write;
        cfg.digest = mode;
        cfg.targetCores = 2;
        cfg.queueDepth = 16;
        cfg.ioBytes = 8 << 10;
        apps::NvmeTcpTarget target(b.plat, *b.as, b.exec.get(), cfg);
        target.run(fromUs(600));
        b.sim.run();
        EXPECT_GT(target.completedIos(), 50u);

        // Every staged slot holds valid T10-DIF protected blocks.
        const std::uint64_t nblocks = cfg.ioBytes / cfg.difBlock;
        for (std::uint64_t slot = 0; slot < cfg.queueDepth; ++slot) {
            Addr prot = target.protectedPool() +
                        slot * target.protectedStride();
            std::vector<std::uint8_t> data(
                target.protectedStride());
            b.as->read(prot, data.data(), data.size());
            auto chk = difCheck(
                data.data(), cfg.difBlock, nblocks, 0,
                static_cast<std::uint32_t>(slot * nblocks));
            EXPECT_TRUE(chk.ok) << "slot " << slot;
        }
    }
}

TEST(NvmeTcp, DsaDifInsertBeatsIsalOnWrites)
{
    double iops[2] = {0, 0};
    int i = 0;
    for (auto mode : {apps::NvmeTcpTarget::Digest::IsaL,
                      apps::NvmeTcpTarget::Digest::Dsa}) {
        AppBench b;
        apps::NvmeTcpTarget::Config cfg;
        cfg.kind = apps::NvmeTcpTarget::Kind::Write;
        cfg.digest = mode;
        cfg.targetCores = 2;
        cfg.ioBytes = 16 << 10;
        apps::NvmeTcpTarget target(b.plat, *b.as, b.exec.get(), cfg);
        target.run(fromMs(2));
        b.sim.run();
        iops[i++] = target.iops();
    }
    EXPECT_GT(iops[1], iops[0] * 1.05);
}

TEST(Fabric, TransferMovesBytesBothModes)
{
    for (bool dsa : {false, true}) {
        AppBench b;
        apps::FabricChannel::Config cfg;
        cfg.useDsa = dsa;
        apps::FabricChannel ch(b.plat, *b.as, b.exec.get(),
                               b.plat.core(0), b.plat.core(1), cfg);
        const std::uint64_t n = 300 << 10; // not segment-aligned
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        b.randomize(src, n, 6);
        struct Drv
        {
            static SimTask
            go(apps::FabricChannel &c, Addr s, Addr d,
               std::uint64_t len, bool &fin)
            {
                co_await c.transfer(s, d, len);
                fin = true;
            }
        };
        bool fin = false;
        Drv::go(ch, src, dst, n, fin);
        b.sim.run();
        ASSERT_TRUE(fin);
        EXPECT_TRUE(b.as->equal(src, dst, n));
        EXPECT_EQ(ch.messagesSent(), 1u);
        EXPECT_EQ(ch.bytesSent(), n);
    }
}

TEST(Fabric, DsaFasterForLargeMessages)
{
    Tick elapsed[2] = {0, 0};
    for (int dsa = 0; dsa < 2; ++dsa) {
        AppBench b;
        apps::FabricChannel::Config cfg;
        cfg.useDsa = dsa == 1;
        apps::FabricChannel ch(b.plat, *b.as, b.exec.get(),
                               b.plat.core(0), b.plat.core(1), cfg);
        const std::uint64_t n = 4 << 20;
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        struct Drv
        {
            static SimTask
            go(Bench &bb, apps::FabricChannel &c, Addr s, Addr d,
               std::uint64_t len, Tick &el)
            {
                Tick t0 = bb.sim.now();
                co_await c.transfer(s, d, len);
                el = bb.sim.now() - t0;
            }
        };
        Drv::go(b, ch, src, dst, n, elapsed[dsa]);
        b.sim.run();
    }
    EXPECT_LT(elapsed[1], elapsed[0] / 2);
}

TEST(Fabric, AllReduceConverges)
{
    AppBench b;
    apps::RingAllReduce::Config cfg;
    cfg.channel.useDsa = true;
    apps::RingAllReduce ar(b.plat, *b.as, b.exec.get(), 4, cfg);
    struct Drv
    {
        static SimTask
        go(apps::RingAllReduce &a, bool &fin)
        {
            co_await a.run(1 << 20);
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(ar, fin);
    b.sim.run();
    EXPECT_TRUE(fin);
}

TEST(XMem, LatencyTracksWorkingSet)
{
    Bench b; // 8MB LLC in the test config
    Histogram small_h, large_h;
    {
        apps::XMemProbe probe(b.plat, *b.as, b.plat.core(0),
                              1 << 20, 1);
        probe.warmAll();
        probe.run(fromUs(200), small_h);
        b.sim.run();
    }
    {
        apps::XMemProbe probe(b.plat, *b.as, b.plat.core(1),
                              64 << 20, 2);
        probe.run(b.sim.now() + fromUs(200), large_h);
        b.sim.run();
    }
    // 1MB fits the LLC (hits ~35ns); 64MB does not (~95ns+).
    EXPECT_LT(small_h.mean(), 45.0);
    EXPECT_GT(large_h.mean(), 80.0);
}

} // namespace
} // namespace dsasim
