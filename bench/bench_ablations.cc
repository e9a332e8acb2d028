/**
 * @file
 * Ablations of the DSA design knobs DESIGN.md calls out — the
 * configurable resources §3.4 and the guidelines are built on:
 *
 *  A1. Read buffers per group (QoS): fewer buffers cannot cover the
 *      bandwidth-delay product, so achievable read bandwidth drops,
 *      and the effect grows with memory latency (CXL > local DRAM).
 *  A2. WQ priority (F3): with two WQs saturating one group, the
 *      arbiter's priority setting shifts throughput between them.
 *  A3. Cache-control hint (G3): a consumer core reading DSA-written
 *      data sees LLC-latency with the hint on, memory latency off.
 *  A4. Block-on-fault PE stalls (G5): a faulting stream stalls its
 *      PE; adding a second PE isolates a co-running clean stream.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

// ---- A1: read buffers -------------------------------------------

double
readBufferRun(unsigned buffers, MemKind src_kind)
{
    Simulation sim;
    Platform plat(sim, PlatformConfig::spr());
    DsaDevice &dev = plat.dsa(0);
    Group &g = dev.addGroup();
    dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 32);
    dev.addEngine(g);
    dev.setGroupReadBuffers(g, buffers);
    dev.enable();
    AddressSpace &as = plat.mem().createSpace();
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(sim, plat.mem(), plat.kernels(), {&dev}, ec);

    const std::uint64_t n = 256 << 10;
    const int jobs = 24;
    Addr src = as.alloc(n * jobs, src_kind);
    Addr dst = as.alloc(n * jobs, MemKind::DramLocal);
    Tick elapsed = 0;

    struct Drv
    {
        static SimTask
        go(Simulation &s, Platform &p, dml::Executor &ex,
           AddressSpace &sp, Addr so, Addr dk, std::uint64_t len,
           int count, Tick &el)
        {
            Tick t0 = s.now();
            std::vector<std::unique_ptr<dml::Job>> inflight;
            for (int i = 0; i < count; ++i) {
                auto job = ex.prepare(dml::Executor::memMove(
                    sp, dk + static_cast<Addr>(i) * len,
                    so + static_cast<Addr>(i) * len, len));
                co_await ex.submit(p.core(0), *job);
                inflight.push_back(std::move(job));
            }
            dml::OpResult r;
            for (auto &j : inflight)
                co_await ex.wait(p.core(0), *j, r);
            el = s.now() - t0;
        }
    };
    Drv::go(sim, plat, exec, as, src, dst, n, jobs, elapsed);
    sim.run();
    return achievedGBps(static_cast<std::uint64_t>(jobs) * n,
                        elapsed);
}

// ---- A2: WQ priority --------------------------------------------

void
priorityRun(unsigned prio_a, unsigned prio_b, double &gbps_a,
            double &gbps_b)
{
    Simulation sim;
    Platform plat(sim, PlatformConfig::spr());
    DsaDevice &dev = plat.dsa(0);
    Group &g = dev.addGroup();
    WorkQueue &wqa =
        dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 16, prio_a);
    WorkQueue &wqb =
        dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 16, prio_b);
    dev.addEngine(g);
    dev.enable();
    AddressSpace &as = plat.mem().createSpace();

    const std::uint64_t n = 16 << 10;
    const Tick horizon = fromUs(400);
    std::uint64_t done_a = 0, done_b = 0;

    struct Pump
    {
        static SimTask
        go(Simulation &s, Platform &p, AddressSpace &sp,
           DsaDevice &d, WorkQueue &wq, int core_id,
           std::uint64_t len, Tick until, std::uint64_t &done)
        {
            Core &core = p.core(static_cast<std::size_t>(core_id));
            Submitter sub(core, d.params());
            Addr src = sp.alloc(len * 8);
            Addr dst = sp.alloc(len * 8);
            Semaphore window(s, 8);
            std::vector<std::unique_ptr<CompletionRecord>> crs;
            struct W
            {
                static SimTask
                drain(CompletionRecord &cr, Semaphore &win,
                      std::uint64_t &n_done)
                {
                    if (!cr.isDone())
                        co_await cr.done.wait();
                    win.release();
                    ++n_done;
                }
            };
            for (int i = 0; s.now() < until; ++i) {
                co_await window.acquire();
                crs.push_back(
                    std::make_unique<CompletionRecord>(s));
                WorkDescriptor wd = dml::Executor::memMove(
                    sp, dst + static_cast<Addr>(i % 8) * len,
                    src + static_cast<Addr>(i % 8) * len, len);
                wd.completion = crs.back().get();
                co_await sub.movdir64b(d, wq, wd);
                W::drain(*crs.back(), window, done);
            }
            // Keep this frame (and the completion records it owns)
            // alive until every drain task has finished.
            for (int k = 0; k < 8; ++k)
                co_await window.acquire();
        }
    };
    Pump::go(sim, plat, as, dev, wqa, 0, n, horizon, done_a);
    Pump::go(sim, plat, as, dev, wqb, 1, n, horizon, done_b);
    sim.runUntil(horizon);
    sim.run(); // drain
    gbps_a = static_cast<double>(done_a) * n / toNs(horizon);
    gbps_b = static_cast<double>(done_b) * n / toNs(horizon);
}

// ---- A3: cache hint ---------------------------------------------

void
cacheHintRun(bool hint, double &consumer_ns, double &llc_hit_rate)
{
    Rig::Options o;
    Rig rig(o);
    Core &producer = rig.plat.core(0);
    Core &consumer = rig.plat.core(1);
    const std::uint64_t n = 64 << 10;
    Addr src = rig.as->alloc(n);
    Addr dst = rig.as->alloc(n);
    Histogram lat;
    std::uint64_t hits = 0, total = 0;

    struct Drv
    {
        static SimTask
        go(Rig &r, Core &prod, Core &cons, Addr s, Addr d,
           std::uint64_t len, bool use_hint, Histogram &h,
           std::uint64_t &hit_n, std::uint64_t &tot_n)
        {
            for (int i = 0; i < 30; ++i) {
                r.plat.mem().cache().invalidateAll();
                WorkDescriptor wd =
                    dml::Executor::memMove(*r.as, d, s, len);
                if (use_hint)
                    wd.flags |= descflags::cacheControl;
                dml::OpResult res;
                co_await r.exec->executeHardware(prod, wd, res);
                // Where did the data land? (non-mutating probe)
                for (Addr a = d; a < d + len; a += cacheLineSize) {
                    Addr pa = r.as->translate(a);
                    ++tot_n;
                    hit_n += r.plat.mem().cache().probe(pa) ? 1 : 0;
                }
                // Consumer reads the freshly written data.
                auto k = r.plat.kernels().run(
                    cons, *r.as,
                    dml::Executor::comparePattern(*r.as, d, 0, len),
                    false);
                h.add(toNs(k.duration));
                co_await cons.busyFor(k.duration, "consume");
            }
        }
    };
    Drv::go(rig, producer, consumer, src, dst, n, hint, lat, hits,
            total);
    rig.sim.run();
    consumer_ns = lat.mean();
    llc_hit_rate =
        total ? 100.0 * static_cast<double>(hits) /
                    static_cast<double>(total)
              : 0.0;
}

// ---- A4: block-on-fault stalls ----------------------------------

double
faultStallRun(unsigned engines, bool inject_faults)
{
    Rig::Options o;
    o.engines = engines;
    Rig rig(o);
    const std::uint64_t n = 32 << 10;
    const Tick horizon = fromUs(600);

    // Clean stream on core 0, measured.
    std::uint64_t clean_done = 0;
    struct Clean
    {
        static SimTask
        go(Rig &r, std::uint64_t len, Tick until, std::uint64_t &done)
        {
            Core &core = r.plat.core(0);
            Addr src = r.as->alloc(len * 8);
            Addr dst = r.as->alloc(len * 8);
            int i = 0;
            while (r.sim.now() < until) {
                dml::OpResult res;
                co_await r.exec->executeHardware(
                    core,
                    dml::Executor::memMove(
                        *r.as, dst + static_cast<Addr>(i % 8) * len,
                        src + static_cast<Addr>(i % 8) * len, len),
                    res);
                ++done;
                ++i;
            }
        }
    };

    // Faulting stream on core 1: every source page is evicted first,
    // so every descriptor takes the block-on-fault path.
    struct Faulty
    {
        static SimTask
        go(Rig &r, std::uint64_t len, Tick until)
        {
            Core &core = r.plat.core(1);
            Addr src = r.as->alloc(len);
            Addr dst = r.as->alloc(len);
            while (r.sim.now() < until) {
                for (Addr a = src; a < src + len; a += 4096)
                    r.as->evictPage(a);
                dml::OpResult res;
                co_await r.exec->executeHardware(
                    core,
                    dml::Executor::memMove(*r.as, dst, src, len),
                    res);
            }
        }
    };

    Clean::go(rig, n, horizon, clean_done);
    if (inject_faults)
        Faulty::go(rig, n, horizon);
    rig.sim.runUntil(horizon);
    rig.sim.run();
    return static_cast<double>(clean_done) * n / toNs(horizon);
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    {
        Table tbl("A1: read buffers per group vs async memcpy GB/s "
                  "(256KB transfers)",
                  {"buffers", "src local DRAM", "src CXL"});
        for (unsigned bufs : {8u, 16u, 32u, 64u, 96u}) {
            tbl.addRow({std::to_string(bufs),
                        fmt(readBufferRun(bufs, MemKind::DramLocal)),
                        fmt(readBufferRun(bufs, MemKind::Cxl))});
        }
        tbl.print();
    }

    {
        Table tbl("A2: WQ priority split of one saturated PE "
                  "(16KB copies)",
                  {"priorities (A,B)", "WQ-A GB/s", "WQ-B GB/s"});
        for (auto pr : {std::pair<unsigned, unsigned>{0, 0},
                        {4, 0},
                        {7, 0}}) {
            double a = 0, b = 0;
            priorityRun(pr.first, pr.second, a, b);
            tbl.addRow({strfmt("(%u,%u)", pr.first, pr.second), fmt(a),
                        fmt(b)});
        }
        tbl.print();
    }

    {
        Table tbl("A3: cache-control hint and the consumer (G3)",
                  {"hint", "consumer scan ns (64KB)",
                   "consumer LLC hit %"});
        for (bool hint : {false, true}) {
            double ns = 0, hit = 0;
            cacheHintRun(hint, ns, hit);
            tbl.addRow({hint ? "LLC (1)" : "memory (0)", fmt(ns, 0),
                        fmt(hit, 1)});
        }
        tbl.print();
    }

    {
        Table tbl("A4: PE stalls from a faulting co-runner (G5)",
                  {"config", "clean-stream GB/s"});
        tbl.addRow({"1 PE, no faults", fmt(faultStallRun(1, false))});
        tbl.addRow({"1 PE, faulting co-runner",
                    fmt(faultStallRun(1, true))});
        tbl.addRow({"2 PEs, faulting co-runner",
                    fmt(faultStallRun(2, true))});
        tbl.print();
    }
    return 0;
}
