/**
 * @file
 * Tests for the DSA device model: configuration validation, the
 * functional correctness of every opcode executed on the device,
 * batch processing, page-fault semantics, WQ modes, and first-order
 * timing properties (async streaming rate, sync latency shape).
 */

#include <gtest/gtest.h>

#include "driver/submitter.hh"
#include "ops/crc32.hh"
#include "ops/delta.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

/** A bench with one basic-configured device and a HW executor. */
struct DsaBench : Bench
{
    explicit DsaBench(unsigned engines = 1, unsigned wq_size = 32,
                      WorkQueue::Mode mode =
                          WorkQueue::Mode::Dedicated)
    {
        DsaTopology::basic(wq_size, engines, mode).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    dml::OpResult
    runHw(const WorkDescriptor &d)
    {
        dml::OpResult out;
        bool finished = false;
        test::driveOp(*this, *exec, d, out, finished);
        sim.run();
        EXPECT_TRUE(finished);
        return out;
    }

    std::unique_ptr<dml::Executor> exec;
};

TEST(DsaConfig, EnableValidatesTopology)
{
    Bench b;
    DsaDevice &dev = b.plat.dsa(0);
    EXPECT_DEATH(
        {
            DsaDevice &d2 = dev;
            d2.enable(); // no groups
        },
        "no groups");
}

TEST(DsaConfig, WqCapacityEnforced)
{
    Bench b;
    DsaDevice &dev = b.plat.dsa(0);
    Group &g = dev.addGroup();
    dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 100);
    EXPECT_DEATH(dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 100),
                 "exhausted");
}

TEST(DsaConfig, EngineAndGroupLimits)
{
    Bench b;
    DsaDevice &dev = b.plat.dsa(0);
    for (unsigned i = 0; i < dev.params().maxGroups; ++i)
        dev.addGroup();
    EXPECT_DEATH(dev.addGroup(), "at most");
}

TEST(DsaOps, MemmoveMovesBytes)
{
    DsaBench b;
    const std::uint64_t n = 128 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    auto r = b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.usedHardware);
    EXPECT_EQ(r.bytesCompleted, n);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed(), 1u);
}

TEST(DsaOps, FillWritesPattern)
{
    DsaBench b;
    Addr dst = b.as->alloc(8192);
    auto r = b.runHw(dml::Executor::fill(*b.as, dst,
                                         0x00ff00ff00ff00ffull, 8192));
    EXPECT_TRUE(r.ok);
    auto data = b.bytes(dst, 8192);
    EXPECT_EQ(data[0], 0xff);
    EXPECT_EQ(data[1], 0x00);
    EXPECT_EQ(data[8191], 0x00);
}

TEST(DsaOps, CompareMatchAndMismatch)
{
    DsaBench b;
    const std::uint64_t n = 16 << 10;
    Addr a = b.as->alloc(n);
    Addr c = b.as->alloc(n);
    b.randomize(a, n, 3);
    auto buf = b.bytes(a, n);
    b.as->write(c, buf.data(), n);

    auto eq = b.runHw(dml::Executor::compare(*b.as, a, c, n));
    EXPECT_TRUE(eq.ok);
    EXPECT_EQ(eq.result, 0u);

    buf[7777] ^= 0x80;
    b.as->write(c, buf.data(), n);
    auto ne = b.runHw(dml::Executor::compare(*b.as, a, c, n));
    EXPECT_FALSE(ne.ok);
    EXPECT_EQ(ne.result, 1u);
    EXPECT_EQ(ne.bytesCompleted, 7777u);
}

TEST(DsaOps, ComparePattern)
{
    DsaBench b;
    Addr a = b.as->alloc(4096);
    b.runHw(dml::Executor::fill(*b.as, a, 0x5a5a5a5a5a5a5a5aull,
                                4096));
    auto ok = b.runHw(dml::Executor::comparePattern(
        *b.as, a, 0x5a5a5a5a5a5a5a5aull, 4096));
    EXPECT_TRUE(ok.ok);
    auto ne = b.runHw(dml::Executor::comparePattern(
        *b.as, a, 0x5a5a5a5a5a5a5a5bull, 4096));
    EXPECT_FALSE(ne.ok);
}

TEST(DsaOps, CrcMatchesReference)
{
    DsaBench b;
    const std::uint64_t n = 20000;
    Addr a = b.as->alloc(n);
    b.randomize(a, n, 5);
    auto buf = b.bytes(a, n);
    auto r = b.runHw(dml::Executor::crc32(*b.as, a, n));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.crc, crc32cFull(buf.data(), buf.size()));
}

TEST(DsaOps, CopyCrc)
{
    DsaBench b;
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 6);
    auto buf = b.bytes(src, n);
    auto r = b.runHw(dml::Executor::copyCrc(*b.as, dst, src, n));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(r.crc, crc32cFull(buf.data(), buf.size()));
}

TEST(DsaOps, Dualcast)
{
    DsaBench b;
    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr d1 = b.as->alloc(n);
    Addr d2 = b.as->alloc(n);
    b.randomize(src, n, 8);
    auto r = b.runHw(dml::Executor::dualcast(*b.as, d1, d2, src, n));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(b.as->equal(src, d1, n));
    EXPECT_TRUE(b.as->equal(src, d2, n));
}

TEST(DsaOps, DeltaCreateApply)
{
    DsaBench b;
    const std::uint64_t n = 32 << 10;
    Addr orig = b.as->alloc(n);
    Addr mod = b.as->alloc(n);
    Addr rec = b.as->alloc(2 * n);
    b.randomize(orig, n, 10);
    auto buf = b.bytes(orig, n);
    buf[8] ^= 1;
    buf[31000] ^= 2;
    b.as->write(mod, buf.data(), n);

    auto cr = b.runHw(dml::Executor::createDelta(*b.as, orig, mod, n,
                                                 rec, 2 * n));
    EXPECT_EQ(cr.status, CompletionRecord::Status::Success);
    EXPECT_TRUE(cr.recordFits);
    EXPECT_EQ(cr.recordBytes, 2 * deltaEntryBytes);

    Addr target = b.as->alloc(n);
    auto obuf = b.bytes(orig, n);
    b.as->write(target, obuf.data(), n);
    auto ar = b.runHw(dml::Executor::applyDelta(*b.as, target, rec,
                                                cr.recordBytes, n));
    EXPECT_TRUE(ar.ok);
    EXPECT_TRUE(b.as->equal(target, mod, n));
}

TEST(DsaOps, DeltaRecordOverflow)
{
    DsaBench b;
    const std::uint64_t n = 4096;
    Addr orig = b.as->alloc(n);
    Addr mod = b.as->alloc(n);
    Addr rec = b.as->alloc(n);
    b.randomize(orig, n, 11);
    b.randomize(mod, n, 12); // everything differs
    auto cr = b.runHw(dml::Executor::createDelta(*b.as, orig, mod, n,
                                                 rec, 64));
    EXPECT_FALSE(cr.recordFits);
    EXPECT_LE(cr.recordBytes, 64u);
}

TEST(DsaOps, DifPipelineOnDevice)
{
    DsaBench b;
    const std::uint32_t block = 4096;
    const std::uint64_t nblocks = 8;
    const std::uint64_t data_bytes = block * nblocks;
    Addr src = b.as->alloc(data_bytes);
    Addr prot = b.as->alloc((block + 8) * nblocks);
    Addr out = b.as->alloc(data_bytes);
    b.randomize(src, data_bytes, 13);

    auto ins = b.runHw(dml::Executor::difInsert(*b.as, src, prot,
                                                block, data_bytes, 42,
                                                7));
    EXPECT_TRUE(ins.ok);
    auto chk = b.runHw(dml::Executor::difCheck(*b.as, prot, block,
                                               data_bytes, 42, 7));
    EXPECT_TRUE(chk.ok);
    auto bad = b.runHw(dml::Executor::difCheck(*b.as, prot, block,
                                               data_bytes, 43, 7));
    EXPECT_FALSE(bad.ok);
    auto strip = b.runHw(dml::Executor::difStrip(*b.as, prot, out,
                                                 block, data_bytes));
    EXPECT_TRUE(strip.ok);
    EXPECT_TRUE(b.as->equal(src, out, data_bytes));
}

TEST(DsaOps, CacheFlushEvictsRange)
{
    DsaBench b;
    const std::uint64_t n = 32 << 10;
    Addr buf = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    // Warm the buffer into the LLC via a CPU copy.
    b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, dst, buf, n);
    EXPECT_TRUE(b.plat.mem().cache().probe(b.as->translate(buf)));
    auto r = b.runHw(dml::Executor::cacheFlush(*b.as, buf, n));
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(b.plat.mem().cache().probe(b.as->translate(buf)));
}

TEST(DsaOps, OversizedTransferRejected)
{
    DsaBench b;
    Addr a = b.as->alloc(4096);
    WorkDescriptor d = dml::Executor::memMove(*b.as, a, a, 4096);
    d.size = b.plat.dsa(0).params().maxTransferSize + 1;
    auto r = b.runHw(d);
    EXPECT_EQ(r.status, CompletionRecord::Status::Unsupported);
}

TEST(DsaBatch, AllSubDescriptorsExecute)
{
    DsaBench b;
    const std::uint64_t n = 4096;
    const int count = 16;
    std::vector<WorkDescriptor> subs;
    std::vector<Addr> srcs, dsts;
    for (int i = 0; i < count; ++i) {
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        b.randomize(src, n, 100 + static_cast<std::uint64_t>(i));
        srcs.push_back(src);
        dsts.push_back(dst);
        subs.push_back(dml::Executor::memMove(*b.as, dst, src, n));
    }

    dml::OpResult out;
    bool finished = false;
    // Drive via the executor's batch API.
    struct Driver
    {
        static SimTask
        go(DsaBench &db, std::vector<WorkDescriptor> s,
           dml::OpResult &o, bool &fin)
        {
            co_await db.exec->executeBatch(db.plat.core(0), s, o);
            fin = true;
        }
    };
    Driver::go(b, subs, out, finished);
    b.sim.run();
    ASSERT_TRUE(finished);
    EXPECT_EQ(out.status, CompletionRecord::Status::Success);
    for (int i = 0; i < count; ++i)
        EXPECT_TRUE(b.as->equal(srcs[static_cast<std::size_t>(i)],
                                dsts[static_cast<std::size_t>(i)], n));
    // One batch + its sub-descriptors were processed on-device.
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed(),
              static_cast<std::uint64_t>(count));
}

TEST(DsaBatch, SpreadsAcrossEngines)
{
    DsaBench b(/*engines=*/4);
    const std::uint64_t n = 256 << 10;
    std::vector<WorkDescriptor> subs;
    for (int i = 0; i < 8; ++i) {
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        subs.push_back(dml::Executor::memMove(*b.as, dst, src, n));
    }
    dml::OpResult out;
    bool finished = false;
    struct Driver
    {
        static SimTask
        go(DsaBench &db, std::vector<WorkDescriptor> s,
           dml::OpResult &o, bool &fin)
        {
            co_await db.exec->executeBatch(db.plat.core(0), s, o);
            fin = true;
        }
    };
    Driver::go(b, subs, out, finished);
    b.sim.run();
    ASSERT_TRUE(finished);
    int engines_used = 0;
    for (std::size_t e = 0; e < b.plat.dsa(0).engineCount(); ++e)
        if (b.plat.dsa(0).engine(e).descriptorsProcessed > 0)
            ++engines_used;
    EXPECT_GE(engines_used, 2);
}

TEST(DsaFaults, BlockOnFaultResolvesAndCompletes)
{
    DsaBench b;
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 21);
    b.as->evictPage(src + 8192); // page out one source page

    WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, n);
    ASSERT_TRUE(d.blocksOnFault());
    auto r = b.runHw(d);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_GE(b.plat.dsa(0).engine(0).pageFaults(), 1u);
}

TEST(DsaFaults, NonBlockingFaultPartialCompletion)
{
    DsaBench b;
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 22);
    b.as->evictPage(src + 8192);

    WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, n);
    d.flags &= ~descflags::blockOnFault;
    auto r = b.runHw(d);
    EXPECT_EQ(r.status, CompletionRecord::Status::PageFault);
    EXPECT_LT(r.bytesCompleted, n);
    EXPECT_EQ(r.bytesCompleted % 4096, 0u);
    // The completion record reports the faulting address.
    EXPECT_EQ(r.faultAddr, src + 8192);
}

TEST(DsaFaults, UnmappedTailFaultsEitherWay)
{
    // The source runs two pages past its allocation, where the
    // unmapped guard page follows: the translation walk stops there,
    // and the device reports an unresolvable fault at the first
    // unmapped VA whether or not the descriptor blocks on faults.
    for (bool block : {true, false}) {
        DsaBench b;
        const std::uint64_t n = 64 << 10;
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n + 8192);
        b.randomize(src, n, 23);
        WorkDescriptor d =
            dml::Executor::memMove(*b.as, dst, src, n + 8192);
        if (!block)
            d.flags &= ~descflags::blockOnFault;
        auto r = b.runHw(d);
        EXPECT_EQ(r.status, CompletionRecord::Status::PageFault);
        EXPECT_EQ(r.faultAddr, src + n);
        EXPECT_EQ(r.bytesCompleted, n);
        EXPECT_TRUE(b.as->equal(src, dst, n));
    }
}

TEST(DsaFaultsDeathTest, PageEvictedBeforeChunkWalkPanics)
{
    // A page evicted after the descriptor translated it, while the
    // engine still streams the chunks before it, is caught when the
    // chunk walk reaches it.
    DsaBench b;
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    EXPECT_DEATH(
        {
            b.sim.scheduleIn(fromUs(10), [&b, src, n] {
                b.as->evictPage(src + n - 4096);
            });
            b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
        },
        "stream touches untranslated page");
}

/**
 * Descriptors of every stream shape, run interleaved on two engines:
 * 4 KiB and 2 MiB pages, unaligned starts, DIF's 520-byte output
 * stride, Dualcast's three streams, CreateDelta's record stream
 * (which joins after translation), a compare that stops early, and a
 * partial completion with block-on-fault off. Every counter the chunk
 * walk feeds — per-engine bytes, link bytes, LLC tallies — and the
 * end tick and event-stream hash are pinned: the engine's page
 * bookkeeping is host-side only and must not move any of them.
 */
TEST(DsaTiming, EveryStreamShapeMatchesPinnedTallies)
{
    DsaBench b(/*engines=*/2);
    b.sim.enableStreamHash(true);
    AddressSpace &as = *b.as;
    const std::uint64_t small = 256 << 10;
    const std::uint64_t huge = 6 << 20;
    Addr src = as.alloc(small);
    Addr dst = as.alloc(small);
    Addr dst2 = as.alloc(small);
    Addr far = as.alloc(small, MemKind::DramRemote);
    Addr hsrc = as.alloc(huge, MemKind::DramLocal, PageSize::Size2M);
    Addr hdst = as.alloc(huge, MemKind::DramLocal, PageSize::Size2M);
    Addr rec = as.alloc(small);
    b.randomize(src, small, 31);
    b.randomize(hsrc, huge, 32);
    auto mod = b.bytes(src, 64 << 10);
    mod[100] ^= 1;
    mod[40000] ^= 4;
    as.write(dst2 + 8, mod.data(), mod.size());

    std::vector<WorkDescriptor> descs;
    descs.push_back(dml::Executor::memMove(as, dst + 3000, src + 100,
                                           70000));
    WorkDescriptor ddio = dml::Executor::memMove(
        as, hdst + (1 << 20) + 3, hsrc + (2 << 20) - 5000 + 17, 300000);
    ddio.flags |= descflags::cacheControl;
    descs.push_back(ddio);
    descs.push_back(dml::Executor::difInsert(as, src + 64, far + 8, 512,
                                             16 * 512, 7, 9));
    descs.push_back(dml::Executor::dualcast(as, dst + 100000 + 16,
                                            dst2 + 64 * 1024 + 16,
                                            hsrc + 777, 50000));
    descs.push_back(dml::Executor::createDelta(as, src, dst2 + 8,
                                               64 << 10, rec, 4096));
    descs.push_back(dml::Executor::compare(as, src + 8, hsrc + 8,
                                           100000));
    descs.push_back(dml::Executor::crc32(as, hsrc + (4 << 20) - 3,
                                         1 << 20));

    std::vector<dml::OpResult> results(descs.size() + 1);
    struct Driver
    {
        static SimTask
        go(DsaBench &db, const std::vector<WorkDescriptor> &ds,
           std::vector<dml::OpResult> &outs)
        {
            std::vector<std::unique_ptr<dml::Job>> inflight;
            for (const WorkDescriptor &d : ds) {
                auto job = db.exec->prepare(d);
                co_await db.exec->submit(db.plat.core(0), *job);
                inflight.push_back(std::move(job));
            }
            for (std::size_t i = 0; i < inflight.size(); ++i)
                co_await db.exec->wait(db.plat.core(0), *inflight[i],
                                       outs[i]);
        }
    };
    // All at once, so the engines interleave their chunk walks.
    Driver::go(b, descs, results);
    b.sim.run();
    // Then, with a destination page out, a partial completion: no
    // page is absent while the descriptors above run.
    as.evictPage(far + 3 * 4096);
    WorkDescriptor partial =
        dml::Executor::memMove(as, far + 8192, src + 4096, 40000);
    partial.flags &= ~descflags::blockOnFault;
    results.back() = b.runHw(partial);

    std::vector<std::uint64_t> got;
    for (const dml::OpResult &r : results) {
        got.push_back(static_cast<std::uint64_t>(r.status));
        got.push_back(r.bytesCompleted);
    }
    DsaDevice &dev = b.plat.dsa(0);
    for (std::size_t e = 0; e < dev.engineCount(); ++e) {
        got.push_back(dev.engine(e).bytesRead());
        got.push_back(dev.engine(e).bytesWritten());
        got.push_back(dev.engine(e).descriptorsProcessed);
    }
    MemSystem &mem = b.plat.mem();
    got.push_back(dev.fabricRead().bytesServed());
    got.push_back(dev.fabricWrite().bytesServed());
    got.push_back(mem.llcLink().bytesServed());
    got.push_back(mem.upiLink().bytesServed());
    for (std::size_t nid = 0; nid < mem.nodeCount(); ++nid) {
        got.push_back(mem.node(static_cast<int>(nid)).readLink.bytesServed());
        got.push_back(
            mem.node(static_cast<int>(nid)).writeLink.bytesServed());
    }
    got.push_back(mem.cache().hitBytesTotal());
    got.push_back(mem.cache().missBytesTotal());
    got.push_back(mem.cache().writebackBytesTotal());
    got.push_back(b.sim.now());
    got.push_back(b.sim.streamHash());

    // Pinned from the per-chunk page walk the recorded runs replace.
    const std::vector<std::uint64_t> pinned = {
        // status, bytesCompleted per descriptor
        1, 70000, 1, 300000, 1, 8192, 1, 50000, 1, 65536, 1, 0, 1,
        1048576, 2, 4096,
        // bytes read, bytes written, descriptors per engine
        1316032, 178340, 6, 304096, 304096, 2,
        // fabric read and write, LLC port, UPI
        1620128, 482436, 300000, 12416,
        // read and write link per memory node
        1644416, 170020, 0, 12416, 0, 0,
        // LLC hit, miss and writeback bytes
        4672, 1944448, 0,
        // end tick, event-stream hash
        56778563, 13496956176634195498ull};
    std::string all;
    for (std::uint64_t v : got)
        all += std::to_string(v) + "ull, ";
    EXPECT_EQ(got, pinned) << "got: " << all;
}

TEST(DsaSubmission, SwqRetryWhenFull)
{
    DsaBench b(/*engines=*/1, /*wq_size=*/1,
               WorkQueue::Mode::Shared);
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(3 * n);
    Addr dst = b.as->alloc(3 * n);

    struct Driver
    {
        static SimTask
        go(DsaBench &db, Addr s, Addr d, std::uint64_t len, int &rets,
           CompletionRecord &cr1, CompletionRecord &cr2,
           CompletionRecord &cr3)
        {
            Submitter sub(db.plat.core(0), db.plat.dsa(0).params());
            auto &wq = db.plat.dsa(0).wq(0);
            WorkDescriptor w1 =
                dml::Executor::memMove(*db.as, d, s, len);
            w1.completion = &cr1;
            WorkDescriptor w2 =
                dml::Executor::memMove(*db.as, d + len, s + len, len);
            w2.completion = &cr2;
            WorkDescriptor w3 = dml::Executor::memMove(
                *db.as, d + 2 * len, s + 2 * len, len);
            w3.completion = &cr3;

            bool a1 = false, a2 = false, a3 = false;
            co_await sub.enqcmd(db.plat.dsa(0), wq, w1, a1);
            co_await sub.enqcmd(db.plat.dsa(0), wq, w2, a2);
            co_await sub.enqcmd(db.plat.dsa(0), wq, w3, a3);
            // First lands; with a 1-entry SWQ and a 1 MB transfer in
            // flight, at least one of the next two gets Retry.
            rets = (a1 ? 0 : 1) + (a2 ? 0 : 1) + (a3 ? 0 : 1);
            co_await sub.umwait(cr1);
        }
    };
    int retries = -1;
    // The records must outlive the run: descriptors accepted but not
    // umwait-ed on write their completions after go()'s frame dies.
    CompletionRecord cr1(b.sim), cr2(b.sim), cr3(b.sim);
    Driver::go(b, src, dst, n, retries, cr1, cr2, cr3);
    b.sim.run();
    EXPECT_GE(retries, 1);
    EXPECT_GE(b.plat.dsa(0).descriptorsRetried(), 1u);
}

TEST(DsaTiming, AsyncStreamingApproachesFabricRate)
{
    DsaBench b;
    const std::uint64_t n = 256 << 10;
    const int jobs = 32;
    Addr src = b.as->alloc(n * jobs);
    Addr dst = b.as->alloc(n * jobs);

    struct Driver
    {
        static SimTask
        go(DsaBench &db, Addr s, Addr d, std::uint64_t len, int count,
           Tick &elapsed)
        {
            Tick t0 = db.sim.now();
            std::vector<std::unique_ptr<dml::Job>> inflight;
            for (int i = 0; i < count; ++i) {
                auto job = db.exec->prepare(dml::Executor::memMove(
                    *db.as, d + static_cast<Addr>(i) * len,
                    s + static_cast<Addr>(i) * len, len));
                co_await db.exec->submit(db.plat.core(0), *job);
                inflight.push_back(std::move(job));
            }
            dml::OpResult out;
            for (auto &job : inflight)
                co_await db.exec->wait(db.plat.core(0), *job, out);
            elapsed = db.sim.now() - t0;
        }
    };
    Tick elapsed = 0;
    Driver::go(b, src, dst, n, jobs, elapsed);
    b.sim.run();
    double gbps = achievedGBps(n * jobs, elapsed);
    EXPECT_GT(gbps, 20.0); // near the 30 GB/s fabric limit
    EXPECT_LT(gbps, 31.0); // never beyond it
}

TEST(DsaTiming, SyncLatencyHasFixedFloor)
{
    DsaBench b;
    Addr src = b.as->alloc(4096);
    Addr dst = b.as->alloc(4096);
    auto r64 = b.runHw(dml::Executor::memMove(*b.as, dst, src, 64));
    // Small sync offloads are dominated by the offload overhead.
    EXPECT_GT(r64.latency, fromNs(200));
    EXPECT_LT(r64.latency, fromNs(1500));
    auto r4k = b.runHw(dml::Executor::memMove(*b.as, dst, src, 4096));
    EXPECT_GT(r4k.latency, r64.latency);
}

TEST(DsaTiming, MorePesHelpSmallTransfers)
{
    // 1 KB descriptors are gap-bound on a single PE (~8.5 GB/s), so
    // extra PEs overlap the per-descriptor overhead; 4 KB and larger
    // descriptors are already fabric-bound and would not scale.
    const std::uint64_t n = 1024;
    const int jobs = 256;
    Tick t1 = 0, t4 = 0;
    for (unsigned engines : {1u, 4u}) {
        DsaBench b(engines);
        Addr src = b.as->alloc(n * jobs);
        Addr dst = b.as->alloc(n * jobs);
        struct Driver
        {
            static SimTask
            go(DsaBench &db, Addr s, Addr d, std::uint64_t len,
               int count, Tick &elapsed)
            {
                Tick t0 = db.sim.now();
                std::vector<std::unique_ptr<dml::Job>> inflight;
                for (int i = 0; i < count; ++i) {
                    auto job =
                        db.exec->prepare(dml::Executor::memMove(
                            *db.as, d + static_cast<Addr>(i) * len,
                            s + static_cast<Addr>(i) * len, len));
                    co_await db.exec->submit(db.plat.core(0), *job);
                    inflight.push_back(std::move(job));
                }
                dml::OpResult out;
                for (auto &job : inflight)
                    co_await db.exec->wait(db.plat.core(0), *job,
                                           out);
                elapsed = db.sim.now() - t0;
            }
        };
        Tick &slot = engines == 1 ? t1 : t4;
        Driver::go(b, src, dst, n, jobs, slot);
        b.sim.run();
    }
    // 4 PEs overlap the per-descriptor overhead: meaningfully faster.
    EXPECT_LT(t4, t1 * 3 / 4);
}

TEST(DsaDevice, AtcWarmupReducesMisses)
{
    DsaBench b;
    const std::uint64_t n = 256 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    std::uint64_t misses_cold = b.plat.dsa(0).engine(0).atcMisses();
    b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    std::uint64_t misses_warm =
        b.plat.dsa(0).engine(0).atcMisses() - misses_cold;
    EXPECT_EQ(misses_warm, 0u);
    EXPECT_GT(misses_cold, 0u);
}

} // namespace
} // namespace dsasim
