/**
 * @file
 * Overload-robust multi-tenant serving (DESIGN.md §12):
 *
 *  - CounterRng: counter-based draws are pure functions of
 *    (seed, stream, k) — no draw-order dependence;
 *  - ArrivalMix: grammar parsing and weighted-round-robin tenant
 *    to class mapping; ArrivalStream determinism;
 *  - TokenBucket: integer-exact refill (the sub-token remainder
 *    carries, so no rate is lost to rounding);
 *  - WqAdmission: per-class occupancy limits, per-tenant throttling,
 *    and tenant isolation (one tenant's verdicts never consume a
 *    neighbor's budget);
 *  - CircuitBreaker: closed -> open -> half-open -> closed walk;
 *  - ServingNode: bounded ENQCMD backoff exhaustion degrades to the
 *    CPU path with zero hangs; a hung engine is released by the
 *    executor's watchdog and the request served on the CPU;
 *    pasid-scoped fault injection stays
 *    inside the targeted tenant's blast radius; the whole ladder is
 *    bit-identical at 1 vs 4 worker threads mid-overload; the
 *    registry's completed/latency_us_total views equal the tenants'
 *    latency records;
 *  - MiniCache as a tenant workload, with its op counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/minicache.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "dsa/qos.hh"
#include "dto/dto.hh"
#include "sim/traffic.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

TEST(CounterRng, DrawsArePureFunctionsOfTheCounter)
{
    CounterRng a(42, 7);
    const std::uint64_t tenth = a.at(10);
    // Reading other counters (in any order) never perturbs draw 10.
    (void)a.at(3);
    (void)a.at(1000000);
    (void)a.at(0);
    EXPECT_EQ(a.at(10), tenth);
    CounterRng same(42, 7);
    EXPECT_EQ(same.at(10), tenth);
}

TEST(CounterRng, StreamsAndSeedsAreIndependent)
{
    EXPECT_NE(CounterRng(1, 0).at(0), CounterRng(1, 1).at(0));
    EXPECT_NE(CounterRng(1, 0).at(0), CounterRng(2, 0).at(0));
    for (std::uint64_t k = 0; k < 256; ++k) {
        const double u = CounterRng(9, 3).uniformAt(k);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_GT(CounterRng(9, 3).expAt(k), 0.0);
        EXPECT_LT(CounterRng(9, 3).belowAt(k, 10), 10u);
    }
}

TEST(ArrivalMix, ParsesTheGrammar)
{
    const ArrivalMix mix = ArrivalMix::parse(
        "poisson:rate=100,weight=3,bytes=512;"
        "bursty:rate=50,weight=1,factor=16,period=32,duty=0.5;"
        "diurnal:rate=10,amp=0.25");
    ASSERT_EQ(mix.classCount(), 3u);
    EXPECT_EQ(mix.at(0).pattern, ArrivalPattern::Poisson);
    EXPECT_DOUBLE_EQ(mix.at(0).ratePerSec, 100.0);
    EXPECT_EQ(mix.at(0).payloadBytes, 512u);
    EXPECT_EQ(mix.at(1).pattern, ArrivalPattern::Bursty);
    EXPECT_DOUBLE_EQ(mix.at(1).burstFactor, 16.0);
    EXPECT_EQ(mix.at(1).burstPeriod, 32u);
    EXPECT_DOUBLE_EQ(mix.at(1).burstDuty, 0.5);
    EXPECT_EQ(mix.at(2).pattern, ArrivalPattern::Diurnal);
    EXPECT_DOUBLE_EQ(mix.at(2).diurnalAmplitude, 0.25);
}

TEST(ArrivalMix, TenantsMapByWeightedRoundRobin)
{
    const ArrivalMix mix =
        ArrivalMix::parse("poisson:weight=3;bursty:weight=1");
    // Total weight 4: tenants 0..2 -> class 0, tenant 3 -> class 1,
    // then the cycle repeats — independent of construction order.
    EXPECT_EQ(mix.classIndexFor(0), 0u);
    EXPECT_EQ(mix.classIndexFor(2), 0u);
    EXPECT_EQ(mix.classIndexFor(3), 1u);
    EXPECT_EQ(mix.classIndexFor(4), 0u);
    EXPECT_EQ(mix.classIndexFor(7), 1u);
    EXPECT_EQ(mix.classFor(3).pattern, ArrivalPattern::Bursty);
}

TEST(ArrivalMixDeathTest, MalformedSpecIsFatal)
{
    EXPECT_DEATH((void)ArrivalMix::parse("sawtooth:rate=5"),
                 "arrival");
    EXPECT_DEATH((void)ArrivalMix::parse("poisson:rate=0"), "rate");
}

TEST(ArrivalStream, DeterministicAndStrictlyPositive)
{
    const ArrivalMix mix = ArrivalMix::parse(
        "bursty:rate=2000,factor=8,period=16,duty=0.25");
    ArrivalStream a(5, 11, mix.classFor(11));
    ArrivalStream b(5, 11, mix.classFor(11));
    for (std::uint64_t k = 0; k < 512; ++k) {
        EXPECT_EQ(a.interarrival(k), b.interarrival(k));
        EXPECT_GE(a.interarrival(k), 1);
    }
    // A different tenant index yields a different stream.
    ArrivalStream c(5, 12, mix.classFor(11));
    bool differs = false;
    for (std::uint64_t k = 0; k < 16 && !differs; ++k)
        differs = a.interarrival(k) != c.interarrival(k);
    EXPECT_TRUE(differs);
}

TEST(TokenBucket, ExactRefillCarriesTheRemainder)
{
    // 1000 tokens/s = one token per millisecond of simulated time.
    TokenBucket tb({1000, 5}, 0);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(tb.tryTake(0));
    EXPECT_FALSE(tb.tryTake(0));
    // Half a millisecond accrues no whole token...
    EXPECT_EQ(tb.available(fromUs(500)), 0u);
    // ...but the half-token remainder is not lost: the second half
    // completes exactly one token, with zero rounding drift.
    EXPECT_EQ(tb.available(fromUs(1000)), 1u);
    EXPECT_EQ(tb.available(fromUs(3000)), 3u);
    // Refill clamps at the burst capacity.
    EXPECT_EQ(tb.available(ticksPerSec), 5u);
}

TEST(WqAdmission, ClassOccupancyLimits)
{
    WqAdmission::Config cfg;
    cfg.standardFraction = 0.75;
    cfg.opportunisticFraction = 0.5;
    WqAdmission adm(cfg);
    const std::size_t threshold = 16;

    // Standard (the default class) stops at 12 of 16.
    EXPECT_EQ(adm.admit(1, 0, 11, threshold),
              WqAdmission::Verdict::Admit);
    EXPECT_EQ(adm.admit(1, 0, 12, threshold),
              WqAdmission::Verdict::Busy);

    adm.setClass(2, QosClass::Opportunistic);
    EXPECT_EQ(adm.admit(2, 0, 7, threshold),
              WqAdmission::Verdict::Admit);
    EXPECT_EQ(adm.admit(2, 0, 8, threshold),
              WqAdmission::Verdict::Busy);

    adm.setClass(3, QosClass::Guaranteed);
    EXPECT_EQ(adm.admit(3, 0, 15, threshold),
              WqAdmission::Verdict::Admit);
    EXPECT_EQ(adm.admit(3, 0, 16, threshold),
              WqAdmission::Verdict::Busy);
    EXPECT_EQ(adm.totalBusy, 3u);
}

TEST(WqAdmission, ThrottlingIsolatesTenants)
{
    WqAdmission adm;
    adm.setBucket(1, {1, 1}); // one token, ~no refill at these ticks
    EXPECT_EQ(adm.admit(1, 0, 0, 16), WqAdmission::Verdict::Admit);
    EXPECT_EQ(adm.admit(1, fromUs(10), 0, 16),
              WqAdmission::Verdict::Throttle);
    // The throttled neighbor never consumed tenant 2's budget.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(adm.admit(2, fromUs(10), 0, 16),
                  WqAdmission::Verdict::Admit);
    }
    EXPECT_EQ(adm.stats(1).throttled, 1u);
    EXPECT_EQ(adm.stats(2).throttled, 0u);
    EXPECT_EQ(adm.stats(2).admitted, 8u);
}

TEST(CircuitBreaker, OpenHalfOpenCloseWalk)
{
    dml::CircuitBreaker::Config cfg;
    cfg.window = 4;
    cfg.openThreshold = 0.5;
    cfg.cooldown = 100;
    cfg.probes = 2;
    dml::CircuitBreaker br(cfg);
    using State = dml::CircuitBreaker::State;

    // A clean window keeps it closed.
    for (int i = 0; i < 4; ++i)
        br.onOutcome(0, false);
    EXPECT_EQ(br.state(), State::Closed);

    // Half the window queue-full trips it.
    br.onOutcome(10, true);
    br.onOutcome(11, true);
    br.onOutcome(12, false);
    br.onOutcome(13, false);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_EQ(br.opens, 1u);

    // Open sheds until the cooldown elapses...
    EXPECT_FALSE(br.allowHardware(50));
    EXPECT_EQ(br.shed, 1u);
    // ...then admits exactly `probes` half-open trials.
    EXPECT_TRUE(br.allowHardware(113));
    EXPECT_EQ(br.state(), State::HalfOpen);
    EXPECT_TRUE(br.allowHardware(114));
    EXPECT_FALSE(br.allowHardware(115)); // quota in flight
    // All probes clean: closed again.
    br.onOutcome(120, false);
    br.onOutcome(121, false);
    EXPECT_EQ(br.state(), State::Closed);
    EXPECT_EQ(br.closes, 1u);

    // Trip again; a queue-full probe re-opens immediately.
    for (int i = 0; i < 4; ++i)
        br.onOutcome(200, true);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_TRUE(br.allowHardware(301));
    EXPECT_EQ(br.state(), State::HalfOpen);
    br.onOutcome(302, true);
    EXPECT_EQ(br.state(), State::Open);
    EXPECT_EQ(br.opens, 3u);
}

/** Shared-WQ platform + executor for ServingNode tests. */
struct ServBench : Bench
{
    explicit ServBench(Tick watchdog_timeout = 0)
    {
        DsaTopology::basic(32, 2, WorkQueue::Mode::Shared).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        ec.watchdogTimeout = watchdog_timeout;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    /** One tenant in its own address space, memMove workload. */
    dml::TenantSession &
    addTenant(dml::ServingNode &node, std::uint64_t bytes = 4096)
    {
        AddressSpace &space = plat.mem().createSpace();
        Addr src = space.alloc(bytes);
        Addr dst = space.alloc(bytes);
        auto make = [&space, src, dst,
                     bytes](std::uint64_t) -> WorkDescriptor {
            return dml::Executor::memMove(space, dst, src, bytes);
        };
        return node.addTenant(space.pasid(), plat.core(0),
                              plat.dsa(0), plat.dsa(0).wq(0), make);
    }

    std::unique_ptr<dml::Executor> exec;
};

TEST(Serving, BackoffExhaustionDegradesToCpuWithZeroHangs)
{
    ServBench b;
    dml::ServingConfig sc;
    sc.maxRetries = 3;
    sc.outstandingCap = 64;
    sc.cpuFallback = true;
    dml::ServingNode node(b.sim, *b.exec, sc);

    // One token ever: every request after the first is throttled at
    // the portal until bounded backoff gives up.
    WqAdmission adm;
    b.plat.dsa(0).installAdmission(0, &adm);

    dml::TenantSession &sess = b.addTenant(node);
    adm.setBucket(sess.pasid, {1, 1});

    const std::uint64_t requests = 8;
    const ArrivalMix mix = ArrivalMix::parse("poisson:rate=100000");
    Latch done(b.sim, requests);
    node.openLoop(sess, ArrivalStream(1, 0, mix.classFor(0)),
                  requests, done);
    b.sim.run();

    ASSERT_TRUE(done.done());
    EXPECT_EQ(sess.stats.arrivals, requests);
    EXPECT_EQ(sess.stats.completed(), requests);
    EXPECT_EQ(sess.stats.hwOk, 1u); // the single admitted token
    EXPECT_EQ(sess.stats.giveUps, requests - 1);
    // Bounded backoff: exactly maxRetries resubmissions per
    // exhausted request, then the CPU path serves it.
    EXPECT_EQ(sess.stats.retries, (requests - 1) * sc.maxRetries);
    EXPECT_EQ(sess.stats.fallbacks, requests - 1);
    EXPECT_EQ(sess.stats.dropped, 0u);

    // Each pause is the capped exponential step shortened by the
    // tenant's counter-based jitter draw for (request, attempt), and
    // the core books exactly those pauses as backoff time. Request 0
    // took the token; requests 1.. retried maxRetries times each.
    Tick pauses = 0;
    for (std::uint64_t k = 1; k < requests; ++k) {
        Tick pause = sc.backoffBase;
        for (unsigned a = 0; a < sc.maxRetries; ++a) {
            const double u =
                sess.jitter.uniformAt(k * (sc.maxRetries + 1ULL) + a);
            pauses += pause - static_cast<Tick>(
                                  sc.backoffJitter * u *
                                  static_cast<double>(pause));
            pause = std::min(pause * 2, sc.backoffCap);
        }
    }
    EXPECT_EQ(b.plat.core(0).cycleAccount().bucket("enqcmd-backoff"),
              pauses);
}

TEST(Serving, RegistryViewsMatchTenantRecords)
{
    ServBench b;
    dml::ServingConfig sc;
    sc.maxRetries = 2;
    sc.outstandingCap = 64;
    dml::ServingNode node(b.sim, *b.exec, sc);

    // Two tokens per tenant ever: the rest of each tenant's requests
    // retry, give up and fall back to the CPU path.
    WqAdmission adm;
    b.plat.dsa(0).installAdmission(0, &adm);
    std::vector<dml::TenantSession *> tenants;
    for (int t = 0; t < 3; ++t) {
        tenants.push_back(&b.addTenant(node));
        adm.setBucket(tenants.back()->pasid, {1, 2});
    }

    const std::uint64_t requests = 6;
    const ArrivalMix mix = ArrivalMix::parse("poisson:rate=100000");
    Latch done(b.sim, tenants.size() * requests);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        node.openLoop(*tenants[t],
                      ArrivalStream(1, t, mix.classFor(t)), requests,
                      done);
    }
    b.sim.run();
    ASSERT_TRUE(done.done());

    std::uint64_t samples = 0, completed = 0;
    double totalUs = 0.0;
    for (const dml::TenantSession *t : tenants) {
        samples += t->stats.latencyUs.count();
        completed += t->stats.completed();
        totalUs += t->stats.latencyUs.sum();
    }
    const dml::TenantStats total = node.aggregate();
    ASSERT_GT(total.retries, 0u);
    ASSERT_GT(total.fallbacks, 0u);
    ASSERT_GT(total.hwOk, 0u);

    const stats::Registry &reg = b.sim.stats();
    EXPECT_EQ(reg.counterValue("serving0.completed"), samples);
    EXPECT_EQ(samples, completed);
    EXPECT_EQ(completed, tenants.size() * requests);

    const stats::Registry::Snapshot snap = reg.snapshot();
    const auto it = std::find_if(
        snap.entries.begin(), snap.entries.end(), [](const auto &e) {
            return e.name == "serving0.latency_us_total";
        });
    ASSERT_NE(it, snap.entries.end());
    EXPECT_EQ(it->kind, stats::Registry::Kind::Gauge);
    EXPECT_DOUBLE_EQ(it->value, totalUs);
    EXPECT_GT(it->value, 0.0);
}

SimTask
serveOne(dml::ServingNode &node, dml::TenantSession &t,
         std::uint64_t k, bool &finished)
{
    co_await node.serve(t, k);
    finished = true;
}

TEST(Serving, WatchdogReleasesAHungEngineAndTheCpuServesTheRequest)
{
    ServBench b(fromUs(50));
    dml::ServingNode node(b.sim, *b.exec);
    {
        auto fi = std::make_unique<FaultInjector>(1);
        fi->attachClock(b.sim);
        FaultRule r;
        r.site = FaultSite::EngineHang;
        r.everyNth = 1;
        r.maxFires = 1;
        fi->addRule(r);
        b.plat.setFaultInjector(std::move(fi));
    }

    const std::uint64_t n = 4096;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 8);
    dml::TenantSession &sess = node.addTenant(
        b.as->pasid(), b.plat.core(0), b.plat.dsa(0), b.plat.dsa(0).wq(0),
        [&b, src, dst, n](std::uint64_t) {
            return dml::Executor::memMove(*b.as, dst, src, n);
        });

    // The engine wedges; the executor's watchdog aborts it, the
    // Aborted completion counts as a hardware error, and the CPU
    // path moves the bytes.
    bool fin = false;
    serveOne(node, sess, 0, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(b.plat.dsa(0).engine(0).hangs +
                  b.plat.dsa(0).engine(1).hangs,
              1u);
    EXPECT_EQ(b.exec->watchdogFires, 1u);
    EXPECT_EQ(b.exec->watchdogForced, 0u);
    EXPECT_EQ(sess.stats.hwAccepted, 1u);
    EXPECT_EQ(sess.stats.hwErrors, 1u);
    EXPECT_EQ(sess.stats.hwOk, 0u);
    EXPECT_EQ(sess.stats.fallbacks, 1u);
    EXPECT_TRUE(b.as->equal(src, dst, n));

    // The engine was released, not left wedged: the next request
    // runs on the hardware.
    b.as->fill(dst, 0, n);
    fin = false;
    serveOne(node, sess, 1, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(sess.stats.hwOk, 1u);
    EXPECT_EQ(sess.stats.fallbacks, 1u);
    EXPECT_EQ(b.exec->watchdogFires, 1u);
    EXPECT_TRUE(b.as->equal(src, dst, n));
}

TEST(Serving, PasidFaultStaysInsideTheTargetBlastRadius)
{
    ServBench b;
    dml::ServingConfig sc;
    sc.outstandingCap = 64;
    dml::ServingNode node(b.sim, *b.exec, sc);

    std::vector<dml::TenantSession *> tenants;
    for (int t = 0; t < 4; ++t)
        tenants.push_back(&b.addTenant(node));

    // Every hardware completion of tenant 2 — and only tenant 2 —
    // reports a read error.
    auto fi = std::make_unique<FaultInjector>(1);
    fi->attachClock(b.sim);
    FaultRule r;
    r.site = FaultSite::CompletionError;
    r.probability = 1.0;
    r.pasid = static_cast<std::int64_t>(tenants[2]->pasid);
    fi->addRule(r);
    b.plat.setFaultInjector(std::move(fi));

    const std::uint64_t requests = 4;
    const ArrivalMix mix = ArrivalMix::parse("poisson:rate=500");
    Latch done(b.sim, tenants.size() * requests);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        node.openLoop(*tenants[t],
                      ArrivalStream(1, t, mix.classFor(t)), requests,
                      done);
    }
    b.sim.run();

    ASSERT_TRUE(done.done());
    EXPECT_EQ(tenants[2]->stats.hwErrors, requests);
    EXPECT_EQ(tenants[2]->stats.fallbacks, requests);
    EXPECT_EQ(tenants[2]->stats.hwOk, 0u);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (t == 2)
            continue;
        EXPECT_EQ(tenants[t]->stats.hwOk, requests) << "tenant " << t;
        EXPECT_EQ(tenants[t]->stats.hwErrors, 0u) << "tenant " << t;
        EXPECT_EQ(tenants[t]->stats.fallbacks, 0u) << "tenant " << t;
    }
}

/**
 * The full ladder — admission, jittered backoff, breakers, CPU
 * fallback — on a 2-socket cluster must be bit-identical at 1 vs 4
 * worker threads, mid-overload (DESIGN.md §12).
 */
struct ServingFingerprint
{
    std::uint64_t streamHash = 0;
    std::uint64_t events = 0;
    Tick endTick = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
};

ServingFingerprint
runServingCluster(unsigned threads)
{
    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = test::smallSpr();
    cc.socket.dsaTopology =
        DsaTopology::basic(32, 2, WorkQueue::Mode::Shared);
    SocketCluster cl(cc);
    cl.enableStreamHash(true);

    struct Rig
    {
        std::unique_ptr<dml::Executor> exec;
        std::unique_ptr<dml::ServingNode> node;
        std::unique_ptr<WqAdmission> admission;
        std::unique_ptr<Latch> done;
    };
    const unsigned tenants = 16;
    const std::uint64_t requests = 6;
    std::vector<Rig> rigs(cl.socketCount());

    dml::ServingConfig sc;
    sc.maxRetries = 3;
    sc.outstandingCap = 8;
    sc.breaker.window = 8;
    sc.breaker.cooldown = fromUs(100);

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &p = cl.plat(s);
        Rig &rig = rigs[s];
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        rig.exec = std::make_unique<dml::Executor>(
            cl.domainSim(s), p.mem(), p.kernels(),
            std::vector<DsaDevice *>{&p.dsa(0)}, ec);
        rig.node = std::make_unique<dml::ServingNode>(cl.domainSim(s),
                                                      *rig.exec, sc);
        WqAdmission::Config ac;
        ac.bucket = {2000, 4};
        rig.admission = std::make_unique<WqAdmission>(ac);
        p.dsa(0).installAdmission(0, rig.admission.get());
        rig.done = std::make_unique<Latch>(
            cl.domainSim(s), (tenants / cl.socketCount()) * requests);
    }

    const ArrivalMix mix = ArrivalMix::parse(
        "bursty:rate=4000,factor=16,period=24,duty=0.25,"
        "bytes=16384");
    for (unsigned t = 0; t < tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        Platform &p = cl.plat(s);
        AddressSpace &space = p.mem().createSpace();
        const std::uint64_t bytes = mix.classFor(t).payloadBytes;
        Addr src = space.alloc(bytes);
        Addr dst = space.alloc(bytes);
        auto make = [&space, src, dst,
                     bytes](std::uint64_t) -> WorkDescriptor {
            return dml::Executor::memMove(space, dst, src, bytes);
        };
        dml::TenantSession &sess = rigs[s].node->addTenant(
            space.pasid(), p.core(t % 4), p.dsa(0), p.dsa(0).wq(0),
            make);
        rigs[s].node->openLoop(sess,
                               ArrivalStream(1, t, mix.classFor(t)),
                               requests, *rigs[s].done);
    }
    cl.run(threads);

    ServingFingerprint fp;
    fp.streamHash = cl.streamHash();
    fp.events = cl.eventsExecuted();
    fp.endTick = cl.endTick();
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        EXPECT_TRUE(rigs[s].done->done()) << "socket " << s;
        const dml::TenantStats total = rigs[s].node->aggregate();
        fp.completed += total.completed();
        fp.retries += total.retries;
        fp.fallbacks += total.fallbacks;
    }
    return fp;
}

TEST(Serving, PartitionCountInvariantMidOverload)
{
    const ServingFingerprint serial = runServingCluster(1);
    const ServingFingerprint par = runServingCluster(4);
    EXPECT_EQ(serial.streamHash, par.streamHash);
    EXPECT_EQ(serial.events, par.events);
    EXPECT_EQ(serial.endTick, par.endTick);
    EXPECT_EQ(serial.completed, par.completed);
    EXPECT_EQ(serial.retries, par.retries);
    EXPECT_EQ(serial.fallbacks, par.fallbacks);
    // The scenario is only meaningful if overload actually engaged.
    EXPECT_GT(serial.retries, 0u);
}

TEST(Serving, MiniCacheAsTenantWorkload)
{
    ServBench b;
    Dto dto(*b.exec);
    apps::MiniCache cache(b.plat, *b.as, dto, {});
    const std::uint64_t len = 16 << 10; // above the DTO threshold
    Addr in = b.as->alloc(len);
    Addr out = b.as->alloc(len);
    b.randomize(in, len, 3);

    // A cache tenant paced by a counter-based arrival stream: each
    // arrival is one set+get pair.
    const ArrivalMix mix = ArrivalMix::parse("poisson:rate=2000");
    const std::uint64_t ops = 8;
    struct Drv
    {
        static SimTask
        go(Bench &tb, apps::MiniCache &c, ArrivalStream arr,
           std::uint64_t n, Addr src, Addr dst, std::uint64_t vlen,
           std::uint64_t &hits, bool &fin)
        {
            Tick at = tb.sim.now();
            for (std::uint64_t k = 0; k < n; ++k) {
                at += arr.interarrival(k);
                co_await tb.sim.delayUntil(at);
                co_await c.set(tb.plat.core(0), k, src, vlen);
                bool hit = false;
                std::uint64_t got = 0;
                co_await c.get(tb.plat.core(0), k, dst, got, hit);
                hits += hit && got == vlen;
            }
            fin = true;
        }
    };
    std::uint64_t hits = 0;
    bool fin = false;
    Drv::go(b, cache, ArrivalStream(1, 0, mix.classFor(0)), ops, in,
            out, len, hits, fin);
    b.sim.run();

    ASSERT_TRUE(fin);
    EXPECT_EQ(hits, ops);
    EXPECT_EQ(cache.sets(), ops);
    EXPECT_EQ(cache.lookups(), ops);
    EXPECT_EQ(cache.hits(), ops);
    EXPECT_EQ(cache.bytesCopied(), 2 * ops * len);
    EXPECT_TRUE(b.as->equal(in, out, len));
}

} // namespace
} // namespace dsasim
