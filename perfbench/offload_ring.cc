/**
 * @file
 * offload-ring: one submitter core keeps 32 descriptors outstanding
 * on one SPR DSA (one 32-entry DWQ, four engines), cycling through a
 * seeded ring that mixes memmove (cache control on and off), fill,
 * compare, CRC32, copy-with-CRC and DIF-insert. Sizes are
 * log-uniform from 256 B to 1 MiB, stratified per opcode so every
 * seed offers the same byte mix. The LLC is flushed at the start of
 * every pass, so sources are cold (the paper's §4.1 method). One op
 * is one descriptor.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "dml/dml.hh"
#include "driver/platform.hh"
#include "ops/dif.hh"
#include "sim/random.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dsasim;

constexpr unsigned kindCount = 7;
constexpr std::size_t perKind = 64;
constexpr std::size_t ringSlots = kindCount * perKind;
constexpr unsigned depth = 32;
constexpr std::uint32_t difBlock = 512;
/** Measured passes per requested host second (sized so a pass takes
 *  about 1/passesPerSecond s on a 4-vCPU Xeon virtual machine). */
constexpr double passesPerSecond = 28.0;
/** Simulated time per Simulation::runUntil slice. */
const Tick slice = fromUs(250);

enum class Kind : std::uint8_t
{
    MoveCc,
    MoveNoCc,
    Fill,
    Compare,
    Crc,
    CopyCrc,
    DifInsert,
};

struct Slot
{
    Kind kind = Kind::MoveCc;
    std::uint64_t size = 0; ///< data bytes
    Addr src = 0, src2 = 0, dst = 0;
    std::uint64_t pattern = 0;
    std::uint16_t appTag = 0;
    std::uint32_t refTag = 0;
    bool mismatch = false;      ///< compare: src2 differs
    std::uint64_t mismatchAt = 0;

    /// @name Completion tallies (every pass must agree).
    /// @{
    bool seen = false;
    std::uint32_t crc = 0;
    std::uint32_t result = 0;
    std::uint64_t bad = 0;
    /// @}
};

std::uint64_t
dstBytes(const Slot &s)
{
    switch (s.kind) {
      case Kind::DifInsert:
        return s.size / difBlock * (difBlock + difTupleBytes);
      case Kind::Compare:
      case Kind::Crc:
        return 0;
      default:
        return s.size;
    }
}

/** Bytes the device reads per completion (compare: both sources). */
std::uint64_t
readBytes(const Slot &s)
{
    switch (s.kind) {
      case Kind::Fill: return 0;
      case Kind::Compare:
        return 2 * (s.mismatch ? s.mismatchAt : s.size);
      default: return s.size;
    }
}

/** The descriptor factory call for one ring slot. */
WorkDescriptor
makeDesc(AddressSpace &as, const Slot &s)
{
    switch (s.kind) {
      case Kind::MoveCc:
        return dml::Executor::memMove(as, s.dst, s.src, s.size);
      case Kind::MoveNoCc: {
        WorkDescriptor d =
            dml::Executor::memMove(as, s.dst, s.src, s.size);
        d.flags &= ~descflags::cacheControl;
        return d;
      }
      case Kind::Fill:
        return dml::Executor::fill(as, s.dst, s.pattern, s.size);
      case Kind::Compare:
        return dml::Executor::compare(as, s.src, s.src2, s.size);
      case Kind::Crc:
        return dml::Executor::crc32(as, s.src, s.size);
      case Kind::CopyCrc:
        return dml::Executor::copyCrc(as, s.dst, s.src, s.size);
      case Kind::DifInsert:
        return dml::Executor::difInsert(as, s.src, s.dst, difBlock,
                                        s.size, s.appTag, s.refTag);
    }
    return {};
}

/**
 * The seeded ring: perKind slots per opcode with sizes drawn one per
 * log-uniform stratum, then shuffled.
 */
std::vector<Slot>
buildRing(std::uint64_t seed)
{
    Rng rng(seed, 0x6f66666c6f6164ULL);
    std::vector<Slot> ring;
    for (unsigned k = 0; k < kindCount; ++k) {
        for (std::size_t j = 0; j < perKind; ++j) {
            Slot s;
            s.kind = static_cast<Kind>(k);
            const double u =
                (static_cast<double>(j) + rng.uniform()) / perKind;
            const auto bytes =
                static_cast<std::uint64_t>(256.0 * std::pow(4096.0, u));
            const std::uint64_t unit =
                s.kind == Kind::DifInsert ? difBlock : 64;
            s.size = std::max(unit, (bytes + unit - 1) / unit * unit);
            s.pattern = rng.next64() | 0x0101010101010101ULL;
            s.appTag = static_cast<std::uint16_t>(rng.next32());
            s.refTag = rng.next32();
            s.mismatch = s.kind == Kind::Compare && j % 2 == 1;
            s.mismatchAt = s.mismatch ? rng.range(0, s.size - 1) : 0;
            ring.push_back(s);
        }
    }
    for (std::size_t i = ring.size() - 1; i > 0; --i)
        std::swap(ring[i], ring[rng.range(0, i)]);
    return ring;
}

struct Rig
{
    Simulation sim;
    std::unique_ptr<Platform> plat;
    AddressSpace *as = nullptr;
    std::unique_ptr<dml::Executor> exec;
    std::vector<Slot> ring;
    std::uint64_t readBytesPerPass = 0;
};

struct Loop
{
    std::uint64_t total = 0;
    bool done = false;
    Tick endTick = 0;
    std::uint64_t completed = 0;
    std::uint64_t bytes = 0;
    std::uint64_t crcBytes = 0;
    std::uint64_t prepareCalls = 0;
    /** LLC miss-byte tally at the start of each pass and at the end. */
    std::vector<std::uint64_t> passMiss;
};

SimTask
harvest(std::unique_ptr<dml::Job> job, Slot &s, Semaphore &window,
        Latch &all, Loop &lp)
{
    if (!job->cr.isDone())
        co_await job->cr.done.wait();
    const CompletionRecord &cr = job->cr;
    const std::uint64_t want =
        s.kind == Kind::Compare && s.mismatch ? s.mismatchAt : s.size;
    bool ok = cr.status == CompletionRecord::Status::Success &&
              cr.bytesCompleted == want;
    if (s.kind == Kind::Compare)
        ok = ok && cr.result == (s.mismatch ? 1u : 0u);
    if (s.seen)
        ok = ok && cr.crc == s.crc && cr.result == s.result;
    s.seen = true;
    s.crc = cr.crc;
    s.result = cr.result;
    if (!ok)
        ++s.bad;
    ++lp.completed;
    lp.bytes += s.size;
    if (s.kind == Kind::Crc || s.kind == Kind::CopyCrc)
        lp.crcBytes += s.size;
    window.release();
    all.arrive();
}

/** The closed loop: @p lp.total submissions, depth outstanding. */
SimTask
ringLoop(Rig &rig, Tracer &tr, Loop &lp)
{
    Core &core = rig.plat->core(0);
    CacheModel &llc = rig.plat->mem().cache();
    Semaphore window(rig.sim, depth);
    Latch all(rig.sim, lp.total);
    for (std::uint64_t i = 0; i < lp.total; ++i) {
        Slot &s = rig.ring[i % rig.ring.size()];
        if (i % rig.ring.size() == 0) {
            lp.passMiss.push_back(llc.missBytesTotal());
            llc.invalidateAll();
        }
        co_await window.acquire();
        std::unique_ptr<dml::Job> job;
        {
            Tracer::Span sp(tr, Layer::Dml, "factory+prepare");
            job = rig.exec->prepare(makeDesc(*rig.as, s));
        }
        ++lp.prepareCalls;
        co_await rig.exec->submit(core, *job);
        harvest(std::move(job), s, window, all, lp);
    }
    co_await all.wait();
    lp.passMiss.push_back(llc.missBytesTotal());
    lp.endTick = rig.sim.now();
    lp.done = true;
}

/** Run @p passes over the ring to completion in runUntil slices. */
Loop
runPasses(Rig &rig, Tracer &tr, std::uint64_t passes, const char *what,
          Laps *laps)
{
    Loop lp;
    lp.total = passes * rig.ring.size();
    ringLoop(rig, tr, lp);
    while (!lp.done) {
        {
            Tracer::Span sp(tr, Layer::Sim, what);
            rig.sim.runUntil(rig.sim.now() + slice);
        }
        if (laps)
            laps->mark(lp.completed);
    }
    return lp;
}

class OffloadRing : public Workload
{
  public:
    OffloadRing(const Options &o, Tracer &t)
        : opt(o), tr(t),
          passes(std::max<std::uint64_t>(
              2, static_cast<std::uint64_t>(
                     std::llround(o.seconds * passesPerSecond))))
    {}

    void
    setUp() override
    {
        rig = std::make_unique<Rig>();
        rig->sim.enableStreamHash(true);
        {
            Tracer::Span sp(tr, Layer::Driver, "build");
            PlatformConfig cfg = PlatformConfig::spr();
            cfg.numDsaDevices = 1;
            cfg.dsaTopology =
                DsaTopology::basic(32, 4, WorkQueue::Mode::Dedicated);
            rig->plat = std::make_unique<Platform>(rig->sim, cfg);
            dml::ExecutorConfig ec;
            ec.path = dml::Path::Hardware;
            rig->exec = std::make_unique<dml::Executor>(
                rig->sim, rig->plat->mem(), rig->plat->kernels(),
                std::vector<DsaDevice *>{&rig->plat->dsa(0)}, ec);
        }
        {
            Tracer::Span sp(tr, Layer::Mem, "space_setup");
            AddressSpace &as = rig->plat->mem().createSpace();
            rig->as = &as;
            rig->ring = buildRing(opt.seed);
            std::uint64_t k = opt.seed * ringSlots;
            for (Slot &s : rig->ring) {
                if (s.kind != Kind::Fill) {
                    s.src = as.alloc(s.size);
                    seedBytes(as, s.src, s.size, ++k);
                }
                if (s.kind == Kind::Compare) {
                    s.src2 = as.alloc(s.size);
                    as.copy(s.src2, s.src, s.size);
                    if (s.mismatch) {
                        const std::uint8_t b =
                            as.byteAt(s.src + s.mismatchAt) ^ 0x02;
                        as.write(s.src2 + s.mismatchAt, &b, 1);
                    }
                }
                if (dstBytes(s))
                    s.dst = as.alloc(dstBytes(s));
                rig->readBytesPerPass += readBytes(s);
            }
        }
        // Warm-up: one full pass, then poison every destination so
        // the final check sees only what the measured passes wrote.
        runPasses(*rig, tr, 1, "warmup", nullptr);
        Tracer::Span sp(tr, Layer::Mem, "poison");
        for (const Slot &s : rig->ring)
            if (s.dst)
                rig->as->fill(s.dst, 0xa5, dstBytes(s));
    }

    std::uint64_t
    fingerprint() override
    {
        return rig->sim.streamHash() ^ rig->sim.eventsExecuted();
    }

    void
    beforeMeasure() override
    {
        before = counters(rig->sim.stats());
        events0 = rig->sim.eventsExecuted();
        tick0 = rig->sim.now();
        atc0 = atcLookups();
    }

    std::uint64_t
    measure(Laps &laps) override
    {
        lp = runPasses(*rig, tr, passes, "run", &laps);
        return lp.completed;
    }

    void
    report(Result &res) override
    {
        res.events = rig->sim.eventsExecuted() - events0;
        res.registryDelta = delta(before, counters(rig->sim.stats()));
        RefCrc crc;
        const std::uint64_t badSlots = verify(crc);

        // Mechanism: with the LLC flushed per pass, each pass's
        // device reads must miss (device reads never allocate, so a
        // pass that hit would mean the sources stayed cached).
        bool cold = lp.passMiss.size() == passes + 1;
        for (std::size_t p = 0; cold && p + 1 < lp.passMiss.size(); ++p)
            cold = lp.passMiss[p + 1] - lp.passMiss[p] >=
                   rig->readBytesPerPass / 2;
        res.check("sources_miss_llc_every_pass", cold);
        res.check("all_completed", lp.completed == lp.total);

        res.attempted = lp.total;
        res.failed = (lp.total - lp.completed) + badSlots;
        res.exactU("ops", lp.completed);
        res.exactU("passes", passes);
        res.exactU("sim.events", res.events);
        res.exactU("model.stream_hash", rig->sim.streamHash());
        res.exactU("model.end_tick", lp.endTick);
        res.exactU("dml.prepare_calls", lp.prepareCalls);
        res.exactU("ops.crc_bytes", lp.crcBytes);
        res.exactU("bytes", lp.bytes);
        reportRegistryCounts(res, res.registryDelta,
                             atcLookups() - atc0);
        res.layer("dml.prepare_calls",
                  static_cast<double>(lp.prepareCalls));
        res.layer("ops.crc_bytes", static_cast<double>(lp.crcBytes));
        res.layer("sim.events", static_cast<double>(res.events));
        res.layer("model.end_us", toUs(lp.endTick));
        res.layer("model.device_gbps", static_cast<double>(lp.bytes) /
                                           toNs(lp.endTick - tick0));
        res.layer("ops.crc32c_gbps", crc.gbps());
    }

    void tearDown() override { rig.reset(); }

  private:
    std::uint64_t
    atcLookups()
    {
        TranslationCache &atc = rig->plat->dsa(0).atc();
        return atc.hits() + atc.misses();
    }

    /** Final state of every slot against the ops reference. */
    std::uint64_t
    verify(RefCrc &crc)
    {
        std::uint64_t bad = 0;
        AddressSpace &as = *rig->as;
        std::vector<std::uint8_t> src, dst, want;
        for (const Slot &s : rig->ring) {
            bool ok = s.bad == 0 && s.seen;
            if (s.src) {
                src.resize(s.size);
                as.read(s.src, src.data(), s.size);
            }
            const std::uint64_t nd = dstBytes(s);
            if (nd) {
                dst.resize(nd);
                as.read(s.dst, dst.data(), nd);
            }
            switch (s.kind) {
              case Kind::MoveCc:
              case Kind::MoveNoCc:
                ok = ok && dst == src;
                break;
              case Kind::CopyCrc:
                ok = ok && dst == src && s.crc == crc(src, tr);
                break;
              case Kind::Crc:
                ok = ok && s.crc == crc(src, tr);
                break;
              case Kind::Fill:
                for (std::uint64_t i = 0; ok && i < nd; ++i)
                    ok = dst[i] == static_cast<std::uint8_t>(
                                       s.pattern >> (8 * (i % 8)));
                break;
              case Kind::Compare:
                ok = ok && s.result == (s.mismatch ? 1u : 0u);
                break;
              case Kind::DifInsert: {
                Tracer::Span sp(tr, Layer::Ops, "difInsert");
                want.assign(nd, 0);
                difInsert(src.data(), want.data(), difBlock,
                          s.size / difBlock, s.appTag, s.refTag);
                ok = ok && dst == want;
                break;
              }
            }
            if (!ok)
                ++bad;
        }
        return bad;
    }

    const Options &opt;
    Tracer &tr;
    const std::uint64_t passes;
    std::unique_ptr<Rig> rig;
    Loop lp;
    CounterMap before;
    std::uint64_t events0 = 0;
    std::uint64_t atc0 = 0;
    Tick tick0 = 0;
};

} // namespace

std::unique_ptr<Workload>
makeOffloadRing(const Options &o, Tracer &tr)
{
    return std::make_unique<OffloadRing>(o, tr);
}

} // namespace perfbench
