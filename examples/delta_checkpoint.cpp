/**
 * @file
 * Example: incremental checkpointing with Create/Apply Delta Record.
 *
 * A VM-live-migration-style loop: a "guest" keeps dirtying a memory
 * image while a checkpointer periodically captures the difference
 * against the last checkpoint. Instead of copying the whole image,
 * the checkpointer asks DSA for a delta record per block (Table 1's
 * Create Delta Record) and ships only the record; the destination
 * applies it (Apply Delta Record) to reconstruct the image.
 *
 * Shows: delta ops through the public API, the record-overflow
 * fallback (blocks that changed too much are sent as full copies),
 * and an end-to-end integrity check of the reconstructed image.
 *
 * Build & run:  ./build/examples/delta_checkpoint
 */

#include <cstdio>

#include "dml/dml.hh"
#include "driver/platform.hh"
#include "ops/delta.hh"
#include "sim/random.hh"

using namespace dsasim;

namespace
{

constexpr std::uint64_t blockBytes = 64 << 10;
constexpr int blocks = 64; // 4 MB image
constexpr int rounds = 5;

SimTask
checkpointLoop(Simulation &sim, Platform &plat, dml::Executor &exec,
               AddressSpace &as)
{
    Core &core = plat.core(0);
    Rng rng(11);

    const std::uint64_t image_bytes = blockBytes * blocks;
    Addr image = as.alloc(image_bytes);     // live image (source VM)
    Addr shadow = as.alloc(image_bytes);    // last checkpoint (src)
    Addr replica = as.alloc(image_bytes);   // destination VM
    Addr record = as.alloc(2 * blockBytes); // per-block delta record
    const std::uint64_t max_record = blockBytes / 4; // ship budget

    // Initial full copy: image -> shadow and -> replica.
    {
        std::vector<std::uint8_t> init(image_bytes);
        Rng r(1);
        for (auto &b : init)
            b = static_cast<std::uint8_t>(r.next32());
        as.write(image, init.data(), image_bytes);
        dml::OpResult res;
        co_await exec.executeHardware(
            core, dml::Executor::memMove(as, shadow, image,
                                         image_bytes), res);
        co_await exec.executeHardware(
            core, dml::Executor::memMove(as, replica, image,
                                         image_bytes), res);
    }

    std::uint64_t shipped_delta = 0, shipped_full = 0;
    for (int round = 0; round < rounds; ++round) {
        // Guest dirties: a few blocks lightly, one block heavily.
        for (int k = 0; k < 6; ++k) {
            Addr at = image + rng.below(blocks) * blockBytes +
                      rng.below(blockBytes / 8) * 8;
            std::uint64_t v = rng.next64();
            as.write(at, &v, 8);
        }
        {
            Addr heavy = image + rng.below(blocks) * blockBytes;
            std::vector<std::uint8_t> junk(blockBytes);
            Rng r(200 + static_cast<std::uint64_t>(round));
            for (auto &b : junk)
                b = static_cast<std::uint8_t>(r.next32());
            as.write(heavy, junk.data(), junk.size());
        }

        // Checkpoint pass: per block, create a delta vs the shadow.
        for (int blk = 0; blk < blocks; ++blk) {
            Addr img = image + static_cast<Addr>(blk) * blockBytes;
            Addr shd = shadow + static_cast<Addr>(blk) * blockBytes;
            Addr rep = replica + static_cast<Addr>(blk) * blockBytes;

            dml::OpResult cr;
            co_await exec.executeHardware(
                core,
                dml::Executor::createDelta(as, shd, img, blockBytes,
                                           record, max_record),
                cr);
            if (cr.recordBytes == 0 && cr.ok)
                continue; // clean block

            if (cr.recordFits) {
                // Ship + apply the delta on the replica, and update
                // the shadow the same way.
                shipped_delta += cr.recordBytes;
                dml::OpResult ar;
                co_await exec.executeHardware(
                    core,
                    dml::Executor::applyDelta(as, rep, record,
                                              cr.recordBytes,
                                              blockBytes), ar);
                co_await exec.executeHardware(
                    core,
                    dml::Executor::applyDelta(as, shd, record,
                                              cr.recordBytes,
                                              blockBytes), ar);
            } else {
                // Too dirty: full block copy fallback.
                shipped_full += blockBytes;
                dml::OpResult mr;
                co_await exec.executeHardware(
                    core, dml::Executor::memMove(as, rep, img,
                                                 blockBytes), mr);
                co_await exec.executeHardware(
                    core, dml::Executor::memMove(as, shd, img,
                                                 blockBytes), mr);
            }
        }

        bool ok = as.equal(image, replica, image_bytes);
        std::printf("  round %d: replica %s | shipped %6.1f KB as "
                    "deltas + %5.1f KB full blocks (vs %u KB naive)\n",
                    round, ok ? "in sync" : "DIVERGED",
                    static_cast<double>(shipped_delta) / 1024.0,
                    static_cast<double>(shipped_full) / 1024.0,
                    static_cast<unsigned>(image_bytes / 1024));
        shipped_delta = shipped_full = 0;
    }
    std::printf("checkpointing finished at t=%.2f ms\n",
                toUs(sim.now()) / 1000.0);
}

} // namespace

int
main()
{
    Simulation sim;
    Platform plat(sim, PlatformConfig::spr());
    DsaTopology::basic(32, 2).apply(plat.dsa(0));
    AddressSpace &as = plat.mem().createSpace();
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(sim, plat.mem(), plat.kernels(),
                       {&plat.dsa(0)}, ec);

    std::printf("Incremental delta-record checkpointing of a 4MB "
                "image (%d rounds):\n", rounds);
    checkpointLoop(sim, plat, exec, as);
    sim.run();
    return 0;
}
