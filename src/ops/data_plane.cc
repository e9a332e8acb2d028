#include "ops/data_plane.hh"

#include <algorithm>

#include "mem/address_space.hh"
#include "ops/crc32.hh"
#include "ops/delta.hh"
#include "ops/dif.hh"
#include "ops/span_kernels.hh"

namespace dsasim
{

namespace
{

constexpr std::size_t scratchChunk = 256 * 1024;

/** Grow @p buf to at least @p n bytes without re-zeroing. */
std::uint8_t *
ensure(std::vector<std::uint8_t> &buf, std::uint64_t n)
{
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

bool
isDif(Opcode op)
{
    return op == Opcode::DifInsert || op == Opcode::DifCheck ||
           op == Opcode::DifStrip || op == Opcode::DifUpdate;
}

/**
 * Forward chunked copy of @p n bytes from @p src to @p dst (and
 * @p dst2 unless 0) through the scratch buffer, folding the data
 * into @p crc when given: the order aliased copies observe.
 */
void
stagedCopy(AddressSpace &as, OpScratch &sc, Addr dst, Addr dst2,
           Addr src, std::uint64_t n, std::uint32_t *crc)
{
    std::uint8_t *buf =
        ensure(sc.a, std::min<std::uint64_t>(n, scratchChunk));
    for (std::uint64_t off = 0; off < n; off += scratchChunk) {
        std::uint64_t run =
            std::min<std::uint64_t>(scratchChunk, n - off);
        as.read(src + off, buf, run);
        if (crc)
            *crc = crc32c(buf, run, *crc);
        as.write(dst + off, buf, run);
        if (dst2)
            as.write(dst2 + off, buf, run);
    }
}

/** A read-only view of @p n bytes at @p va, staged if scattered. */
const std::uint8_t *
viewOf(AddressSpace &as, std::vector<std::uint8_t> &buf, Addr va,
       std::uint64_t n)
{
    const std::uint8_t *p = as.contiguousConst(va, n, "read");
    if (!p && n) {
        as.read(va, ensure(buf, n), n);
        p = buf.data();
    }
    return p;
}

/**
 * Run one DIF opcode over @p n whole blocks from block @p b, in place
 * of @p n one-block calls: the same bytes, result and failing block.
 * A failed update writes the blocks before the failing one only.
 */
DifCheckResult
difBlocks(const OpArgs &a, const std::uint8_t *in, std::uint8_t *out,
          std::uint64_t b, std::uint64_t n)
{
    const std::uint64_t blk = a.difBlockBytes;
    const auto tag32 = static_cast<std::uint32_t>(b);
    DifCheckResult chk;
    switch (a.op) {
      case Opcode::DifInsert:
        difInsert(in, out, blk, n, a.appTag, a.refTag + tag32);
        break;
      case Opcode::DifStrip:
        difStrip(in, out, blk, n);
        break;
      case Opcode::DifCheck:
        chk = difCheck(in, blk, n, a.appTag, a.refTag + tag32);
        break;
      default:
        chk = difUpdate(in, out, blk, n, a.appTag, a.refTag + tag32,
                        a.newAppTag, a.newRefTag + tag32);
        if (!chk.ok && chk.failedBlock > 0) {
            difUpdate(in, out, blk, chk.failedBlock, a.appTag,
                      a.refTag + tag32, a.newAppTag,
                      a.newRefTag + tag32);
        }
        break;
    }
    if (!chk.ok)
        chk.failedBlock += b;
    return chk;
}

void
runDif(AddressSpace &as, const OpArgs &a, std::uint64_t eff_size,
       OpScratch &sc, OpOutcome &out)
{
    const std::uint64_t blk = a.difBlockBytes;
    const std::uint64_t eff_blocks = eff_size / blk;
    const DifUnits u = difUnits(a);
    const bool has_dst = a.op != Opcode::DifCheck;
    // Whole blocks run directly on backing, one call per run of
    // blocks that is host-contiguous on both sides, unless the source
    // and destination ranges alias: then later reads must observe
    // earlier writes in block order, which staging one block at a
    // time reproduces.
    const bool aliased = has_dst &&
        rangesOverlap(a.src, eff_blocks * u.in, a.dst,
                      eff_blocks * u.out);
    std::uint8_t *in_buf = ensure(sc.a, u.in);
    std::uint8_t *out_buf = ensure(sc.b, u.out);
    DifCheckResult chk;
    for (std::uint64_t b = 0, n = 0; b < eff_blocks && chk.ok; b += n) {
        const Addr src_va = a.src + b * u.in;
        const Addr dst_va = a.dst + b * u.out;
        n = 0;
        if (!aliased) {
            const AddressSpace::ConstSpan in = as.constSpanRun(
                src_va, (eff_blocks - b) * u.in, "read");
            n = in.ptr ? in.len / u.in : 0;
            std::uint8_t *outp = nullptr;
            if (n && has_dst) {
                const AddressSpace::Span o =
                    as.spanRun(dst_va, n * u.out, "write");
                n = std::min(n, o.len / u.out);
                outp = o.ptr;
            }
            if (n)
                chk = difBlocks(a, in.ptr, outp, b, n);
        }
        if (n == 0) {
            // A block that straddles a run boundary or reads
            // never-written memory; an update that fails its check
            // leaves the block's destination untouched.
            n = 1;
            as.read(src_va, in_buf, u.in);
            chk = difBlocks(a, in_buf, out_buf, b, 1);
            if (has_dst && chk.ok)
                as.write(dst_va, out_buf, u.out);
        }
    }
    if (!chk.ok) {
        out.result = 1;
        out.bytesCompleted = chk.failedBlock * blk;
    } else {
        out.bytesCompleted = eff_blocks * blk;
    }
}

} // namespace

bool
opArgsValid(const OpArgs &a)
{
    switch (a.op) {
      case Opcode::Fill:
      case Opcode::ComparePattern:
        return a.patternBytes == 8 || a.patternBytes == 16;
      case Opcode::CreateDelta:
        return a.size % deltaWordBytes == 0 &&
               a.size <= deltaMaxInputBytes;
      case Opcode::ApplyDelta:
        return a.size % deltaWordBytes == 0 &&
               a.recordBytes % deltaEntryBytes == 0;
      case Opcode::DifCheck:
      case Opcode::DifInsert:
      case Opcode::DifStrip:
      case Opcode::DifUpdate:
        return difBlockSizeValid(a.difBlockBytes) &&
               a.size % a.difBlockBytes == 0;
      default:
        return true;
    }
}

DifUnits
difUnits(const OpArgs &a)
{
    const std::uint64_t blk = a.difBlockBytes;
    return {a.op == Opcode::DifInsert ? blk : blk + difTupleBytes,
            a.op == Opcode::DifStrip ? blk : blk + difTupleBytes};
}

OpStreams
streamsOf(const OpArgs &a)
{
    OpStreams s;
    if (isDif(a.op)) {
        const std::uint64_t nblocks = a.size / a.difBlockBytes;
        const DifUnits u = difUnits(a);
        s.push_back({a.src, nblocks * u.in, false});
        if (a.op != Opcode::DifCheck)
            s.push_back({a.dst, nblocks * u.out, true});
        return s;
    }
    switch (a.op) {
      case Opcode::Memmove:
      case Opcode::CopyCrc:
        s.push_back({a.src, a.size, false});
        s.push_back({a.dst, a.size, true});
        break;
      case Opcode::Fill:
        s.push_back({a.dst, a.size, true});
        break;
      case Opcode::Compare:
      case Opcode::CreateDelta:
        s.push_back({a.src, a.size, false});
        s.push_back({a.src2, a.size, false});
        break;
      case Opcode::ComparePattern:
      case Opcode::CrcGen:
        s.push_back({a.src, a.size, false});
        break;
      case Opcode::ApplyDelta:
        s.push_back({a.src, a.recordBytes, false});
        s.push_back({a.dst, a.size, true});
        break;
      case Opcode::Dualcast:
        s.push_back({a.src, a.size, false});
        s.push_back({a.dst, a.size, true});
        s.push_back({a.dst2, a.size, true});
        break;
      case Opcode::CacheFlush:
        s.push_back({a.src ? a.src : a.dst, a.size, false});
        break;
      default:
        break;
    }
    return s;
}

OpOutcome
runOp(AddressSpace &as, const OpArgs &a, std::uint64_t eff_size,
      bool partial, OpScratch &scratch)
{
    OpOutcome out;
    out.status = OpStatus::Success;
    out.bytesCompleted = eff_size;
    switch (a.op) {
      case Opcode::Memmove:
        // copy() has memmove semantics for overlapping ranges.
        as.copy(a.dst, a.src, eff_size);
        break;
      case Opcode::CopyCrc: {
        std::uint32_t crc = a.crcSeed;
        if (!rangesOverlap(a.src, eff_size, a.dst, eff_size))
            crc = spanCopyCrc(as, a.dst, a.src, eff_size, crc);
        else
            stagedCopy(as, scratch, a.dst, 0, a.src, eff_size, &crc);
        out.crc = crc32cFinish(crc);
        break;
      }
      case Opcode::Dualcast:
        if (!rangesOverlap(a.src, eff_size, a.dst, eff_size) &&
            !rangesOverlap(a.src, eff_size, a.dst2, eff_size) &&
            !rangesOverlap(a.dst, eff_size, a.dst2, eff_size)) {
            as.copy(a.dst, a.src, eff_size);
            as.copy(a.dst2, a.src, eff_size);
        } else {
            stagedCopy(as, scratch, a.dst, a.dst2, a.src, eff_size,
                       nullptr);
        }
        break;
      case Opcode::Fill:
        spanFillPattern(as, a.dst, eff_size, a.pattern, a.pattern2,
                        a.patternBytes);
        break;
      case Opcode::CrcGen:
        out.crc =
            crc32cFinish(spanCrc(as, a.src, eff_size, a.crcSeed));
        break;
      case Opcode::Compare:
      case Opcode::ComparePattern: {
        const std::uint64_t mm =
            a.op == Opcode::Compare
                ? spanCompare(as, a.src, a.src2, eff_size)
                : spanComparePattern(as, a.src, eff_size, a.pattern);
        if (mm < eff_size) {
            out.result = 1;
            out.bytesCompleted = mm;
        }
        break;
      }
      case Opcode::CreateDelta: {
        const std::uint8_t *orig =
            viewOf(as, scratch.a, a.src, eff_size);
        const std::uint8_t *mod =
            viewOf(as, scratch.b, a.src2, eff_size);
        DeltaResult dr =
            deltaCreate(orig, mod, eff_size, a.maxRecordBytes);
        if (!dr.record.empty())
            as.write(a.dst, dr.record.data(), dr.record.size());
        out.recordBytes = dr.record.size();
        out.recordFits = dr.fits;
        out.result = dr.mismatchedWords == 0 ? 0 : 1;
        break;
      }
      case Opcode::ApplyDelta: {
        const std::uint8_t *rec =
            viewOf(as, scratch.a, a.src, a.recordBytes);
        // Validated before any write so a malformed record leaves
        // the destination untouched. On a partial, entries
        // targeting the unreachable suffix are skipped (not
        // malformed) so the PageFault status and resumable
        // bytesCompleted survive.
        if (!deltaRecordValid(rec, a.recordBytes, eff_size, partial)) {
            out.status = OpStatus::Unsupported;
        } else if (eff_size > 0) {
            if (std::uint8_t *dst =
                    as.contiguous(a.dst, eff_size, "write")) {
                deltaApply(dst, eff_size, rec, a.recordBytes, partial);
            } else {
                std::uint8_t *buf = ensure(scratch.b, eff_size);
                as.read(a.dst, buf, eff_size);
                deltaApply(buf, eff_size, rec, a.recordBytes, partial);
                as.write(a.dst, buf, eff_size);
            }
        }
        break;
      }
      case Opcode::DifInsert:
      case Opcode::DifCheck:
      case Opcode::DifStrip:
      case Opcode::DifUpdate:
        runDif(as, a, eff_size, scratch, out);
        break;
      case Opcode::CacheFlush:
        // Moves no data; each path's timing model does the flush.
        break;
      default:
        out.status = OpStatus::Unsupported;
        out.bytesCompleted = 0;
        break;
    }
    return out;
}

void
settleStreams(OpStreams &streams, const OpArgs &a, const OpOutcome &out,
              std::uint64_t granule)
{
    if (a.op == Opcode::CreateDelta) {
        streams.push_back(
            {a.dst, std::max<std::uint64_t>(out.recordBytes, 1), true});
    } else if ((a.op == Opcode::Compare ||
                a.op == Opcode::ComparePattern) && out.result != 0) {
        // Early exit: only the compared prefix is streamed.
        const std::uint64_t end =
            (out.bytesCompleted / granule + 1) * granule;
        for (OpStream &s : streams)
            s.len = std::min(s.len, end);
    }
}

} // namespace dsasim
