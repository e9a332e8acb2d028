#include "ops/span_kernels.hh"

#include <algorithm>
#include <cstring>

#include "ops/crc32.hh"

namespace dsasim
{

namespace
{

/** Zero source for comparing never-written (sparse) spans. */
constexpr std::uint64_t zeroBytes = 1ull << 16;
alignas(64) const std::uint8_t kZeros[zeroBytes] = {};

using ConstSpan = AddressSpace::ConstSpan;

/** Offset of the first differing byte, or @p n when equal. */
std::uint64_t
firstDiff(const std::uint8_t *a, const std::uint8_t *b,
          std::uint64_t n)
{
    constexpr std::uint64_t blk = 4096;
    for (std::uint64_t off = 0; off < n; off += blk) {
        std::uint64_t run = std::min(blk, n - off);
        if (std::memcmp(a + off, b + off, run) != 0) {
            for (std::uint64_t i = 0; i < run; ++i) {
                if (a[off + i] != b[off + i])
                    return off + i;
            }
        }
    }
    return n;
}

/** Offset of the first non-zero byte, or @p n when all zero. */
std::uint64_t
firstNonZero(const std::uint8_t *p, std::uint64_t n)
{
    for (std::uint64_t off = 0; off < n; off += zeroBytes) {
        std::uint64_t run = std::min(n - off, zeroBytes);
        if (std::memcmp(p + off, kZeros, run) != 0) {
            for (std::uint64_t i = 0; i < run; ++i) {
                if (p[off + i])
                    return off + i;
            }
        }
    }
    return n;
}

} // namespace

std::uint32_t
spanCrc(const AddressSpace &as, Addr src, std::uint64_t len,
        std::uint32_t crc)
{
    as.forEachConstSpan(src, len, "read", [&](ConstSpan s) {
        crc = s.ptr ? crc32c(s.ptr, s.len, crc) : crc32cShift(crc, s.len);
    });
    return crc;
}

std::uint32_t
spanCopyCrc(AddressSpace &as, Addr dst, Addr src, std::uint64_t len,
            std::uint32_t crc)
{
    // write()/fill() resolve the destination spans themselves, so
    // each source span moves with a single memcpy/memset — no
    // staging buffer.
    std::uint64_t off = 0;
    as.forEachConstSpan(src, len, "read", [&](ConstSpan s) {
        if (s.ptr) {
            crc = crc32c(s.ptr, s.len, crc);
            as.write(dst + off, s.ptr, s.len);
        } else {
            crc = crc32cShift(crc, s.len);
            as.fill(dst + off, 0, s.len);
        }
        off += s.len;
    });
    return crc;
}

void
spanFillPattern(AddressSpace &as, Addr dst, std::uint64_t len,
                std::uint64_t lo, std::uint64_t hi, unsigned pat_bytes)
{
    // Byte i carries pattern byte i % pat_bytes, which is byte
    // i % 16 of the pattern's 16-byte period.
    std::uint8_t period[16];
    std::memcpy(period, &lo, 8);
    std::memcpy(period + 8, pat_bytes == 8 ? &lo : &hi, 8);
    as.fillPeriodic(dst, period, len);
}

std::uint64_t
spanCompare(const AddressSpace &as, Addr a, Addr b, std::uint64_t len)
{
    // One run-at-a-time cursor per range: the unconsumed part of the
    // current run.
    ConstSpan sa, sb;
    for (std::uint64_t off = 0; off < len;) {
        if (sa.len == 0)
            sa = as.constSpanRun(a + off, len - off, "read");
        if (sb.len == 0)
            sb = as.constSpanRun(b + off, len - off, "read");
        const std::uint64_t run = std::min(sa.len, sb.len);
        std::uint64_t d;
        if (sa.ptr && sb.ptr)
            d = firstDiff(sa.ptr, sb.ptr, run);
        else if (sa.ptr)
            d = firstNonZero(sa.ptr, run);
        else if (sb.ptr)
            d = firstNonZero(sb.ptr, run);
        else
            d = run; // both never written: equal zeroes
        if (d < run)
            return off + d;
        off += run;
        for (ConstSpan *s : {&sa, &sb}) {
            s->len -= run;
            if (s->ptr)
                s->ptr += run;
        }
    }
    return len;
}

std::uint64_t
spanComparePattern(const AddressSpace &as, Addr a, std::uint64_t len,
                   std::uint64_t pattern)
{
    if (len == 0)
        return 0;
    std::uint8_t pat[8];
    std::memcpy(pat, &pattern, 8);
    // Pre-expanded tile so runs compare with memcmp at any phase.
    constexpr std::uint64_t tileBytes = 4096;
    alignas(8) std::uint8_t tile[tileBytes];
    std::memcpy(tile, pat, 8);
    for (std::uint64_t filled = 8; filled < tileBytes; filled *= 2)
        std::memcpy(tile + filled,
                    tile, std::min(filled, tileBytes - filled));

    for (std::uint64_t off = 0; off < len;) {
        const ConstSpan s = as.constSpanRun(a + off, len - off, "read");
        const unsigned phase = static_cast<unsigned>(off % 8);
        if (!s.ptr) {
            // Zeroes mismatch a non-zero pattern within 8 bytes.
            std::uint64_t lim = std::min<std::uint64_t>(s.len, 8);
            for (std::uint64_t i = 0; i < lim; ++i) {
                if (pat[(phase + i) & 7] != 0)
                    return off + i;
            }
        } else {
            std::uint64_t done = 0;
            while (done < s.len) {
                unsigned ph =
                    static_cast<unsigned>((phase + done) & 7);
                std::uint64_t run =
                    std::min(s.len - done, tileBytes - ph);
                if (std::memcmp(s.ptr + done, tile + ph, run) != 0) {
                    for (std::uint64_t i = 0; i < run; ++i) {
                        if (s.ptr[done + i] != tile[ph + i])
                            return off + done + i;
                    }
                }
                done += run;
            }
        }
        off += s.len;
    }
    return len;
}

} // namespace dsasim
