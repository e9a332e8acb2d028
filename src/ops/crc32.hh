/**
 * @file
 * CRC-32C (Castagnoli) — the checksum DSA's CRC Generation operation
 * and ISA-L's crc32_iscsi compute — and the CRC-16 T10-DIF guard tag.
 *
 * crc32c() and crc16T10() run the fastest implementation ("arm") the
 * host supports, picked once from cpuid: on x86-64 with AVX-512 and
 * VPCLMULQDQ, 512-bit carry-less folding for both; on other x86-64
 * hosts, SSE4.2 crc32 over three interleaved lanes for CRC-32C and
 * PCLMULQDQ folding for CRC-16 T10; everywhere else, and on hosts
 * without those instructions, portable slice-by-8 tables. Every arm
 * returns the same bits, so the choice never reaches a simulated
 * result. The bit-at-a-time reference implementations are kept for
 * cross-checking in the tests; ops/crc32_arms.hh exposes each arm to
 * tests and bench_simhost.
 */

#ifndef DSASIM_OPS_CRC32_HH
#define DSASIM_OPS_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace dsasim
{

/**
 * Incremental CRC-32C over @p len bytes.
 *
 * @param seed running CRC state; pass crc32cInit for a fresh
 *        computation and chain the return value for continuations.
 *        The DSA descriptor's "CRC seed" field maps directly here.
 */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed);

constexpr std::uint32_t crc32cInit = 0xffffffffu;

/** Finalize a chained crc32c state (the standard final inversion). */
constexpr std::uint32_t
crc32cFinish(std::uint32_t state)
{
    return state ^ 0xffffffffu;
}

/** One-shot convenience: full CRC-32C of a buffer. */
inline std::uint32_t
crc32cFull(const void *data, std::size_t len)
{
    return crc32cFinish(crc32c(data, len, crc32cInit));
}

/**
 * Advance a running crc32c state over @p nbytes zero bytes without
 * reading any: state·x^(8·nbytes) mod P, in O(log nbytes).
 * crc32cShift(s, n) == crc32c(zeros, n, s) exactly.
 */
std::uint32_t crc32cShift(std::uint32_t state, std::uint64_t nbytes);

/**
 * CRC-16 T10-DIF (poly 0x8BB7, MSB-first, zero init) — the guard tag
 * of the Data Integrity Field operations.
 */
std::uint16_t crc16T10(const void *data, std::size_t len,
                       std::uint16_t seed = 0);

/**
 * Bit-at-a-time reference implementations, straight from the
 * polynomial definitions. Slow; exist so tests can verify every
 * fast arm against an independent formulation.
 */
std::uint32_t crc32cBitwise(const void *data, std::size_t len,
                            std::uint32_t seed);
std::uint16_t crc16T10Bitwise(const void *data, std::size_t len,
                              std::uint16_t seed = 0);

} // namespace dsasim

#endif // DSASIM_OPS_CRC32_HH
