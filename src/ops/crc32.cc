#include "ops/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

#include "ops/crc32_arms.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dsasim
{

namespace
{

constexpr std::uint32_t crc32cPoly = 0x82f63b78u; // reflected 0x1EDC6F41
constexpr std::uint32_t crc16Poly = 0x18bb7;      // x^16 + 0x8BB7

/**
 * Slice-by-8 tables for reflected CRC-32C.
 * t[0] is the classic byte-at-a-time table; t[k][b] is the CRC
 * contribution of byte b advanced through k additional zero bytes,
 * so eight input bytes can be folded with eight independent lookups
 * per 64-bit load.
 */
struct Crc32cTables
{
    std::uint32_t t[8][256];
};

constexpr Crc32cTables
makeCrc32cTables()
{
    Crc32cTables T{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? crc32cPoly : 0);
        T.t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            T.t[k][i] =
                (T.t[k - 1][i] >> 8) ^ T.t[0][T.t[k - 1][i] & 0xff];
    return T;
}

constexpr auto crc32cT = makeCrc32cTables();

/**
 * Slice-by-8 tables for the MSB-first T10-DIF CRC-16.
 * u[k][b] = the CRC state of byte b advanced through k+1 byte shifts;
 * table linearity over GF(2) lets the running CRC fold into the first
 * two byte lookups.
 */
struct Crc16Tables
{
    std::uint16_t u[8][256];
};

constexpr Crc16Tables
makeCrc16Tables()
{
    Crc16Tables U{};
    constexpr std::uint16_t poly = 0x8bb7;
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
        for (int bit = 0; bit < 8; ++bit) {
            crc = static_cast<std::uint16_t>(
                (crc << 1) ^ ((crc & 0x8000) ? poly : 0));
        }
        U.u[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            U.u[k][i] = static_cast<std::uint16_t>(
                (U.u[k - 1][i] << 8) ^
                U.u[0][(U.u[k - 1][i] >> 8) & 0xff]);
    return U;
}

constexpr auto crc16T = makeCrc16Tables();

/// @name GF(2) arithmetic modulo a reflected CRC-32 polynomial.
/// Reflected representation: bit 31 holds the x^0 coefficient. The
/// polynomial is a parameter only so that the fold constants below
/// can be checked against published ones for another CRC-32.
/// @{

/** a·b mod P. */
template <std::uint32_t Poly = crc32cPoly>
constexpr std::uint32_t
mulModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t prod = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            prod ^= b;
        b = (b >> 1) ^ ((b & 1) ? Poly : 0); // b *= x
    }
    return prod;
}

/** x2k<P>[k] = x^(2^k) mod P, by repeated squaring of x. */
template <std::uint32_t Poly>
constexpr auto x2k = [] {
    std::array<std::uint32_t, 67> t{};
    t[0] = 1u << 30; // x^1
    for (std::size_t k = 1; k < t.size(); ++k)
        t[k] = mulModP<Poly>(t[k - 1], t[k - 1]);
    return t;
}();

/** x^(8·n) mod P: the operator that appends n zero bytes. */
template <std::uint32_t Poly = crc32cPoly>
constexpr std::uint32_t
xPow8n(std::uint64_t n)
{
    std::uint32_t p = 1u << 31; // x^0
    for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
        if (n & 1)
            p = mulModP<Poly>(p, x2k<Poly>[k]);
    }
    return p;
}

/**
 * crc32cShift for one fixed length as four byte-indexed tables:
 * multiplication by a constant is linear in the state's bytes.
 */
struct ShiftTable
{
    std::uint32_t t[4][256];

    std::uint32_t
    operator()(std::uint32_t crc) const
    {
        return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
               t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
    }
};

constexpr ShiftTable
makeShiftTable(std::uint64_t nbytes)
{
    const std::uint32_t op = xPow8n(nbytes);
    ShiftTable s{};
    for (int k = 0; k < 4; ++k)
        for (std::uint32_t b = 0; b < 256; ++b)
            s.t[k][b] = mulModP(op, b << (8 * k));
    return s;
}

/// @}

std::uint32_t
crc32cSliceBy8(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = seed;
    const auto &t = crc32cT.t;
    if constexpr (std::endian::native == std::endian::little) {
        while (len >= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            w ^= crc;
            crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^
                  t[5][(w >> 16) & 0xff] ^ t[4][(w >> 24) & 0xff] ^
                  t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
                  t[1][(w >> 48) & 0xff] ^ t[0][(w >> 56) & 0xff];
            p += 8;
            len -= 8;
        }
    }
    while (len--)
        crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xff];
    return crc;
}

std::uint16_t
crc16T10SliceBy8(const void *data, std::size_t len, std::uint16_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint16_t crc = seed;
    const auto &u = crc16T.u;
    while (len >= 8) {
        crc = static_cast<std::uint16_t>(
            u[7][p[0] ^ (crc >> 8)] ^ u[6][p[1] ^ (crc & 0xff)] ^
            u[5][p[2]] ^ u[4][p[3]] ^ u[3][p[4]] ^ u[2][p[5]] ^
            u[1][p[6]] ^ u[0][p[7]]);
        p += 8;
        len -= 8;
    }
    while (len--) {
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ u[0][((crc >> 8) ^ *p++) & 0xff]);
    }
    return crc;
}

#if defined(__x86_64__)

/// @name SSE4.2 CRC-32C.
/// The crc32 instruction has a latency of three cycles and a
/// throughput of one, so three independent lanes keep it busy. Lane 0
/// carries the running state, lanes 1 and 2 start from zero, and
/// linearity, crc(s, A‖B) = crc32cShift(crc(s, A), |B|) ^ crc(0, B),
/// joins them: crc = shift(shift(c0) ^ c1) ^ c2 with a table for the
/// one fixed lane length.
/// @{

constexpr std::size_t longLane = 2048;
constexpr std::size_t shortLane = 128;
constexpr ShiftTable shiftLong = makeShiftTable(longLane);
constexpr ShiftTable shiftShort = makeShiftTable(shortLane);

inline std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

/** Consume whole 3×@p Lane blocks from the front of [p, p+len). */
template <std::size_t Lane>
__attribute__((target("sse4.2"))) inline std::uint32_t
crc32cLanes(const std::uint8_t *&p, std::size_t &len, std::uint32_t crc,
            const ShiftTable &shift)
{
    while (len >= 3 * Lane) {
        std::uint64_t c0 = crc, c1 = 0, c2 = 0;
        for (std::size_t i = 0; i < Lane; i += 8) {
            c0 = _mm_crc32_u64(c0, load64(p + i));
            c1 = _mm_crc32_u64(c1, load64(p + Lane + i));
            c2 = _mm_crc32_u64(c2, load64(p + 2 * Lane + i));
        }
        crc = shift(shift(static_cast<std::uint32_t>(c0)) ^
                    static_cast<std::uint32_t>(c1)) ^
              static_cast<std::uint32_t>(c2);
        p += 3 * Lane;
        len -= 3 * Lane;
    }
    return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = seed;
    while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
        crc = _mm_crc32_u8(crc, *p++);
        --len;
    }
    crc = crc32cLanes<longLane>(p, len, crc, shiftLong);
    crc = crc32cLanes<shortLane>(p, len, crc, shiftShort);
    std::uint64_t c = crc;
    for (; len >= 8; p += 8, len -= 8)
        c = _mm_crc32_u64(c, load64(p));
    crc = static_cast<std::uint32_t>(c);
    while (len--)
        crc = _mm_crc32_u8(crc, *p++);
    return crc;
}

/// @}

/// @name PCLMULQDQ CRC-16 T10.
/// Byte-reversed 16-byte loads put the message's first bit at bit
/// 127, so a register holds a 128-bit slice of the message
/// polynomial M in clmul's own bit order. Folding A forward by D bits
/// keeps it congruent mod P and within 128 bits:
/// A·x^D ≡ A_hi·(x^(D+64) mod P) + A_lo·(x^D mod P). After the last
/// fold the accumulator is ≡ the consumed prefix of M, and the table
/// CRC of its 16 bytes is that prefix's CRC.
/// @{

/** x^n mod P for the MSB-first CRC-16 (bit i = coefficient of x^i). */
constexpr std::uint64_t
xPowMod16(unsigned n)
{
    std::uint32_t r = 1;
    for (unsigned i = 0; i < n; ++i) {
        r <<= 1;
        if (r & 0x10000)
            r ^= crc16Poly;
    }
    return r;
}

struct FoldConsts
{
    std::uint64_t hi, lo;
};

constexpr FoldConsts
foldBy(unsigned bits)
{
    return {xPowMod16(bits + 64), xPowMod16(bits)};
}

constexpr FoldConsts fold512 = foldBy(512); // four accumulators
constexpr FoldConsts fold128 = foldBy(128); // one

__attribute__((target("pclmul,ssse3"))) inline __m128i
byteReverse(__m128i v)
{
    return _mm_shuffle_epi8(v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                            9, 10, 11, 12, 13, 14, 15));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i
loadReversed(const std::uint8_t *p)
{
    return byteReverse(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i
consts(FoldConsts k)
{
    return _mm_set_epi64x(static_cast<long long>(k.hi),
                          static_cast<long long>(k.lo));
}

/** acc·x^D mod P (unreduced, 128-bit) for k = {x^(D+64), x^D}. */
__attribute__((target("pclmul,ssse3"))) inline __m128i
fold(__m128i acc, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x11),
                         _mm_clmulepi64_si128(acc, k, 0x00));
}

/**
 * Fold the whole 16-byte blocks of [p, p+len) into @p acc, then
 * finish: the table CRC of the residue's 16 bytes, continued over
 * the last len % 16 bytes. Always inlined, so each arm runs it
 * compiled for its own target (see the VPCLMULQDQ arms below).
 */
__attribute__((target("pclmul,ssse3"), always_inline)) inline
std::uint16_t
crc16Residue(__m128i acc, const std::uint8_t *p, std::size_t len)
{
    const __m128i k128 = consts(fold128);
    for (; len >= 16; p += 16, len -= 16)
        acc = _mm_xor_si128(fold(acc, k128), loadReversed(p));
    alignas(16) std::uint8_t last[16];
    _mm_store_si128(reinterpret_cast<__m128i *>(last), byteReverse(acc));
    return crc16T10SliceBy8(p, len, crc16T10SliceBy8(last, 16, 0));
}

__attribute__((target("pclmul,ssse3"))) std::uint16_t
crc16T10Pclmul(const void *data, std::size_t len, std::uint16_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    if (len < 64)
        return crc16T10SliceBy8(p, len, seed);

    const __m128i k512 = consts(fold512);
    const __m128i k128 = consts(fold128);

    // The seed enters as the top 16 bits of the first block, exactly
    // as the table arm XORs it into the first two bytes.
    __m128i x0 = _mm_xor_si128(
        loadReversed(p), _mm_slli_si128(_mm_cvtsi32_si128(seed), 14));
    __m128i x1 = loadReversed(p + 16);
    __m128i x2 = loadReversed(p + 32);
    __m128i x3 = loadReversed(p + 48);
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        x0 = _mm_xor_si128(fold(x0, k512), loadReversed(p));
        x1 = _mm_xor_si128(fold(x1, k512), loadReversed(p + 16));
        x2 = _mm_xor_si128(fold(x2, k512), loadReversed(p + 32));
        x3 = _mm_xor_si128(fold(x3, k512), loadReversed(p + 48));
    }
    __m128i acc = _mm_xor_si128(fold(x0, k128), x1);
    acc = _mm_xor_si128(fold(acc, k128), x2);
    acc = _mm_xor_si128(fold(acc, k128), x3);
    return crc16Residue(acc, p, len);
}

/// @}

/// @name VPCLMULQDQ CRC-32C and CRC-16 T10.
/// Four 512-bit accumulators fold 256 bytes a step: each of their
/// sixteen 128-bit lanes moves forward by 2048 bits with the
/// congruence of the 128-bit arms. The accumulators then fold into
/// one, its four lanes into one 128-bit residue ≡ the consumed
/// prefix, and each CRC finishes that residue the way its 128-bit
/// arm does.
///
/// CRC-32C is reflected: a plain little-endian load already puts the
/// message's first bit at bit 0, and the product of two reflected
/// operands lands one bit low. With k(D) = (x^D mod P) << 1 in that
/// order, a lane A folds forward by D bits as
/// A_lo·k(D+32) + A_hi·k(D-32), the constants of Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ". After the
/// last fold, the crc32 instruction over the residue's 16 bytes from
/// state 0 is the prefix's CRC state.
///
/// After its 512-bit folds an arm runs only code compiled for its own
/// target, its inlined residue fold, and scalar code (the table and
/// crc32-instruction tails). A legacy-SSE instruction there, such as
/// a call into the 128-bit arm's residue, pays the SSE/AVX transition
/// penalty on every call: gcc emits no vzeroupper in these target
/// functions, so nothing cleans the upper state the folds leave.
/// @{

/** k(D): x^D mod P, one bit up for the reflected product. */
template <std::uint32_t Poly = crc32cPoly>
constexpr std::uint64_t
reflectedK(unsigned bits)
{
    return std::uint64_t{xPow8n<Poly>(bits / 8)} << 1;
}

/** {k(D+32), k(D-32)}: the low qword's multiplier sits high. */
template <std::uint32_t Poly = crc32cPoly>
constexpr FoldConsts
reflectedFoldBy(unsigned bits)
{
    return {reflectedK<Poly>(bits + 32), reflectedK<Poly>(bits - 32)};
}

// The same derivation for the IEEE CRC-32 gives zlib's published
// fold-by-4 (D = 512) constants.
static_assert(reflectedFoldBy<0xedb88320u>(512).hi == 0x154442bd4);
static_assert(reflectedFoldBy<0xedb88320u>(512).lo == 0x1c6e41596);

/** acc·x^D mod P (unreduced, reflected) for k = reflectedFoldBy(D). */
__attribute__((target("pclmul,ssse3"))) inline __m128i
foldReflected(__m128i acc, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x10),
                         _mm_clmulepi64_si128(acc, k, 0x01));
}

/**
 * crc16Residue for CRC-32C: fold the whole 16-byte blocks left, then
 * run crc32 over the residue from state 0 and on over the tail.
 */
__attribute__((target("pclmul,sse4.2"), always_inline)) inline
std::uint32_t
crc32cResidue(__m128i acc, const std::uint8_t *p, std::size_t len)
{
    constexpr FoldConsts by128 = reflectedFoldBy(128);
    const __m128i k128 = consts(by128);
    for (; len >= 16; p += 16, len -= 16) {
        acc = _mm_xor_si128(
            foldReflected(acc, k128),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    std::uint64_t c = _mm_crc32_u64(
        0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)));
    c = _mm_crc32_u64(
        c, static_cast<std::uint64_t>(_mm_extract_epi64(acc, 1)));
    return crc32cSse42(p, len, static_cast<std::uint32_t>(c));
}

#define DSASIM_VPCLMUL                                                 \
    __attribute__((target("avx512f,avx512bw,avx512vl,vpclmulqdq,"     \
                          "pclmul,sse4.2,ssse3")))

/** One 64-byte load; MSB-first lanes are byte-reversed. */
template <bool Reflected>
DSASIM_VPCLMUL inline __m512i
load512(const std::uint8_t *p)
{
    const __m512i v = _mm512_loadu_si512(p);
    if constexpr (Reflected) {
        return v;
    } else {
        constexpr long long hi = 0x0001020304050607;
        constexpr long long lo = 0x08090a0b0c0d0e0f;
        return _mm512_shuffle_epi8(
            v, _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo));
    }
}

/** Fold-by-@p bits constants of either bit order. */
template <bool Reflected>
constexpr FoldConsts
foldConsts(unsigned bits)
{
    return Reflected ? reflectedFoldBy(bits) : foldBy(bits);
}

/** @p k in every 128-bit lane. */
DSASIM_VPCLMUL inline __m512i
consts512(FoldConsts k)
{
    const auto hi = static_cast<long long>(k.hi);
    const auto lo = static_cast<long long>(k.lo);
    return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/** Every lane of @p acc folded forward, XORed with @p next. */
template <bool Reflected>
DSASIM_VPCLMUL inline __m512i
foldIn(__m512i acc, __m512i k, __m512i next)
{
    constexpr int lo = Reflected ? 0x10 : 0x00;
    constexpr int hi = Reflected ? 0x01 : 0x11;
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, lo),
                                     _mm512_clmulepi64_epi128(acc, k, hi),
                                     next, 0x96);
}

/**
 * Fold the 64-byte blocks of [p, p+len), len >= 256, into one
 * 128-bit residue, with @p seed XORed into the first block; advances
 * @p p and @p len past them.
 */
template <bool Reflected>
DSASIM_VPCLMUL __m128i
foldWide(const std::uint8_t *&p, std::size_t &len, __m512i seed)
{
    constexpr FoldConsts by2048 = foldConsts<Reflected>(2048);
    constexpr FoldConsts by512 = foldConsts<Reflected>(512);
    constexpr FoldConsts by128 = foldConsts<Reflected>(128);
    const __m512i k2048 = consts512(by2048);
    const __m512i k512 = consts512(by512);
    __m512i x0 = _mm512_xor_si512(load512<Reflected>(p), seed);
    __m512i x1 = load512<Reflected>(p + 64);
    __m512i x2 = load512<Reflected>(p + 128);
    __m512i x3 = load512<Reflected>(p + 192);
    p += 256;
    len -= 256;
    for (; len >= 256; p += 256, len -= 256) {
        x0 = foldIn<Reflected>(x0, k2048, load512<Reflected>(p));
        x1 = foldIn<Reflected>(x1, k2048, load512<Reflected>(p + 64));
        x2 = foldIn<Reflected>(x2, k2048, load512<Reflected>(p + 128));
        x3 = foldIn<Reflected>(x3, k2048, load512<Reflected>(p + 192));
    }
    __m512i acc = foldIn<Reflected>(x0, k512, x1);
    acc = foldIn<Reflected>(acc, k512, x2);
    acc = foldIn<Reflected>(acc, k512, x3);
    for (; len >= 64; p += 64, len -= 64)
        acc = foldIn<Reflected>(acc, k512, load512<Reflected>(p));

    const __m128i k128 = consts(by128);
    alignas(64) __m128i lanes[4];
    _mm512_store_si512(lanes, acc);
    __m128i r = lanes[0];
    for (int i = 1; i < 4; ++i) {
        r = _mm_xor_si128(Reflected ? foldReflected(r, k128)
                                    : fold(r, k128),
                          lanes[i]);
    }
    return r;
}

/** Below this the 128-bit arms are as fast. */
constexpr std::size_t wideMinBytes = 256;

DSASIM_VPCLMUL std::uint32_t
crc32cVpclmul(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    if (len < wideMinBytes)
        return crc32cSse42(p, len, seed);
    // The state XORs into the first four bytes, as crc32 does.
    const __m128i r = foldWide<true>(
        p, len, _mm512_zextsi128_si512(_mm_cvtsi32_si128(
                    static_cast<int>(seed))));
    return crc32cResidue(r, p, len);
}

DSASIM_VPCLMUL std::uint16_t
crc16T10Vpclmul(const void *data, std::size_t len, std::uint16_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    if (len < wideMinBytes)
        return crc16T10Pclmul(p, len, seed);
    const __m128i r = foldWide<false>(
        p, len, _mm512_zextsi128_si512(
                    _mm_slli_si128(_mm_cvtsi32_si128(seed), 14)));
    return crc16Residue(r, p, len);
}

#undef DSASIM_VPCLMUL

/// @}

#endif // __x86_64__

using crc_arms::Arm;
using crc_arms::Crc16Fn;
using crc_arms::Crc32cFn;

/**
 * The arms and the selected entry points, fixed on first use from
 * cpuid. Function-local, so a call from another translation unit's
 * static initializer still sees it built.
 */
struct Dispatch
{
#if defined(__x86_64__)
    std::array<Arm<Crc32cFn>, 3> crc32c;
    std::array<Arm<Crc16Fn>, 3> crc16;
#else
    std::array<Arm<Crc32cFn>, 1> crc32c;
    std::array<Arm<Crc16Fn>, 1> crc16;
#endif
    std::size_t crc32cSel = 0;
    std::size_t crc16Sel = 0;
};

template <typename A>
std::size_t
lastAvailable(const A &arms)
{
    std::size_t sel = 0;
    for (std::size_t i = 0; i < arms.size(); ++i) {
        if (arms[i].available)
            sel = i;
    }
    return sel;
}

const Dispatch &
dispatch()
{
    static const Dispatch d = [] {
#if defined(__x86_64__)
        // cpuid may not be cached yet if this runs during static
        // initialization, before libgcc's own constructor.
        __builtin_cpu_init();
        const bool sse42 = __builtin_cpu_supports("sse4.2");
        const bool clmul = __builtin_cpu_supports("pclmul") &&
                           __builtin_cpu_supports("ssse3");
        const bool wide = sse42 && clmul &&
                          __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vl") &&
                          __builtin_cpu_supports("vpclmulqdq");
        Dispatch r{{{{"slice-by-8", true, crc32cSliceBy8},
                     {"sse4.2", sse42, crc32cSse42},
                     {"vpclmul", wide, crc32cVpclmul}}},
                   {{{"slice-by-8", true, crc16T10SliceBy8},
                     {"pclmul", clmul, crc16T10Pclmul},
                     {"vpclmul", wide, crc16T10Vpclmul}}}};
#else
        Dispatch r{{{{"slice-by-8", true, crc32cSliceBy8}}},
                   {{{"slice-by-8", true, crc16T10SliceBy8}}}};
#endif
        r.crc32cSel = lastAvailable(r.crc32c);
        r.crc16Sel = lastAvailable(r.crc16);
        return r;
    }();
    return d;
}

} // namespace

namespace crc_arms
{

std::span<const Arm<Crc32cFn>>
crc32cArms()
{
    return dispatch().crc32c;
}

std::span<const Arm<Crc16Fn>>
crc16T10Arms()
{
    return dispatch().crc16;
}

const Arm<Crc32cFn> &
crc32cSelected()
{
    const Dispatch &d = dispatch();
    return d.crc32c[d.crc32cSel];
}

const Arm<Crc16Fn> &
crc16T10Selected()
{
    const Dispatch &d = dispatch();
    return d.crc16[d.crc16Sel];
}

} // namespace crc_arms

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
    return crc_arms::crc32cSelected().fn(data, len, seed);
}

std::uint16_t
crc16T10(const void *data, std::size_t len, std::uint16_t seed)
{
    return crc_arms::crc16T10Selected().fn(data, len, seed);
}

std::uint32_t
crc32cShift(std::uint32_t state, std::uint64_t nbytes)
{
    return mulModP(xPow8n(nbytes), state);
}

std::uint32_t
crc32cBitwise(const void *data, std::size_t len, std::uint32_t seed)
{
    constexpr std::uint32_t poly = 0x82f63b78u;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
    }
    return crc;
}

std::uint16_t
crc16T10Bitwise(const void *data, std::size_t len, std::uint16_t seed)
{
    constexpr std::uint16_t poly = 0x8bb7;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint16_t crc = seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc = static_cast<std::uint16_t>(crc ^ (p[i] << 8));
        for (int bit = 0; bit < 8; ++bit) {
            crc = static_cast<std::uint16_t>(
                (crc << 1) ^ ((crc & 0x8000) ? poly : 0));
        }
    }
    return crc;
}

} // namespace dsasim
