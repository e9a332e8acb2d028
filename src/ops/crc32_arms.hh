/**
 * @file
 * Internal view of the implementations ("arms") behind crc32c() and
 * crc16T10(), for the differential tests and bench_simhost only.
 * Simulator code calls ops/crc32.hh, which dispatches to the selected
 * arm; nothing here chooses an arm at run time.
 */

#ifndef DSASIM_OPS_CRC32_ARMS_HH
#define DSASIM_OPS_CRC32_ARMS_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace dsasim::crc_arms
{

using Crc32cFn = std::uint32_t(const void *, std::size_t, std::uint32_t);
using Crc16Fn = std::uint16_t(const void *, std::size_t, std::uint16_t);

/** One implementation of a CRC with the signature of its public call. */
template <typename Fn>
struct Arm
{
    const char *name;
    /** This host has the instructions @ref fn uses. */
    bool available;
    Fn *fn;
};

/**
 * Every arm compiled into this binary, portable slice-by-8 first and
 * fastest last. Calling an unavailable arm's fn is undefined.
 */
std::span<const Arm<Crc32cFn>> crc32cArms();
std::span<const Arm<Crc16Fn>> crc16T10Arms();

/** The arm crc32c() / crc16T10() run: the last available one. */
const Arm<Crc32cFn> &crc32cSelected();
const Arm<Crc16Fn> &crc16T10Selected();

} // namespace dsasim::crc_arms

#endif // DSASIM_OPS_CRC32_ARMS_HH
