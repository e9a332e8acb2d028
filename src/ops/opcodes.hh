/**
 * @file
 * DSA operation opcodes (Table 1 of the paper, aligned with the DSA
 * architecture specification's operation set), the operands one
 * operation takes and the status it completes with. The device's
 * work descriptors and the CPU kernels share these types
 * (ops/data_plane.hh runs them).
 */

#ifndef DSASIM_OPS_OPCODES_HH
#define DSASIM_OPS_OPCODES_HH

#include <cstdint>

#include "mem/types.hh"
#include "sim/fault_injector.hh"

namespace dsasim
{

enum class Opcode : std::uint8_t
{
    Nop,
    Batch,          ///< process an array of work descriptors (F2)
    Drain,          ///< completes once prior descriptors complete
    Memmove,        ///< Memory Copy
    Fill,           ///< Memory Fill (8-byte pattern)
    Compare,        ///< Memory Compare (two buffers)
    ComparePattern, ///< Compare against an 8-byte pattern
    CreateDelta,    ///< Create Delta Record
    ApplyDelta,     ///< Apply Delta Record
    Dualcast,       ///< copy to two destinations
    CrcGen,         ///< CRC32-C over source data
    CopyCrc,        ///< copy + CRC32-C
    DifCheck,
    DifInsert,
    DifStrip,
    DifUpdate,
    CacheFlush,     ///< evict an address range from the caches
};

inline const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Batch: return "batch";
      case Opcode::Drain: return "drain";
      case Opcode::Memmove: return "memmove";
      case Opcode::Fill: return "fill";
      case Opcode::Compare: return "compare";
      case Opcode::ComparePattern: return "compare-pattern";
      case Opcode::CreateDelta: return "create-delta";
      case Opcode::ApplyDelta: return "apply-delta";
      case Opcode::Dualcast: return "dualcast";
      case Opcode::CrcGen: return "crc-gen";
      case Opcode::CopyCrc: return "copy-crc";
      case Opcode::DifCheck: return "dif-check";
      case Opcode::DifInsert: return "dif-insert";
      case Opcode::DifStrip: return "dif-strip";
      case Opcode::DifUpdate: return "dif-update";
      case Opcode::CacheFlush: return "cache-flush";
    }
    return "?";
}

/**
 * Static-init registration of the opcode-name table with the
 * sim-layer fault injector (layer-hygiene keeps sim/ from including
 * dsa/, so the dependency points upward through this hook). Runs
 * before main() in every binary that links the device model.
 */
inline const bool faultOpcodeNamesRegistered = [] {
    setFaultOpcodeNames(
        +[](int op) { return opcodeName(static_cast<Opcode>(op)); },
        static_cast<int>(Opcode::CacheFlush) + 1);
    return true;
}();

/** Completion status of an operation. */
enum class OpStatus : std::uint8_t
{
    None = 0,     ///< not yet written by the device
    Success,
    PageFault,    ///< blocked on fault with block-on-fault = 0
    Unsupported,  ///< opcode/parameter rejected
    BatchError,   ///< >= 1 descriptor in the batch failed
    ReadError,    ///< source read failed (hardware data-path)
    WriteError,   ///< destination write failed
    DecodeError,  ///< descriptor decode failed
    Aborted,      ///< abort/drain/reset or watchdog termination
    WqOverflow,   ///< MOVDIR64B to a full DWQ (detected drop)
    QueueFull,    ///< ENQCMD bounded retries exhausted
};

/**
 * What an operation reports in its completion. The device writes it
 * into the completion record, and the CPU path returns it, so both
 * carry this one struct. A default outcome reads None: not yet
 * written.
 */
struct OpOutcome
{
    OpStatus status = OpStatus::None;
    /** 1 on a compare mismatch, a delta difference or a DIF failure. */
    std::uint32_t result = 0;
    std::uint32_t crc = 0;
    /** Data bytes done; a compare mismatch's offset; whole DIF blocks. */
    std::uint64_t bytesCompleted = 0;
    std::uint64_t recordBytes = 0; ///< delta record size produced
    bool recordFits = true;
    Addr faultAddr = 0; ///< first faulting VA (PageFault status)
};

/** One operation and its operands (virtual addresses). */
struct OpArgs
{
    Opcode op = Opcode::Nop;

    Addr src = 0;
    Addr dst = 0;
    Addr src2 = 0; ///< CreateDelta: modified buffer
    Addr dst2 = 0; ///< Dualcast: second destination
    std::uint64_t size = 0;

    std::uint64_t pattern = 0;   ///< Fill / ComparePattern
    /** Second half of a 16-byte fill pattern (Table 1: 8/16-byte). */
    std::uint64_t pattern2 = 0;
    std::uint8_t patternBytes = 8; ///< 8 or 16
    /** CRC32-C state to start from: a resumed remainder continues a
     *  partially computed CRC. */
    std::uint32_t crcSeed = 0xffffffffu;
    std::uint64_t maxRecordBytes = 0; ///< CreateDelta cap
    std::uint64_t recordBytes = 0;    ///< ApplyDelta record length

    std::uint32_t difBlockBytes = 512;
    std::uint16_t appTag = 0;
    std::uint16_t newAppTag = 0;
    std::uint32_t refTag = 0;
    std::uint32_t newRefTag = 0;
};

} // namespace dsasim

#endif // DSASIM_OPS_OPCODES_HH
