#include "dto/dto.hh"

namespace dsasim
{

Dto::Dto(dml::Executor &exec, Config cfg)
    : Dto(exec, cfg, exec.simulation().stats().scope("dto") + ".")
{}

Dto::Dto(dml::Executor &exec, Config cfg, const std::string &scope)
    : executor(exec), config(cfg),
      fallbackPageFaultCtr(exec.simulation().stats().counter(
          scope + "fallback_page_fault",
          "offloads redone on CPU after a partial completion")),
      fallbackHwErrorCtr(exec.simulation().stats().counter(
          scope + "fallback_hw_error",
          "offloads redone on CPU after a read/write/decode error")),
      fallbackAbortedCtr(exec.simulation().stats().counter(
          scope + "fallback_aborted",
          "offloads redone on CPU after a reset/watchdog abort")),
      fallbackQueueCtr(exec.simulation().stats().counter(
          scope + "fallback_queue",
          "offloads redone on CPU after WQ overflow or queue-full")),
      fallbackOtherCtr(exec.simulation().stats().counter(
          scope + "fallback_other",
          "offloads redone on CPU for any other cause"))
{}

CoTask
Dto::dispatch(Core &core, WorkDescriptor d, std::uint64_t n,
              int *cmp_result)
{
    ++calls;
    dml::OpResult res;
    if (n >= config.threshold) {
        // Synchronous offload, no block-on-fault: faults fall back.
        d.flags = config.cacheControl ? descflags::cacheControl : 0;
        co_await executor.executeHardware(core, d, res);
        if (res.status == CompletionRecord::Status::Success) {
            ++offloaded;
            bytesOffloaded += n;
            if (cmp_result)
                *cmp_result = res.result == 0 ? 0 : 1;
            co_return;
        }
        // Any non-success degrades to the CPU — libc semantics leave
        // no other way to report it. Attribute the cause.
        ++cpuFallbacks;
        using St = CompletionRecord::Status;
        switch (res.status) {
          case St::PageFault:
            fallbackPageFaultCtr.inc();
            break;
          case St::ReadError:
          case St::WriteError:
          case St::DecodeError:
            fallbackHwErrorCtr.inc();
            break;
          case St::Aborted:
            fallbackAbortedCtr.inc();
            break;
          case St::WqOverflow:
          case St::QueueFull:
            fallbackQueueCtr.inc();
            break;
          default:
            fallbackOtherCtr.inc();
            break;
        }
    }
    bytesOnCpu += n;
    co_await executor.executeSoftware(core, d, res);
    if (cmp_result)
        *cmp_result = res.result == 0 ? 0 : 1;
}

CoTask
Dto::memcpyCall(Core &core, AddressSpace &as, Addr dst, Addr src,
                std::uint64_t n)
{
    co_await dispatch(core, dml::Executor::memMove(as, dst, src, n), n,
                      nullptr);
}

CoTask
Dto::memmoveCall(Core &core, AddressSpace &as, Addr dst, Addr src,
                 std::uint64_t n)
{
    // Overlap-safe in the functional layer; identical timing.
    co_await dispatch(core, dml::Executor::memMove(as, dst, src, n), n,
                      nullptr);
}

CoTask
Dto::memsetCall(Core &core, AddressSpace &as, Addr dst,
                std::uint8_t value, std::uint64_t n)
{
    std::uint64_t pattern = 0x0101010101010101ull *
                            static_cast<std::uint64_t>(value);
    co_await dispatch(core, dml::Executor::fill(as, dst, pattern, n),
                      n, nullptr);
}

CoTask
Dto::memcmpCall(Core &core, AddressSpace &as, Addr a, Addr b,
                std::uint64_t n, int &result)
{
    co_await dispatch(core, dml::Executor::compare(as, a, b, n), n,
                      &result);
}

} // namespace dsasim
