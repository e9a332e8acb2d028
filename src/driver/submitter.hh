/**
 * @file
 * The submission-instruction and synchronization model (§3.3):
 *
 *  - MOVDIR64B: posted 64-byte store to a DWQ portal. The core is
 *    busy only for the store itself; the descriptor lands in the WQ
 *    one flight later. The client must track DWQ occupancy.
 *  - ENQCMD: non-posted submission to an SWQ. The core stalls for
 *    the full round trip and receives an accept/retry status, which
 *    is what makes one SWQ submitter equivalent to a batch-of-1
 *    stream (Fig. 9).
 *  - UMONITOR/UMWAIT: park the core on the completion record in an
 *    optimized wait state; the waited ticks are accounted separately
 *    from busy work (Fig. 11).
 */

#ifndef DSASIM_DRIVER_SUBMITTER_HH
#define DSASIM_DRIVER_SUBMITTER_HH

#include <algorithm>
#include <cstdint>

#include "cpu/core.hh"
#include "dsa/device.hh"
#include "sim/task.hh"
#include "sim/traffic.hh"

namespace dsasim
{

class Submitter
{
  public:
    Submitter(Core &submitting_core, const DsaParams &p)
        : core_(submitting_core), params(p)
    {}

    Core &core() { return core_; }

    /**
     * MOVDIR64B to a dedicated WQ. Returns (resumes) as soon as the
     * core retires the store; the descriptor arrives at the portal
     * asynchronously. The client must track DWQ occupancy: a store
     * past capacity is dropped by the portal and surfaces as a
     * WqOverflow completion (see DsaDevice::submit), never as a
     * silent hang.
     */
    CoTask
    movdir64b(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d)
    {
        Simulation &sim = core_.simulation();
        core_.chargeBusy(params.submitMovdirCost, "submit");
        co_await sim.delay(params.submitMovdirCost);
        DsaDevice *devp = &dev;
        WorkQueue *wqp = &wq;
        sim.scheduleIn(params.submitFlight, [devp, wqp, d] {
            devp->submit(*wqp, d);
        });
    }

    /**
     * ENQCMD to a shared WQ. The core blocks for the non-posted
     * round trip; @p status reports the full portal outcome
     * (Accepted / transient Retry / Rejected-with-cause).
     */
    CoTask
    enqcmdStatus(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d,
                 DsaDevice::SubmitStatus &status)
    {
        Simulation &sim = core_.simulation();
        core_.chargeBusy(params.enqcmdRoundTrip, "submit");
        co_await sim.delay(params.submitFlight);
        status = dev.submit(wq, d);
        co_await sim.delay(params.enqcmdRoundTrip -
                           params.submitFlight);
    }

    /**
     * ENQCMD to a shared WQ. The core blocks for the non-posted
     * round trip; @p accepted reports the returned status.
     */
    CoTask
    enqcmd(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d,
           bool &accepted)
    {
        DsaDevice::SubmitStatus st;
        co_await enqcmdStatus(dev, wq, d, st);
        accepted = st == DsaDevice::SubmitStatus::Accepted;
    }

    /**
     * ENQCMD, retrying immediately until the SWQ accepts the
     * descriptor. This is the paper's measured contention behavior
     * (Fig. 9) — calibration depends on its timing, so it stays
     * unbounded and backoff-free. A Rejected descriptor (disabled
     * device, injected drop) terminates the loop: retrying it can
     * never succeed and its completion record already has the cause.
     */
    CoTask
    enqcmdRetry(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d)
    {
        for (;;) {
            DsaDevice::SubmitStatus st;
            co_await enqcmdStatus(dev, wq, d, st);
            if (st != DsaDevice::SubmitStatus::Retry)
                co_return;
        }
    }

    /** How an enqcmdBackoff() ended. */
    enum class Enqueue : std::uint8_t
    {
        Accepted, ///< the SWQ took the descriptor
        Rejected, ///< the portal refused it; the record holds the cause
        GaveUp,   ///< still Retry after the last bounded resubmission
    };

    /**
     * Bounded-exponential ENQCMD backoff: on Retry the core pauses
     * base, doubling up to cap, for at most maxRetries
     * resubmissions. A nonzero jitter shortens each pause by
     * jitter * U[0,1), with U for attempt i drawn at
     * rng->uniformAt(draw + i): a pure function of the counter, so
     * retry spreading replays identically for any partition count.
     */
    struct Backoff
    {
        unsigned maxRetries = 0;
        Tick base = 0;
        Tick cap = 0;
        double jitter = 0.0;
        const CounterRng *rng = nullptr; ///< required if jitter != 0
        std::uint64_t draw = 0;          ///< attempt 0's draw counter
    };

    /**
     * ENQCMD under the @p b backoff; the one bounded submit loop of
     * every SWQ client. The pause is accounted as enqcmd-backoff
     * (not busy) time — the core could run other work. @p retries
     * grows by one at each absorbed Retry, as it happens. On GaveUp
     * the caller decides: fall back to CPU or fail the request.
     */
    CoTask
    enqcmdBackoff(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d,
                  Backoff b, Enqueue &outcome, std::uint64_t &retries)
    {
        Simulation &sim = core_.simulation();
        Tick pause = b.base;
        for (unsigned attempt = 0;; ++attempt) {
            DsaDevice::SubmitStatus st{};
            co_await enqcmdStatus(dev, wq, d, st);
            if (st == DsaDevice::SubmitStatus::Accepted) {
                outcome = Enqueue::Accepted;
                co_return;
            }
            if (st == DsaDevice::SubmitStatus::Rejected) {
                outcome = Enqueue::Rejected;
                co_return;
            }
            if (attempt >= b.maxRetries) {
                outcome = Enqueue::GaveUp;
                co_return;
            }
            ++retries;
            Tick jittered = pause;
            if (b.jitter != 0.0) {
                const double u = b.rng->uniformAt(b.draw + attempt);
                jittered -= static_cast<Tick>(
                    b.jitter * u * static_cast<double>(pause));
            }
            core_.cycleAccount().charge("enqcmd-backoff", jittered);
            co_await sim.delay(std::max<Tick>(1, jittered));
            pause = std::min(pause * 2, b.cap);
        }
    }

    /**
     * UMONITOR + UMWAIT on the completion record. The waited time is
     * charged to the core's umwait bucket (a low-power state whose
     * cycles other SMT work or the power budget can reclaim).
     */
    CoTask
    umwait(CompletionRecord &cr)
    {
        Simulation &sim = core_.simulation();
        Tick t0 = sim.now();
        if (!cr.isDone())
            co_await cr.done.wait();
        core_.chargeUmwait(sim.now() - t0);
        const Tick wake = core_.cpuParams().umwaitWake;
        core_.chargeBusy(wake, "wake");
        co_await sim.delay(wake);
    }

    /**
     * Interrupt-driven wait (§4.4's alternative to UMWAIT): the
     * core is released entirely; when the completion interrupt
     * fires, the handler + context switch cost is charged before
     * control returns. Pair with descflags::requestInterrupt so the
     * device actually raises one.
     */
    CoTask
    waitInterrupt(CompletionRecord &cr)
    {
        Simulation &sim = core_.simulation();
        Tick t0 = sim.now();
        if (!cr.isDone())
            co_await cr.done.wait();
        core_.cycleAccount().charge("idle-other-work",
                                    sim.now() - t0);
        const Tick handler = interruptHandlerCost;
        core_.chargeBusy(handler, "irq-handler");
        co_await sim.delay(handler);
    }

    /** Interrupt handler + context-switch cost on the waker core. */
    static constexpr Tick interruptHandlerCost = fromUs(1.2);

  private:
    Core &core_;
    DsaParams params;
};

} // namespace dsasim

#endif // DSASIM_DRIVER_SUBMITTER_HH
