#include "dml/serving.hh"

#include "driver/submitter.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace dsasim::dml
{

ServingNode::ServingNode(Simulation &s, Executor &e, ServingConfig c)
    : cfg(c), sim(s), ex(e)
{
    stats::Registry &reg = s.stats();
    const std::string scope = reg.scope("serving") + ".";
    // Supplier-backed sums over the tenant sessions, so they track
    // tenants added later.
    const auto overTenants = [this](auto field) {
        return [this, field] {
            std::uint64_t n = 0;
            for (const auto &t : tenants)
                n += field(*t);
            return n;
        };
    };
    reg.counter(scope + "breaker_opens",
                "circuit-breaker trips across all tenants",
                overTenants([](const auto &t) { return t.breaker.opens; }));
    reg.counter(scope + "sheds", "requests shed by an open breaker",
                overTenants([](const auto &t) { return t.breaker.shed; }));
    reg.counter(scope + "retries", "ENQCMD retries absorbed in backoff",
                overTenants([](const auto &t) { return t.stats.retries; }));
    reg.counter(scope + "fallbacks", "requests served on the CPU path",
                overTenants([](const auto &t) {
                    return t.stats.fallbacks;
                }));
    // Views of the one latency record, TenantStats::latencyUs: an
    // interval's mean latency is its latency_us_total delta over its
    // completed delta.
    reg.counter(scope + "completed",
                "requests with a recorded arrival-to-done latency",
                overTenants([](const auto &t) {
                    return t.stats.latencyUs.count();
                }));
    reg.gauge(scope + "latency_us_total",
              "summed arrival-to-done request latency in microseconds",
              [this] {
                  double us = 0.0;
                  for (const auto &t : tenants)
                      us += t->stats.latencyUs.sum();
                  return us;
              });
}

bool
CircuitBreaker::allowHardware(Tick now)
{
    if (st == State::Open) {
        if (now < openedAt + cfg.cooldown) {
            ++shed;
            return false;
        }
        st = State::HalfOpen;
        probesIssued = 0;
        probeOks = 0;
    }
    if (st == State::HalfOpen) {
        if (probesIssued >= cfg.probes) {
            // Probe quota in flight; hold the rest until a verdict.
            ++shed;
            return false;
        }
        ++probesIssued;
        return true;
    }
    return true;
}

void
CircuitBreaker::trip(Tick now)
{
    st = State::Open;
    openedAt = now;
    ++opens;
    samples = 0;
    fulls = 0;
}

void
CircuitBreaker::onOutcome(Tick now, bool queue_full)
{
    switch (st) {
      case State::Closed:
        ++samples;
        if (queue_full)
            ++fulls;
        if (samples >= cfg.window) {
            if (static_cast<double>(fulls) >=
                cfg.openThreshold * static_cast<double>(samples)) {
                trip(now);
            } else {
                samples = 0;
                fulls = 0;
            }
        }
        break;
      case State::HalfOpen:
        if (queue_full) {
            trip(now);
        } else if (++probeOks >= cfg.probes) {
            st = State::Closed;
            ++closes;
            samples = 0;
            fulls = 0;
        }
        break;
      case State::Open:
        // Stragglers admitted before the trip; the hold-down stands.
        break;
    }
}

void
TenantStats::merge(const TenantStats &o)
{
    arrivals += o.arrivals;
    issued += o.issued;
    dropped += o.dropped;
    hwAccepted += o.hwAccepted;
    hwOk += o.hwOk;
    hwErrors += o.hwErrors;
    retries += o.retries;
    giveUps += o.giveUps;
    shedBreaker += o.shedBreaker;
    fallbacks += o.fallbacks;
    failures += o.failures;
    goodputBytes += o.goodputBytes;
    latencyUs.merge(o.latencyUs);
}

SimTask
ServingNode::openLoop(TenantSession &t, ArrivalStream arrivals,
                      std::uint64_t requests, Latch &done)
{
    Tick at = sim.now();
    for (std::uint64_t k = 0; k < requests; ++k) {
        at += arrivals.interarrival(k);
        co_await sim.delayUntil(at);
        ++t.stats.arrivals;
        if (t.outstanding >= cfg.outstandingCap) {
            // Load shedding at the door: bounding per-tenant
            // in-flight work keeps overload from growing the heap or
            // the calendar without bound.
            ++t.stats.dropped;
            done.arrive();
            continue;
        }
        ++t.outstanding;
        serveDetached(t, k, done);
    }
}

SimTask
ServingNode::serveDetached(TenantSession &t, std::uint64_t k,
                           Latch &done)
{
    co_await serve(t, k);
    --t.outstanding;
    done.arrive();
}

CoTask
ServingNode::serve(TenantSession &t, std::uint64_t k)
{
    ++t.stats.issued;
    const Tick t0 = sim.now();
    WorkDescriptor d = t.makeRequest(k);
    d.pasid = t.pasid;

    OpResult out;
    bool servedHw = false;
    bool wantFallback = cfg.cpuFallback;

    if (t.breaker.allowHardware(sim.now())) {
        CompletionRecord cr(sim);
        d.completion = &cr;
        Submitter sub(*t.core, t.dev->params());
        Submitter::Enqueue outcome{};
        co_await sub.enqcmdBackoff(
            *t.dev, *t.wq, d,
            {.maxRetries = cfg.maxRetries,
             .base = cfg.backoffBase,
             .cap = cfg.backoffCap,
             .jitter = cfg.backoffJitter,
             .rng = &t.jitter,
             .draw = k * (cfg.maxRetries + 1ULL)},
            outcome, t.stats.retries);
        if (outcome == Submitter::Enqueue::Accepted) {
            ++t.stats.hwAccepted;
            co_await ex.awaitCompletion(*t.core, cr, t.dev);
            Executor::harvest(cr, out);
            t.breaker.onOutcome(sim.now(), false);
            if (out.ok) {
                servedHw = true;
                wantFallback = false;
                ++t.stats.hwOk;
                t.stats.goodputBytes += d.size;
            } else {
                ++t.stats.hwErrors;
            }
        } else if (outcome == Submitter::Enqueue::Rejected) {
            // Portal rejection (disabled device, injected drop).
            ++t.stats.hwErrors;
            t.breaker.onOutcome(sim.now(), false);
        } else {
            // The SWQ stayed full through the last bounded retry.
            ++t.stats.giveUps;
            t.breaker.onOutcome(sim.now(), true);
        }
    } else {
        ++t.stats.shedBreaker;
    }

    if (!servedHw) {
        if (wantFallback) {
            // Graceful degradation: the request completes on the
            // CPU path at CPU cost rather than hanging or erroring.
            OpResult sw;
            co_await ex.executeSoftware(*t.core, d, sw);
            out = sw;
            ++t.stats.fallbacks;
            if (sw.ok)
                t.stats.goodputBytes += d.size;
        } else {
            ++t.stats.failures;
        }
    }

    t.stats.latencyUs.add(toUs(sim.now() - t0));
}

TenantStats
ServingNode::aggregate() const
{
    TenantStats total;
    for (const auto &t : tenants)
        total.merge(t->stats);
    return total;
}

} // namespace dsasim::dml
