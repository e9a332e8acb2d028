/**
 * @file
 * Deterministic fault-injection subsystem.
 *
 * A FaultInjector holds a list of rules. Each rule names a hook point
 * (FaultSite), a trigger policy (probability, every-Nth matching
 * query, or one-shot at/after a tick), an optional scope (device, WQ,
 * engine, opcode) and, for completion errors, the hardware status to
 * report. Model layers that can fail query the injector at
 * well-defined sites; the injector decides — reproducibly, from its
 * seed and the deterministic event order — whether the fault fires.
 *
 * Rules can be built programmatically (tests, the chaos harness) or
 * parsed from a spec string, which the platform reads from the
 * DSASIM_FAULTS environment variable:
 *
 *   site[:key=value[,key=value]...][;site:...]
 *
 *   sites: hw-error | hang | disable | wq-reject | page-fault
 *   keys:  p=<0..1>        probability per matching query
 *          every=<N>       fire on every Nth matching query
 *          at=<ticks>      one-shot: first matching query at/after
 *          max=<N>         stop after N fires (default unbounded,
 *                          1 for at=)
 *          device=<id> wq=<id> engine=<id> op=<opcode-name>
 *          pasid=<id>      target one tenant's address space
 *          error=read|write|decode   (hw-error payload)
 *
 * Example: DSASIM_FAULTS="hw-error:p=0.01,op=memmove;hang:every=5000"
 *
 * The pasid= scope is the multi-tenant blast-radius knob: a chaos
 * run can aim every fault at one tenant and assert that neighbors'
 * SLO counters stay clean (tests/test_serving.cc).
 */

#ifndef DSASIM_SIM_FAULT_INJECTOR_HH
#define DSASIM_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/ticks.hh"

namespace dsasim
{

class Simulation;

/** Hook points at which model layers consult the injector. */
enum class FaultSite : std::uint8_t
{
    CompletionError, ///< engine: complete with a hardware error status
    EngineHang,      ///< engine: descriptor never completes on its own
    DeviceDisable,   ///< device: mid-flight disable (needs reset)
    WqReject,        ///< portal: ENQCMD retry / DWQ drop beyond capacity
    PageFault,       ///< IOMMU: extra fault beyond the organic path
};

const char *faultSiteName(FaultSite site);

/**
 * Opcode-name table for the op= spec key. The sim layer cannot see
 * the device layers (layer-hygiene: sim < dsa), so the layer that
 * owns the opcode enum registers its name table at static-init time
 * (ops/opcodes.hh) and the injector resolves names through it.
 */
void setFaultOpcodeNames(const char *(*name)(int), int count);
const char *faultOpcodeName(int op); ///< nullptr if unregistered
int faultOpcodeCount();

/** Payload of a CompletionError rule. */
enum class HwErrorKind : std::uint8_t
{
    Read,   ///< source read failure
    Write,  ///< destination write failure
    Decode, ///< descriptor decode failure
};

/** Context a hook point passes with its query; -1 = unknown. */
struct FaultQuery
{
    int device = -1;
    int wq = -1;
    int engine = -1;
    int opcode = -1; ///< static_cast<int>(Opcode), -1 if n/a
    std::int64_t pasid = -1; ///< tenant address space, -1 if n/a
};

struct FaultRule
{
    FaultSite site = FaultSite::CompletionError;

    /// @name Trigger policy (first non-zero wins, checked in order).
    /// @{
    double probability = 0.0;    ///< Bernoulli per matching query
    std::uint64_t everyNth = 0;  ///< every Nth matching query
    Tick atTick = 0;             ///< one-shot at/after this tick
    bool hasAtTick = false;
    /// @}

    /// @name Scope filters (-1 matches anything).
    /// @{
    int device = -1;
    int wq = -1;
    int engine = -1;
    int opcode = -1;
    std::int64_t pasid = -1;
    /// @}

    /** CompletionError rules: which hardware error to report. */
    HwErrorKind error = HwErrorKind::Read;

    /** Stop firing after this many hits (one-shot for at= rules). */
    std::uint64_t maxFires = ~std::uint64_t{0};

    /// @name Bookkeeping (read-only for clients).
    /// @{
    std::uint64_t matches = 0;
    std::uint64_t fires = 0;
    /// @}
};

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 1) : rng(seed) {}

    /** Time source for at= rules (optional; unset disables them). */
    void attachClock(const Simulation &s) { clock = &s; }

    FaultRule &addRule(const FaultRule &r);

    /**
     * Consult the injector at @p site with context @p q. Returns the
     * rule that fired (for its payload), or nullptr. At most one rule
     * fires per query; rules are evaluated in insertion order.
     */
    const FaultRule *query(FaultSite site, const FaultQuery &q);

    /** Convenience: did any rule fire at this site? */
    bool
    fire(FaultSite site, const FaultQuery &q)
    {
        return query(site, q) != nullptr;
    }

    std::size_t ruleCount() const { return rules.size(); }
    const FaultRule &rule(std::size_t i) const { return rules[i]; }

    /// @name Aggregate statistics.
    /// @{
    std::uint64_t totalFires = 0;

    /** Fires at one site, summed over rules. */
    std::uint64_t firesAt(FaultSite site) const;

    /** One line per rule: site, trigger, scope, matches/fires. */
    std::string summary() const; // simlint:observer
    /// @}

    /**
     * Parse a spec string (see file header). Returns nullptr for an
     * empty spec; a malformed spec is a user error (fatal).
     */
    static std::unique_ptr<FaultInjector>
    fromSpec(const std::string &spec, std::uint64_t seed = 1);

    /** Build from $DSASIM_FAULTS / $DSASIM_FAULT_SEED, or nullptr. */
    static std::unique_ptr<FaultInjector> fromEnv();

  private:
    bool matches(const FaultRule &r, const FaultQuery &q) const;

    Rng rng;
    const Simulation *clock = nullptr;
    std::vector<FaultRule> rules;
};

} // namespace dsasim

#endif // DSASIM_SIM_FAULT_INJECTOR_HH
