#include "sim/fault_injector.hh"

#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace dsasim
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::CompletionError: return "hw-error";
      case FaultSite::EngineHang: return "hang";
      case FaultSite::DeviceDisable: return "disable";
      case FaultSite::WqReject: return "wq-reject";
      case FaultSite::PageFault: return "page-fault";
    }
    return "?";
}

namespace
{

const char *(*opcodeNameTable)(int) = nullptr;
int opcodeNameTableCount = 0;

} // namespace

void
setFaultOpcodeNames(const char *(*name)(int), int count)
{
    opcodeNameTable = name;
    opcodeNameTableCount = count;
}

const char *
faultOpcodeName(int op)
{
    if (!opcodeNameTable || op < 0 || op >= opcodeNameTableCount)
        return nullptr;
    return opcodeNameTable(op);
}

int
faultOpcodeCount()
{
    return opcodeNameTableCount;
}

FaultRule &
FaultInjector::addRule(const FaultRule &r)
{
    fatal_if(r.probability < 0.0 || r.probability > 1.0,
             "fault rule probability %f out of [0,1]", r.probability);
    fatal_if(r.probability == 0.0 && r.everyNth == 0 && !r.hasAtTick,
             "fault rule needs a trigger (p=, every= or at=)");
    rules.push_back(r);
    return rules.back();
}

bool
FaultInjector::matches(const FaultRule &r, const FaultQuery &q) const
{
    if (r.device >= 0 && r.device != q.device)
        return false;
    if (r.wq >= 0 && r.wq != q.wq)
        return false;
    if (r.engine >= 0 && r.engine != q.engine)
        return false;
    if (r.opcode >= 0 && r.opcode != q.opcode)
        return false;
    if (r.pasid >= 0 && r.pasid != q.pasid)
        return false;
    return true;
}

const FaultRule *
FaultInjector::query(FaultSite site, const FaultQuery &q)
{
    for (FaultRule &r : rules) {
        if (r.site != site || r.fires >= r.maxFires || !matches(r, q))
            continue;
        ++r.matches;
        bool hit = false;
        if (r.probability > 0.0) {
            hit = rng.chance(r.probability);
        } else if (r.everyNth > 0) {
            hit = r.matches % r.everyNth == 0;
        } else if (r.hasAtTick) {
            hit = clock && clock->now() >= r.atTick;
        }
        if (!hit)
            continue;
        ++r.fires;
        ++totalFires;
        return &r;
    }
    return nullptr;
}

std::uint64_t
FaultInjector::firesAt(FaultSite site) const
{
    std::uint64_t n = 0;
    for (const FaultRule &r : rules)
        if (r.site == site)
            n += r.fires;
    return n;
}

std::string
FaultInjector::summary() const
{
    std::ostringstream os;
    for (const FaultRule &r : rules) {
        os << faultSiteName(r.site);
        if (r.probability > 0.0)
            os << " p=" << r.probability;
        else if (r.everyNth > 0)
            os << " every=" << r.everyNth;
        else if (r.hasAtTick)
            os << " at=" << r.atTick;
        if (r.opcode >= 0) {
            const char *name = faultOpcodeName(r.opcode);
            if (name)
                os << " op=" << name;
            else
                os << " op=" << r.opcode;
        }
        if (r.device >= 0)
            os << " device=" << r.device;
        if (r.wq >= 0)
            os << " wq=" << r.wq;
        if (r.engine >= 0)
            os << " engine=" << r.engine;
        if (r.pasid >= 0)
            os << " pasid=" << r.pasid;
        os << ": " << r.fires << "/" << r.matches << " fired\n";
    }
    return os.str();
}

namespace
{

FaultSite
parseSite(const std::string &s)
{
    for (FaultSite site :
         {FaultSite::CompletionError, FaultSite::EngineHang,
          FaultSite::DeviceDisable, FaultSite::WqReject,
          FaultSite::PageFault}) {
        if (s == faultSiteName(site))
            return site;
    }
    fatal("unknown fault site '%s'", s.c_str());
}

int
parseOpcode(const std::string &s)
{
    fatal_if(faultOpcodeCount() == 0,
             "op= in fault spec but no opcode-name table registered "
             "(setFaultOpcodeNames)");
    for (int op = 0; op < faultOpcodeCount(); ++op) {
        if (s == faultOpcodeName(op))
            return op;
    }
    fatal("unknown opcode '%s' in fault spec", s.c_str());
}

HwErrorKind
parseError(const std::string &s)
{
    if (s == "read")
        return HwErrorKind::Read;
    if (s == "write")
        return HwErrorKind::Write;
    if (s == "decode")
        return HwErrorKind::Decode;
    fatal("unknown hw-error kind '%s' (read|write|decode)", s.c_str());
}

} // namespace

std::unique_ptr<FaultInjector>
FaultInjector::fromSpec(const std::string &spec, std::uint64_t seed)
{
    if (spec.empty())
        return nullptr;
    auto inj = std::make_unique<FaultInjector>(seed);
    std::istringstream ruleStream(spec);
    std::string ruleSpec;
    while (std::getline(ruleStream, ruleSpec, ';')) {
        if (ruleSpec.empty())
            continue;
        FaultRule r;
        std::size_t colon = ruleSpec.find(':');
        r.site = parseSite(ruleSpec.substr(0, colon));
        if (colon != std::string::npos) {
            std::istringstream kvStream(ruleSpec.substr(colon + 1));
            std::string kv;
            while (std::getline(kvStream, kv, ',')) {
                std::size_t eq = kv.find('=');
                fatal_if(eq == std::string::npos,
                         "fault spec entry '%s' is not key=value",
                         kv.c_str());
                std::string key = kv.substr(0, eq);
                std::string val = kv.substr(eq + 1);
                if (key == "p") {
                    r.probability = std::stod(val);
                } else if (key == "every") {
                    r.everyNth = std::stoull(val);
                } else if (key == "at") {
                    r.atTick = std::stoull(val);
                    r.hasAtTick = true;
                    if (r.maxFires == ~std::uint64_t{0})
                        r.maxFires = 1;
                } else if (key == "max") {
                    r.maxFires = std::stoull(val);
                } else if (key == "device") {
                    r.device = std::stoi(val);
                } else if (key == "wq") {
                    r.wq = std::stoi(val);
                } else if (key == "engine") {
                    r.engine = std::stoi(val);
                } else if (key == "pasid") {
                    r.pasid = std::stoll(val);
                } else if (key == "op") {
                    r.opcode = parseOpcode(val);
                } else if (key == "error") {
                    r.error = parseError(val);
                } else {
                    fatal("unknown fault spec key '%s'", key.c_str());
                }
            }
        }
        inj->addRule(r);
    }
    return inj->ruleCount() ? std::move(inj) : nullptr;
}

std::unique_ptr<FaultInjector>
FaultInjector::fromEnv()
{
    const char *spec = std::getenv("DSASIM_FAULTS");
    if (!spec || !*spec)
        return nullptr;
    std::uint64_t seed = 1;
    if (const char *s = std::getenv("DSASIM_FAULT_SEED"))
        seed = std::strtoull(s, nullptr, 0);
    return fromSpec(spec, seed);
}

} // namespace dsasim
