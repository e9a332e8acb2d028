#include "sim/traffic.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace dsasim
{

double
CounterRng::expAt(std::uint64_t k) const
{
    // uniformAt() < 1, so the argument of log stays positive and the
    // variate finite.
    return -std::log(1.0 - uniformAt(k));
}

const char *
arrivalPatternName(ArrivalPattern p)
{
    switch (p) {
      case ArrivalPattern::Poisson: return "poisson";
      case ArrivalPattern::Bursty: return "bursty";
      case ArrivalPattern::Diurnal: return "diurnal";
    }
    return "?";
}

namespace
{

ArrivalPattern
parsePattern(const std::string &s)
{
    for (ArrivalPattern p :
         {ArrivalPattern::Poisson, ArrivalPattern::Bursty,
          ArrivalPattern::Diurnal}) {
        if (s == arrivalPatternName(p))
            return p;
    }
    fatal("unknown arrival pattern '%s' (poisson|bursty|diurnal)",
          s.c_str());
}

} // namespace

ArrivalMix
ArrivalMix::parse(const std::string &spec)
{
    ArrivalMix mix;
    std::istringstream classStream(spec);
    std::string classSpec;
    while (std::getline(classStream, classSpec, ';')) {
        if (classSpec.empty())
            continue;
        ArrivalClass c;
        std::size_t colon = classSpec.find(':');
        c.pattern = parsePattern(classSpec.substr(0, colon));
        if (colon != std::string::npos) {
            std::istringstream kvStream(classSpec.substr(colon + 1));
            std::string kv;
            while (std::getline(kvStream, kv, ',')) {
                std::size_t eq = kv.find('=');
                fatal_if(eq == std::string::npos,
                         "arrival spec entry '%s' is not key=value",
                         kv.c_str());
                std::string key = kv.substr(0, eq);
                std::string val = kv.substr(eq + 1);
                if (key == "rate") {
                    c.ratePerSec = std::stod(val);
                } else if (key == "weight") {
                    c.weight = static_cast<unsigned>(
                        std::stoul(val));
                } else if (key == "bytes") {
                    c.payloadBytes = std::stoull(val);
                } else if (key == "factor") {
                    c.burstFactor = std::stod(val);
                } else if (key == "period") {
                    unsigned n =
                        static_cast<unsigned>(std::stoul(val));
                    c.burstPeriod = n;
                    c.diurnalPeriod = n;
                } else if (key == "duty") {
                    c.burstDuty = std::stod(val);
                } else if (key == "amp") {
                    c.diurnalAmplitude = std::stod(val);
                } else {
                    fatal("unknown arrival spec key '%s'",
                          key.c_str());
                }
            }
        }
        fatal_if(c.ratePerSec <= 0.0,
                 "arrival class rate must be positive");
        fatal_if(c.weight == 0, "arrival class weight must be >= 1");
        fatal_if(c.burstPeriod == 0 || c.diurnalPeriod == 0,
                 "arrival class period must be >= 1");
        fatal_if(c.burstDuty <= 0.0 || c.burstDuty >= 1.0,
                 "arrival class duty must be in (0,1)");
        mix.classes.push_back(c);
        mix.totalWeight += c.weight;
    }
    fatal_if(mix.classes.empty(),
             "arrival mix spec '%s' defines no classes",
             spec.c_str());
    return mix;
}

std::size_t
ArrivalMix::classIndexFor(std::uint64_t tenant) const
{
    // Weighted round-robin on the tenant index: class shares follow
    // the weights exactly and never depend on construction order.
    std::uint64_t slot = tenant % totalWeight;
    for (std::size_t i = 0; i < classes.size(); ++i) {
        if (slot < classes[i].weight)
            return i;
        slot -= classes[i].weight;
    }
    return classes.size() - 1;
}

const ArrivalClass &
ArrivalMix::classFor(std::uint64_t tenant) const
{
    return classes[classIndexFor(tenant)];
}

Tick
ArrivalStream::interarrival(std::uint64_t k) const
{
    double scale = 1.0;
    switch (cls.pattern) {
      case ArrivalPattern::Poisson:
        break;
      case ArrivalPattern::Bursty: {
        // On/off cycle indexed by arrival count. The off-phase rate
        // is chosen so the cycle's mean rate stays ratePerSec; when
        // the on-phase alone exceeds the mean the off scale clamps
        // at a floor and the class runs slightly hot (documented in
        // EXPERIMENTS.md).
        const double on = static_cast<double>(cls.burstPeriod) *
                          cls.burstDuty;
        const bool inBurst =
            static_cast<double>(k % cls.burstPeriod) < on;
        const double offScale = std::max(
            0.05, (1.0 - cls.burstDuty * cls.burstFactor) /
                      (1.0 - cls.burstDuty));
        scale = inBurst ? cls.burstFactor : offScale;
        break;
      }
      case ArrivalPattern::Diurnal: {
        constexpr double kTwoPi = 6.283185307179586;
        const double phase =
            static_cast<double>(k % cls.diurnalPeriod) /
            static_cast<double>(cls.diurnalPeriod);
        scale = std::max(
            0.05, 1.0 + cls.diurnalAmplitude * std::sin(kTwoPi *
                                                        phase));
        break;
      }
    }
    const double meanTicks =
        static_cast<double>(ticksPerSec) / (cls.ratePerSec * scale);
    const double gap = meanTicks * rng.expAt(k);
    return std::max<Tick>(1, static_cast<Tick>(gap));
}

} // namespace dsasim
