/**
 * @file
 * Telemetry registry, deterministic sampler and exporters
 * (DESIGN.md §15). See sim/stats.hh for the architecture.
 */

#include "sim/stats.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace dsasim
{
namespace stats
{

// --------------------------------------------------------------------
// Registry

Registry::Metric &
Registry::add(const std::string &name, Kind kind,
              const std::string &help)
{
    fatal_if(name.empty(), "stats::Registry: empty metric name");
    auto [it, inserted] = metrics.try_emplace(name);
    fatal_if(!inserted,
             "stats::Registry: duplicate metric name '%s' (use "
             "Registry::scope() for multi-instance components)",
             name.c_str());
    it->second.kind = kind;
    it->second.help = help;
    return it->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return add(name, Kind::Counter, help).ctr;
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  std::function<std::uint64_t()> supplier)
{
    Metric &m = add(name, Kind::Counter, help);
    m.ctr.fn = std::move(supplier);
    return m.ctr;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return add(name, Kind::Gauge, help).gau;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                std::function<double()> supplier)
{
    Metric &m = add(name, Kind::Gauge, help);
    m.gau.fn = std::move(supplier);
    return m.gau;
}

std::string
Registry::scope(const std::string &stem)
{
    unsigned &n = scopes[stem];
    return stem + std::to_string(n++);
}

bool
Registry::has(const std::string &name) const // simlint:observer
{
    return metrics.find(name) != metrics.end();
}

std::uint64_t
Registry::counterValue(const std::string &name) const // simlint:observer
{
    const auto it = metrics.find(name);
    fatal_if(it == metrics.end(),
             "stats::Registry: no metric named '%s'", name.c_str());
    fatal_if(it->second.kind != Kind::Counter,
             "stats::Registry: metric '%s' is not a counter",
             name.c_str());
    return it->second.ctr.value();
}

void
Registry::sampleInto(Snapshot &snap) const // simlint:observer
{
    const bool rebuild = snap.entries.size() != metrics.size();
    if (rebuild) {
        snap.entries.clear();
        snap.entries.resize(metrics.size());
    }
    std::size_t i = 0;
    for (const auto &[name, m] : metrics) {
        SnapshotEntry &e = snap.entries[i++];
        if (rebuild || e.name != name) {
            e.name = name;
            e.help = m.help;
            e.kind = m.kind;
        }
        e.value = m.kind == Kind::Counter
                      ? static_cast<double>(m.ctr.value())
                      : m.gau.value();
    }
}

Registry::Snapshot
Registry::snapshot() const // simlint:observer
{
    Snapshot snap;
    sampleInto(snap);
    return snap;
}

void
Registry::fold(const Registry &src, const std::string &prefix)
{
    // Upsert semantics: barrier-time folds overwrite the previous
    // interval's copy. Supplier-backed sources are evaluated now and
    // stored flat, so the folded view has no cross-domain references.
    for (const auto &[name, m] : src.metrics) {
        const std::string full = prefix + name;
        auto it = metrics.find(full);
        if (it == metrics.end()) {
            it = metrics.try_emplace(full).first;
            it->second.kind = m.kind;
            it->second.help = m.help;
        } else {
            fatal_if(it->second.kind != m.kind,
                     "stats::Registry::fold: metric '%s' changed "
                     "kind across folds",
                     full.c_str());
        }
        Metric &dst = it->second;
        if (m.kind == Kind::Counter)
            dst.ctr.cell = m.ctr.value();
        else
            dst.gau.cell = m.gau.value();
    }
}

// --------------------------------------------------------------------
// Export knobs

bool
samplingEnabled()
{
    const char *v = std::getenv("DSASIM_STATS");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::string
exportPrefix()
{
    const char *v = std::getenv("DSASIM_STATS");
    if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0)
        return "";
    if (std::strcmp(v, "1") == 0)
        return "dsasim-stats-";
    return v;
}

Tick
samplePeriodTicks()
{
    const char *v = std::getenv("DSASIM_STATS_PERIOD");
    double ns = 1000.0;
    if (v != nullptr && *v != '\0') {
        ns = std::atof(v);
        fatal_if(ns <= 0.0,
                 "DSASIM_STATS_PERIOD: expected a positive "
                 "nanosecond count, got '%s'",
                 v);
    }
    return fromNs(ns);
}

// --------------------------------------------------------------------
// Exporters

std::string
prometheusName(const std::string &name)
{
    std::string out = "dsasim_";
    out.reserve(out.size() + name.size());
    for (const char c : name)
        out.push_back(
            std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    return out;
}

namespace
{

/** Integers print exactly; anything else round-trips via %.17g. */
void
printDouble(std::FILE *out, double v)
{
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        std::fprintf(out, "%lld",
                     static_cast<long long>(v));
        return;
    }
    std::fprintf(out, "%.17g", v);
}

/**
 * Close @p f; false if any write to it failed or the close did (the
 * final flush is where a full disk usually shows).
 */
bool
closeChecked(std::FILE *f)
{
    const bool wrote = std::ferror(f) == 0;
    return std::fclose(f) == 0 && wrote;
}

} // namespace

void
writePrometheus(const Registry::Snapshot &snap,
                std::FILE *out) // simlint:observer
{
    std::fprintf(out,
                 "# dsasim telemetry snapshot at tick %llu\n",
                 static_cast<unsigned long long>(snap.when));
    for (const Registry::SnapshotEntry &e : snap.entries) {
        const std::string pname = prometheusName(e.name);
        std::fprintf(out, "# HELP %s %s\n", pname.c_str(),
                     e.help.empty() ? e.name.c_str()
                                    : e.help.c_str());
        std::fprintf(out, "# TYPE %s %s\n", pname.c_str(),
                     e.kind == Registry::Kind::Counter ? "counter"
                                                       : "gauge");
        std::fprintf(out, "%s ", pname.c_str());
        printDouble(out, e.value);
        std::fprintf(out, "\n");
    }
}

bool
validatePrometheus(const std::string &text, std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };

    struct Family
    {
        bool haveHelp = false;
        std::string type; ///< empty until the TYPE line
    };
    std::map<std::string, Family> families;

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string at =
            "line " + std::to_string(lineno) + ": ";
        if (line.empty())
            continue;
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            const bool is_help = line[2] == 'H';
            std::istringstream ls(line.substr(7));
            std::string metric, type;
            ls >> metric;
            if (metric.empty())
                return fail(at + "malformed HELP/TYPE line");
            Family &f = families[metric];
            if (is_help) {
                f.haveHelp = true;
            } else {
                ls >> type;
                if (type != "counter" && type != "gauge")
                    return fail(at + "unknown TYPE '" + type + "'");
                f.type = type;
            }
            continue;
        }
        if (line[0] == '#')
            continue; // plain comment
        // Sample line: name[{labels}] value
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            return fail(at + "sample line with no value");
        const std::string metric =
            line.substr(0, std::min(space, line.find('{')));
        const auto fit = families.find(metric);
        if (fit == families.end() || !fit->second.haveHelp ||
            fit->second.type.empty())
            return fail(at + "sample '" + metric +
                        "' missing HELP/TYPE");
        const double value = std::atof(line.c_str() + space + 1);
        if (!(value >= 0.0) && fit->second.type == "counter")
            return fail(at + "negative counter sample '" + metric +
                        "'");
    }
    if (error != nullptr)
        error->clear();
    return true;
}

// --------------------------------------------------------------------
// Sampler

Sampler::Sampler(Simulation &s, Tick period)
    : sim(s), tickPeriod(period)
{
    fatal_if(period == 0, "stats::Sampler: zero sampling period");
    sim.setSampleHook(period, [this] { sample(); });
}

Sampler::~Sampler()
{
    sim.clearSampleHook();
}

void
Sampler::lockColumns()
{
    const Registry &reg =
        static_cast<const Simulation &>(sim).stats();
    columns.reserve(reg.metrics.size());
    for (const auto &[name, m] : reg.metrics)
        columns.push_back({name, m.kind, &m.ctr, &m.gau});
}

void
Sampler::decimate() // simlint:observer
{
    // Keep the later row of each pair so the series still ends at
    // the newest sample, and double the cadence: memory stays
    // bounded on arbitrarily long runs, the surviving spacing stays
    // uniform, and the kept ticks are a function of simulated time
    // only — identical runs decimate identically.
    std::size_t w = 0;
    for (std::size_t r = 1; r < rows.size(); r += 2)
        rows[w++] = std::move(rows[r]);
    rows.resize(w);
    tickPeriod *= 2;
    // Retuning the hook cadence schedules no event and hashes
    // nothing (Simulation::setSamplePeriod): fingerprints are
    // untouched.
    // simlint:allow(observer-purity)
    sim.setSamplePeriod(tickPeriod);
}

void
Sampler::sample() // simlint:observer
{
    if (columns.empty()) {
        lockColumns();
    } else if (!warnedNewMetrics &&
               static_cast<const Simulation &>(sim).stats().size() !=
                   columns.size()) {
        std::fprintf(stderr,
                     "dsasim: stats: metrics registered after the "
                     "first sample are omitted from the CSV (columns "
                     "are locked); they still appear in the "
                     "Prometheus export\n");
        warnedNewMetrics = true;
    }

    // The hot path: straight reads through the locked metric
    // references — no name lookups, no snapshot rebuild.
    Row row;
    row.when = sim.now();
    row.values.reserve(columns.size());
    for (const Column &c : columns) {
        row.values.push_back(c.kind == Registry::Kind::Counter
                                 ? static_cast<double>(c.ctr->value())
                                 : c.gau->value());
    }
    rows.push_back(std::move(row));
    if (rows.size() >= maxRows)
        decimate();

    // Keep the Prometheus snapshot part of the recording: fresh on
    // short runs, at most snapRefresh samples stale on long ones —
    // and never read from the live registry at export time, when
    // supplier-backed owners may already be gone.
    ++samplesSinceSnap;
    if (rows.size() <= snapRefresh ||
        samplesSinceSnap >= snapRefresh) {
        static_cast<const Simulation &>(sim).stats().sampleInto(
            snap);
        snap.when = sim.now();
        samplesSinceSnap = 0;
    }
}

bool
Sampler::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "tick_ps");
    for (const Column &c : columns)
        std::fprintf(f, ",%s", c.name.c_str());
    std::fprintf(f, "\n");
    for (const Row &r : rows) {
        std::fprintf(f, "%llu",
                     static_cast<unsigned long long>(r.when));
        for (const double v : r.values) {
            std::fprintf(f, ",");
            printDouble(f, v);
        }
        std::fprintf(f, "\n");
    }
    return closeChecked(f);
}

bool
Sampler::writePrometheusFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    writePrometheus(snap, f);
    return closeChecked(f);
}

} // namespace stats
} // namespace dsasim
