/**
 * statsdump — render a stats::Sampler CSV time series as
 * `pcm-accel`-style interval lines (one line per DSA device per
 * interval, rates computed from counter deltas):
 *
 *   1.000us dsa0: in 3.25 GB/s out 3.25 GB/s reqs 1.20M/s \
 *       retries 0 faults 2 atc-misses 1
 *
 * The input is the <prefix><name>.csv written by a DSASIM_STATS run
 * (sim/stats.hh): a tick_ps column followed by one column per
 * counter or gauge. Per-engine byte/fault counters are summed per
 * device, the way pcm-accel aggregates per-engine event counts. Rows
 * are coalesced into intervals of --interval-us (default: every
 * sample row is an interval).
 *
 * Usage: statsdump <stats.csv> [--interval-us=U] [--list]
 *
 * Standalone: parses the CSV only, links nothing from the simulator
 * (the export file is the interface, not the process).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace
{

struct Table
{
    std::vector<std::string> columns; ///< excluding tick_ps
    std::vector<std::uint64_t> ticks; ///< tick_ps per row
    std::vector<std::vector<double>> rows;
};

bool
loadCsv(const char *path, Table &t)
{
    std::FILE *f = std::fopen(path, "r");
    if (f == nullptr) {
        std::fprintf(stderr, "statsdump: cannot open %s\n", path);
        return false;
    }
    std::string line;
    char buf[1 << 16];
    bool header = true;
    while (std::fgets(buf, sizeof(buf), f)) {
        line = buf;
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r'))
            line.pop_back();
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t start = 0;
        for (;;) {
            std::size_t comma = line.find(',', start);
            cells.push_back(line.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        if (header) {
            if (cells.empty() || cells[0] != "tick_ps") {
                std::fprintf(stderr,
                             "statsdump: %s is not a stats CSV "
                             "(first column must be tick_ps)\n",
                             path);
                std::fclose(f);
                return false;
            }
            t.columns.assign(cells.begin() + 1, cells.end());
            header = false;
            continue;
        }
        if (cells.size() != t.columns.size() + 1) {
            std::fprintf(stderr,
                         "statsdump: row with %zu cells, expected "
                         "%zu\n",
                         cells.size(), t.columns.size() + 1);
            std::fclose(f);
            return false;
        }
        t.ticks.push_back(std::strtoull(cells[0].c_str(), nullptr, 10));
        std::vector<double> row;
        row.reserve(t.columns.size());
        for (std::size_t i = 1; i < cells.size(); ++i)
            row.push_back(std::strtod(cells[i].c_str(), nullptr));
        t.rows.push_back(std::move(row));
    }
    std::fclose(f);
    return !header;
}

/** Per-device column indices (-1 = absent). */
struct DeviceCols
{
    int submitted = -1;
    int retried = -1;
    std::vector<int> bytesRead;
    std::vector<int> bytesWritten;
    std::vector<int> pageFaults;
    std::vector<int> atcMisses;
};

/**
 * Map "dsa<N>.descriptors_*" and "dsa<N>.eng<E>.*" columns (with or
 * without a "socket<S>." fold prefix) onto per-device slots.
 */
std::map<std::string, DeviceCols>
findDevices(const std::vector<std::string> &columns)
{
    std::map<std::string, DeviceCols> out;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const std::string &name = columns[i];
        std::size_t dsa = name.find("dsa");
        if (dsa != 0 && (dsa == std::string::npos ||
                         name.compare(0, 6, "socket") != 0))
            continue;
        if (dsa == std::string::npos)
            continue;
        std::size_t dot = name.find('.', dsa);
        if (dot == std::string::npos)
            continue;
        const std::string dev = name.substr(0, dot); // [socketS.]dsaN
        const std::string rest = name.substr(dot + 1);
        DeviceCols &d = out[dev];
        const int idx = static_cast<int>(i);
        if (rest == "descriptors_submitted")
            d.submitted = idx;
        else if (rest == "descriptors_retried")
            d.retried = idx;
        else if (rest.compare(0, 3, "eng") == 0) {
            std::size_t edot = rest.find('.');
            if (edot == std::string::npos)
                continue;
            const std::string leaf = rest.substr(edot + 1);
            if (leaf == "bytes_read")
                d.bytesRead.push_back(idx);
            else if (leaf == "bytes_written")
                d.bytesWritten.push_back(idx);
            else if (leaf == "page_faults")
                d.pageFaults.push_back(idx);
            else if (leaf == "atc_misses")
                d.atcMisses.push_back(idx);
        }
    }
    // Keep only entries that look like a device (portal counters or
    // at least one engine column).
    for (auto it = out.begin(); it != out.end();) {
        const DeviceCols &d = it->second;
        if (d.submitted < 0 && d.bytesRead.empty())
            it = out.erase(it);
        else
            ++it;
    }
    return out;
}

double
sumAt(const std::vector<double> &row, const std::vector<int> &idx)
{
    double s = 0.0;
    for (int i : idx)
        s += row[static_cast<std::size_t>(i)];
    return s;
}

double
at(const std::vector<double> &row, int i)
{
    return i < 0 ? 0.0 : row[static_cast<std::size_t>(i)];
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    double intervalUs = 0.0; // 0 = one interval per sample row
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--interval-us=", 14) == 0)
            intervalUs = std::strtod(argv[i] + 14, nullptr);
        else if (std::strcmp(argv[i], "--list") == 0)
            list = true;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "usage: statsdump <stats.csv> "
                         "[--interval-us=U] [--list]\n");
            return 2;
        } else
            path = argv[i];
    }
    if (path == nullptr) {
        std::fprintf(stderr,
                     "usage: statsdump <stats.csv> "
                     "[--interval-us=U] [--list]\n");
        return 2;
    }

    Table t;
    if (!loadCsv(path, t))
        return 1;
    if (list) {
        for (const std::string &c : t.columns)
            std::printf("%s\n", c.c_str());
        return 0;
    }
    if (t.rows.size() < 2) {
        std::fprintf(stderr,
                     "statsdump: need at least 2 sample rows for an "
                     "interval (%zu found)\n",
                     t.rows.size());
        return 1;
    }

    auto devices = findDevices(t.columns);
    if (devices.empty()) {
        std::fprintf(stderr,
                     "statsdump: no dsa<N> metric columns in %s\n",
                     path);
        return 1;
    }

    const double stepPs = intervalUs * 1e6;
    std::size_t prev = 0;
    for (std::size_t cur = 1; cur < t.rows.size(); ++cur) {
        // Coalesce rows until the requested interval has elapsed
        // (always emit the final partial interval).
        if (stepPs > 0.0 && cur + 1 < t.rows.size() &&
            static_cast<double>(t.ticks[cur] - t.ticks[prev]) <
                stepPs)
            continue;
        const double secs =
            static_cast<double>(t.ticks[cur] - t.ticks[prev]) * 1e-12;
        const double safeSecs = secs > 0 ? secs : 1e-12;
        for (const auto &[dev, cols] : devices) {
            const std::vector<double> &a = t.rows[prev];
            const std::vector<double> &b = t.rows[cur];
            const double inB =
                sumAt(b, cols.bytesRead) - sumAt(a, cols.bytesRead);
            const double outB = sumAt(b, cols.bytesWritten) -
                                sumAt(a, cols.bytesWritten);
            const double reqs =
                at(b, cols.submitted) - at(a, cols.submitted);
            const double retries =
                at(b, cols.retried) - at(a, cols.retried);
            const double faults = sumAt(b, cols.pageFaults) -
                                  sumAt(a, cols.pageFaults);
            const double atc = sumAt(b, cols.atcMisses) -
                               sumAt(a, cols.atcMisses);
            std::printf(
                "%12.3fus %s: in %.2f GB/s out %.2f GB/s reqs "
                "%.2fM/s retries %llu faults %llu atc-misses %llu\n",
                static_cast<double>(t.ticks[cur]) * 1e-6, dev.c_str(),
                inB / 1e9 / safeSecs, outB / 1e9 / safeSecs,
                reqs / 1e6 / safeSecs,
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(atc));
        }
        prev = cur;
    }
    return 0;
}
