#include "bench_lib.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cache/set_assoc.hh"

namespace perfbench {

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::begin(const char *name, int parent)
{
    spans_.push_back({name, parent, nowNs(), 0.0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

std::map<std::string, double>
SpanLog::selfNsByName() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<int>(i));
    }
    std::map<std::string, double> self;
    std::vector<std::pair<double, double>> cover;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        cover.clear();
        for (int c : children[i]) {
            const Span &k = spans_[static_cast<std::size_t>(c)];
            const double lo = std::max(k.startNs, s.startNs);
            const double hi = std::min(k.endNs, s.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double runLo = 0.0, runHi = -1.0;
        for (const auto &iv : cover) {
            if (iv.first > runHi) {
                if (runHi > runLo)
                    covered += runHi - runLo;
                runLo = iv.first;
                runHi = iv.second;
            } else {
                runHi = std::max(runHi, iv.second);
            }
        }
        if (runHi > runLo)
            covered += runHi - runLo;
        self[s.name] += std::max(0.0, (s.endNs - s.startNs) - covered);
    }
    return self;
}

toleo::Json
SpanLog::toJson() const
{
    toleo::Json out = toleo::Json::array();
    const double t0 = spans_.empty() ? 0.0 : spans_.front().startNs;
    for (const Span &s : spans_) {
        toleo::Json j = toleo::Json::array();
        j.push_back(s.name);
        j.push_back(s.parent);
        j.push_back(s.startNs - t0);
        j.push_back(s.endNs - t0);
        out.push_back(std::move(j));
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailPick
pickTail(std::vector<double> samples)
{
    TailPick out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // Nearest rank: the smallest sample with at least p% of the
    // samples at or below it (1-based rank ceil(p/100 * n)).
    auto rank = [n](double pct) {
        const double r = std::ceil(pct / 100.0 * static_cast<double>(n));
        return std::min(n, std::max<std::size_t>(
                               1, static_cast<std::size_t>(r)));
    };
    out.p50 = samples[rank(50.0) - 1];
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const std::size_t r = rank(pct);
        if (n - r >= 10 || pct == 50.0) {
            out.pct = pct;
            out.value = samples[r - 1];
            out.beyond = n - r;
            break;
        }
    }
    return out;
}

double
geomeanOverheadPct(const std::vector<double> &ratios)
{
    if (ratios.empty())
        throw std::invalid_argument("geomeanOverheadPct: no ratios");
    double logSum = 0.0;
    for (double r : ratios) {
        if (!std::isfinite(r) || r <= 0.0)
            throw std::invalid_argument(
                "geomeanOverheadPct: ratio must be positive and finite");
        logSum += std::log(r);
    }
    return std::expm1(logSum / static_cast<double>(ratios.size())) *
           100.0;
}

std::uint64_t
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** The set-probe path SetAssocCache::scanWays takes for the scaled
 *  configuration's caches (all at least 8-way). */
std::string
setProbePath()
{
#if TOLEO_SET_ASSOC_SIMD
    return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#else
    return "scalar";
#endif
}

/** STREAM-style triad a[i] = b[i] + s*c[i] over three 16 MiB arrays;
 *  best of five passes, counting 3 x 8 bytes per element. */
double
triadGBps()
{
    constexpr std::size_t n = std::size_t{2} << 20;
    auto a = std::make_unique<double[]>(n);
    auto b = std::make_unique<double[]>(n);
    auto c = std::make_unique<double[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
        b[i] = 1.0 + static_cast<double>(i & 7);
        c[i] = 2.0;
    }
    const double s = 3.0;
    double best = 0.0;
    double sink = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
        const double t0 = nowNs();
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        const double ns = nowNs() - t0;
        sink += a[n / 2 + static_cast<std::size_t>(pass)];
        best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) / ns);
    }
    // Keep the passes observable so they are not folded away.
    return sink > 0.0 ? best : 0.0;
}

} // namespace

toleo::Json
hostFingerprint()
{
    toleo::Json j = toleo::Json::object();
    j["nproc"] = std::max(1u, std::thread::hardware_concurrency());
    j["cpu"] = cpuModel();
    j["setProbe"] = setProbePath();
#if defined(__clang__)
    j["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    j["compiler"] = std::string("gcc ") + __VERSION__;
#else
    j["compiler"] = "unknown";
#endif
    j["buildType"] = PERFBENCH_BUILD_TYPE;
    j["triadGBps"] = triadGBps();
    return j;
}

} // namespace perfbench
