/**
 * @file
 * Benchmark-side helpers: the host clock, an in-memory span log with
 * self-time attribution, the statistics the report uses (median, the
 * tail percentile with its sample count, geomean overhead), record
 * digests, and the host fingerprint every result carries.
 */

#ifndef PERFBENCH_BENCH_LIB_HH
#define PERFBENCH_BENCH_LIB_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

/** Host monotonic clock in nanoseconds. */
double nowNs();

/**
 * One traced interval.  Spans live in memory for the whole run and are
 * written out when the benchmark ends; a span's parent is the span
 * that caused it (-1 for a root).
 */
struct Span
{
    const char *name = "";
    int parent = -1;
    double startNs = 0.0;
    double endNs = 0.0;
};

class SpanLog
{
  public:
    /** Open a span now; @return its id for end(). */
    int begin(const char *name, int parent);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name: each span's duration minus the part of
     * its interval covered by its children, summed by name.
     */
    std::map<std::string, double> selfNsByName() const;

    /** Serialize every span (name, parent, start/end ns). */
    toleo::Json toJson() const;

  private:
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int parent)
        : log_(log), id_(log.begin(name, parent))
    {}
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/** Median of @p v (mean of the two middle values for even sizes);
 *  0 for an empty vector. */
double median(std::vector<double> v);

/**
 * A timing summary: the median and the highest of the candidate
 * percentiles (99.9, 99, 95, 90, 75) that leaves at least ten samples
 * beyond it, by nearest rank.  With fewer samples the tail falls back
 * to the median (pct 50) and @ref beyond says how many lie above it.
 */
struct TailPick
{
    std::size_t samples = 0;
    double p50 = 0.0;
    double pct = 0.0;        ///< the chosen percentile
    double value = 0.0;      ///< the sample at that percentile
    std::size_t beyond = 0;  ///< samples strictly after its rank
};
TailPick pickTail(std::vector<double> samples);

/**
 * Geometric-mean overhead in percent of per-workload time ratios
 * (protected / baseline): (exp(mean(log r)) - 1) * 100.
 * Throws std::invalid_argument on an empty list or a non-positive or
 * non-finite ratio.
 */
double geomeanOverheadPct(const std::vector<double> &ratios);

/** 64-bit FNV-1a digest of a serialized record. */
std::uint64_t digest(const std::string &bytes);

/** The host a result was measured on: nproc, CPU model, the SIMD path
 *  of the cache set probes, compiler, build type, and a short triad
 *  memory-bandwidth figure (GB/s). */
toleo::Json hostFingerprint();

} // namespace perfbench

#endif // PERFBENCH_BENCH_LIB_HH
