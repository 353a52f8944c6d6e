/**
 * @file
 * Shared helpers for the experiment harnesses in bench/.
 *
 * Every paper table/figure binary uses runExperiment() with a common
 * scaled-node configuration: 8 cores (the paper itself scales its
 * 128-core node down 4x; we scale once more to keep each binary in
 * seconds), default warmup/measure windows sized so rates (MPKI, hit
 * rates, bytes/instruction) are stable.  Absolute times are not
 * comparable to the paper's testbed; shapes and ratios are.
 */

#ifndef TOLEO_BENCH_BENCH_UTIL_HH
#define TOLEO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace toleo {

/**
 * Run one cell with the shared sweep API (see sim/sweep.hh).  The
 * default SweepOptions are the common experiment window.
 */
inline SimStats
runExperiment(const std::string &workload, EngineKind kind,
              const SweepOptions &opts = {})
{
    return runSweepCell({workload, kind}, opts);
}

inline void
printHeader(const char *title)
{
    std::printf("\n%s\n", title);
    for (const char *p = title; *p; ++p)
        std::printf("=");
    std::printf("\n");
}

} // namespace toleo

#endif // TOLEO_BENCH_BENCH_UTIL_HH
