/**
 * @file
 * Figure 7: stealth-version cache and MAC cache hit rates under the
 * Toleo configuration.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Figure 7: Metadata Cache Hit Rates (Toleo config)");

    std::printf("%-12s %14s %12s\n", "bench", "StealthCache",
                "MACCache");

    double sum_s = 0, sum_m = 0;
    for (const auto &name : paperWorkloads()) {
        const auto st = runExperiment(name, EngineKind::Toleo);
        std::printf("%-12s %13.1f%% %11.1f%%\n", name.c_str(),
                    st.stealthCacheHitRate * 100,
                    st.macCacheHitRate * 100);
        sum_s += st.stealthCacheHitRate;
        sum_m += st.macCacheHitRate;
    }
    const double n = paperWorkloads().size();
    std::printf("%-12s %13.1f%% %11.1f%%\n", "average",
                sum_s / n * 100, sum_m / n * 100);

    std::printf("\npaper: stealth avg 98%% (redis 67%%, memcached "
                "85%%); MAC avg 67%% (worst 11%%)\n");
    return 0;
}
