/**
 * @file
 * Table 2: benchmark characteristics -- paper RSS/MPKI next to the
 * simulated LLC MPKI of our synthetic stand-ins (NoProtect config, so
 * MPKI is a pure workload property).
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Table 2: Benchmarks (paper vs simulated)");

    std::printf("%-12s %-14s %10s %12s %12s\n", "bench", "suite",
                "RSS(paper)", "MPKI(paper)", "MPKI(sim)");

    for (const auto &name : paperWorkloads()) {
        const auto info = workloadInfo(name);
        const auto st = runExperiment(name, EngineKind::NoProtect);
        std::printf("%-12s %-14s %8.2fGB %12.2f %12.2f\n",
                    name.c_str(), info.suite.c_str(),
                    static_cast<double>(info.paperRssBytes) / GiB,
                    info.paperLlcMpki, st.llcMpki);
    }
    std::printf("\nshape check: pr >> llama2 > bfs >> "
                "{memcached,hyrise,sssp} > {bsw} > rest\n");
    return 0;
}
