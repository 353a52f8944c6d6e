/**
 * @file
 * Self-test of the benchmark's own logic: tail-percentile selection and
 * its sample count, geomean overhead, digest comparison, and the layer
 * replay's cross-check against System on small cells.  Exits non-zero
 * on the first failed check.  Run with `python3 perfbench/run.py
 * --self-test`.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench_lib.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testTail()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    TailPick t = pickTail(v);
    // p99.9 of 1000 leaves 1 beyond; p99 leaves 10 -> p99 is chosen.
    expect(t.samples == 1000 && t.pct == 99.0 && t.value == 990.0 &&
               t.beyond == 10 && t.p50 == 500.0,
           "tail: 1000 samples pick p99 = 990 with 10 beyond");

    v.resize(100);
    t = pickTail(v);
    expect(t.pct == 90.0 && t.value == 90.0 && t.beyond == 10,
           "tail: 100 samples pick p90 with 10 beyond");

    v.resize(15);
    t = pickTail(v);
    expect(t.pct == 50.0 && t.value == 8.0 && t.beyond == 7,
           "tail: 15 samples fall back to the median, 7 beyond");

    t = pickTail({5.0, 1.0, 3.0});
    expect(t.p50 == 3.0 && t.samples == 3, "tail: unsorted input");
    t = pickTail({});
    expect(t.samples == 0 && t.value == 0.0, "tail: empty input");
}

void
testGeomean()
{
    expect(near(geomeanOverheadPct({1.1, 1.1}), 10.0),
           "geomean: equal ratios give their overhead");
    expect(near(geomeanOverheadPct({1.21, 1.0}), 10.0),
           "geomean: sqrt(1.21 * 1.0) - 1 = 10%");
    expect(near(geomeanOverheadPct({2.0, 0.5}), 0.0),
           "geomean: reciprocal ratios cancel");
    bool threw = false;
    try {
        geomeanOverheadPct({1.0, 0.0});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "geomean: non-positive ratio rejected");
    threw = false;
    try {
        geomeanOverheadPct({});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "geomean: empty list rejected");
}

void
testDigest()
{
    expect(digest("") == 0xcbf29ce484222325ULL, "digest: FNV-1a offset");
    expect(digest("a") == 0xaf63dc4c8601ec8cULL, "digest: FNV-1a of 'a'");
    toleo::SimStats s;
    s.workload = "bsw";
    s.execSeconds = 1.0;
    const std::uint64_t d0 = digest(toleo::statsToJson(s).dump());
    s.execSeconds = std::nextafter(1.0, 2.0);
    expect(digest(toleo::statsToJson(s).dump()) != d0,
           "digest: a one-ulp change in a statistic changes the digest");
}

WorkloadSpec
smallSpec(std::vector<toleo::SweepCell> cells, unsigned rackNodes)
{
    WorkloadSpec spec;
    spec.name = "selftest";
    spec.cells = std::move(cells);
    spec.cores = 2;
    // Long enough for the 1 MiB L3 to evict during warmup, so the
    // measurement reset is exercised with writebacks in flight.
    spec.warmupRefs = 20000;
    spec.measureRefs = 10000;
    spec.rackNodes = rackNodes;
    return spec;
}

void
crossCheck(const WorkloadSpec &spec)
{
    for (const auto &cell : spec.cells) {
        const std::string name =
            cell.workload + "/" + toleo::engineKindName(cell.engine) +
            (spec.rackNodes ? " rack" : "");
        CellRun run = runCell(spec, cell, 42);
        expect(checkCell(spec, run).empty(), "checks pass: " + name);
        SpanLog log;
        TraceTotals totals;
        const std::string why =
            traceCell(spec, cell, 42, run, log, totals);
        expect(why.empty(), "replay matches System: " + name +
                                (why.empty() ? "" : " (" + why + ")"));
        expect(totals.work.refsDrawn == run.hostRefs,
               "replay drew every reference: " + name);

        // A NaN anywhere in a record serializes as null and fails it.
        toleo::SimStats bad = run.nodes.front();
        bad.avgMetaLatencyNs = std::nan("");
        CellRun nonFinite = run;
        nonFinite.finite =
            toleo::statsToJson(bad).dump().find("null") == std::string::npos;
        expect(!checkCell(spec, nonFinite).empty(),
               "non-finite statistic caught: " + name);

        // A record that differs from the untraced one must be caught.
        run.digest ^= 1;
        for (auto &node : run.rack.nodes)
            node.sim.instructions += 1;
        SpanLog log2;
        TraceTotals totals2;
        expect(!traceCell(spec, cell, 42, run, log2, totals2).empty(),
               "digest mismatch detected: " + name);
    }
}

void
testSelfTime()
{
    SpanLog log;
    const int root = log.begin("root", -1);
    const int a = log.begin("child", root);
    log.end(a);
    log.end(root);
    const auto self = log.selfNsByName();
    const auto &s = log.spans();
    const double rootDur = s[0].endNs - s[0].startNs;
    const double childDur = s[1].endNs - s[1].startNs;
    expect(near(self.at("root") + self.at("child"), rootDur) &&
               near(self.at("child"), childDur),
           "self time: parent minus covered child interval");
}

} // namespace

int
main()
{
    testTail();
    testGeomean();
    testDigest();
    testSelfTime();
    crossCheck(smallSpec({{"bsw", toleo::EngineKind::Toleo},
                          {"memcached", toleo::EngineKind::CI},
                          {"pr", toleo::EngineKind::InvisiMem}},
                         0));
    crossCheck(smallSpec({{"redis", toleo::EngineKind::Toleo}}, 2));
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
