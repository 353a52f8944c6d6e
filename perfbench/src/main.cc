/**
 * @file
 * Benchmark driver.
 *
 *   perfbench --workload <paper-grid|serving-meta|rack-write>
 *             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *   perfbench --host
 *
 * An untraced run (--trace 0) repeats the workload's cells for at
 * least --seconds and reports the end-to-end metrics as medians over
 * the repetitions.  A traced run (--trace 1) first repeats the cells
 * untraced for a third of the time (the baseline the tracing overhead
 * is stated against), then repeats them traced: System stepped epoch
 * by epoch under spans, then the layer replay, and reports the
 * per-layer metrics.  The last stdout line is the result object
 * {correct, attempted, failed, metrics}; the line before it is the
 * full report.  --host prints the host fingerprint and exits.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "bench_lib.hh"
#include "workloads.hh"

using namespace perfbench;
using toleo::EngineKind;
using toleo::Json;
using toleo::SimStats;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    bool host = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n"
                 "       perfbench --host\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::exception &) {
        usage(flag + " out of range: '" + v + "'");
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--host") {
            o.host = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseUint(a, v);
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseUint(a, v));
        else if (a == "--trace")
            o.trace = parseUint(a, v) != 0;
        else if (a == "--out-dir")
            o.outDir = v;
        else
            usage("unknown flag " + a);
    }
    if (!o.host && o.workload.empty())
        usage("--workload is required");
    if (!o.host && o.seconds < 1.0)
        usage("--seconds must be at least 1");
    return o;
}

/**
 * Peak resident memory of this process image, MB.  Read from VmHWM
 * rather than getrusage(): ru_maxrss carries over the high-water mark
 * of the process that exec'd us (here the Python launcher).
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/** A metric with its unit, as printed. */
struct Metric
{
    double value;
    const char *unit;
};
using Metrics = std::map<std::string, Metric>;

Json
metricsJson(const Metrics &m)
{
    Json j = Json::object();
    for (const auto &[name, metric] : m) {
        Json v = Json::object();
        v["value"] = metric.value;
        v["unit"] = metric.unit;
        j[name] = std::move(v);
    }
    return j;
}

/** Outcome of repeating a workload's cells. */
struct Repetitions
{
    std::vector<double> refsPerS;
    std::vector<double> setupS;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** First repetition's runs, one per cell (the simulated record). */
    std::vector<CellRun> first;
};

void
noteFailure(Repetitions &reps, const toleo::SweepCell &cell,
            const std::string &why)
{
    ++reps.failed;
    if (reps.failures.size() < 8)
        reps.failures.push_back(cell.workload + "/" +
                                toleo::engineKindName(cell.engine) +
                                ": " + why);
}

/** One untraced repetition of every cell; checks each against the
 *  first repetition's digest. */
void
untracedRep(const WorkloadSpec &spec, std::uint64_t seed,
            Repetitions &reps)
{
    double refs = 0.0, runNs = 0.0, setupNs = 0.0;
    const bool firstRep = reps.first.empty();
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const toleo::SweepCell &cell = spec.cells[i];
        CellRun run = runCell(spec, cell, seed);
        refs += static_cast<double>(run.hostRefs);
        runNs += run.runNs;
        setupNs += run.setupNs;
        ++reps.attempted;
        std::string why = checkCell(spec, run);
        if (!firstRep && run.digest != reps.first[i].digest)
            why += "record differs between repetitions; ";
        if (!why.empty())
            noteFailure(reps, cell, why);
        if (firstRep)
            reps.first.push_back(std::move(run));
    }
    reps.refsPerS.push_back(refs / runNs * 1e9);
    reps.setupS.push_back(setupNs * 1e-9);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Per-node records of every cell of one engine (first repetition). */
std::vector<const SimStats *>
recordsOf(const WorkloadSpec &spec, const Repetitions &reps,
          EngineKind engine)
{
    std::vector<const SimStats *> out;
    for (std::size_t i = 0; i < spec.cells.size(); ++i)
        if (spec.cells[i].engine == engine)
            for (const SimStats &s : reps.first[i].nodes)
                out.push_back(&s);
    return out;
}

template <typename F>
double
meanOver(const std::vector<const SimStats *> &recs, F field)
{
    std::vector<double> v;
    for (const SimStats *s : recs)
        v.push_back(field(*s));
    return mean(v);
}

/** Simulated execSeconds per workload and engine (single-node cells). */
std::map<std::pair<std::string, EngineKind>, double>
execByCell(const WorkloadSpec &spec, const Repetitions &reps)
{
    std::map<std::pair<std::string, EngineKind>, double> out;
    for (std::size_t i = 0; i < spec.cells.size(); ++i)
        out[{spec.cells[i].workload, spec.cells[i].engine}] =
            reps.first[i].nodes.front().execSeconds;
    return out;
}

/** Geomean overhead of @p engine over NoProtect across the workloads
 *  that ran both. */
double
overheadPct(const WorkloadSpec &spec, const Repetitions &reps,
            EngineKind engine)
{
    const auto exec = execByCell(spec, reps);
    std::vector<double> ratios;
    std::set<std::string> seen;
    for (const auto &cell : spec.cells) {
        if (!seen.insert(cell.workload).second)
            continue;
        const auto np = exec.find({cell.workload, EngineKind::NoProtect});
        const auto e = exec.find({cell.workload, engine});
        if (np != exec.end() && e != exec.end())
            ratios.push_back(e->second / np->second);
    }
    return geomeanOverheadPct(ratios);
}

/**
 * Toleo overhead of a rack-write run: each Toleo rack node against the
 * same node configuration run alone without protection (computed once
 * per run, untimed).
 */
double
rackOverheadPct(const WorkloadSpec &spec, std::uint64_t seed,
                const Repetitions &reps)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const toleo::RackConfig rc = rackConfig(spec, spec.cells[i], seed);
        for (std::size_t n = 0; n < rc.nodes.size(); ++n) {
            toleo::SystemConfig base = rc.nodes[n];
            base.engine = EngineKind::NoProtect;
            toleo::System sys(base);
            const SimStats np =
                sys.run(spec.warmupRefs, spec.measureRefs);
            ratios.push_back(reps.first[i].nodes[n].execSeconds /
                             np.execSeconds);
        }
    }
    return geomeanOverheadPct(ratios);
}

/** Simulated end-to-end metrics (deterministic for a seed). */
Metrics
simMetrics(const WorkloadSpec &spec, std::uint64_t seed,
           const Repetitions &reps)
{
    const auto toleo = recordsOf(spec, reps, EngineKind::Toleo);
    Metrics m;
    m["sim_toleo_overhead_pct"] = {
        spec.rackNodes ? rackOverheadPct(spec, seed, reps)
                       : overheadPct(spec, reps, EngineKind::Toleo),
        "%"};
    m["sim_read_ns"] = {
        meanOver(toleo, [](const SimStats &s) { return s.avgReadLatencyNs; }),
        "ns"};
    return m;
}

/** Simulated metrics the report adds for the workloads they apply to. */
Metrics
simExtras(const WorkloadSpec &spec, const Repetitions &reps)
{
    const auto toleo = recordsOf(spec, reps, EngineKind::Toleo);
    Metrics m;
    const bool serving = spec.arrival.open();
    m["sim_p99_us"] = {
        serving ? meanOver(toleo,
                           [](const SimStats &s) {
                               return s.serving.p99LatencyUs;
                           })
                : 0.0,
        "us"};
    m["sim_slo_attainment"] = {
        serving ? meanOver(toleo,
                           [](const SimStats &s) {
                               return s.serving.sloAttainment;
                           })
                : 0.0,
        "frac"};
    double stallNs = 0.0, execNs = 0.0;
    for (const CellRun &run : reps.first) {
        for (const auto &node : run.rack.nodes) {
            stallNs += node.contentionStallNs;
            execNs += node.sim.execSeconds * 1e9;
        }
    }
    m["sim_contention_stall_pct"] = {
        execNs > 0.0 ? 100.0 * stallNs / execNs : 0.0, "%"};
    return m;
}

/**
 * The model's gap to the paper aggregates bench/fig6 and fig7 print,
 * on the paper grid.  These are the only references the model is
 * checked against; the gaps are reported, never used as bounds.
 */
Json
paperGaps(const WorkloadSpec &spec, const Repetitions &reps)
{
    const auto exec = execByCell(spec, reps);
    const double ci = overheadPct(spec, reps, EngineKind::CI);
    const double tol = overheadPct(spec, reps, EngineKind::Toleo);
    const double inv = overheadPct(spec, reps, EngineKind::InvisiMem);
    const double np = exec.at({"memcached", EngineKind::NoProtect});
    const double mcTol =
        100.0 * (exec.at({"memcached", EngineKind::Toleo}) / np - 1.0);
    const double mcCi =
        100.0 * (exec.at({"memcached", EngineKind::CI}) / np - 1.0);
    const double stealth =
        100.0 * meanOver(recordsOf(spec, reps, EngineKind::Toleo),
                         [](const SimStats &s) {
                             return s.stealthCacheHitRate;
                         });
    Json j = Json::object();
    auto row = [&j](const char *name, double sim, double paper) {
        Json r = Json::object();
        r["sim"] = sim;
        r["paper"] = paper;
        r["gap"] = sim - paper;
        j[name] = std::move(r);
    };
    row("ci_overhead_pct", ci, 18.0);
    row("toleo_over_ci_pp", tol - ci, 1.5);
    row("memcached_toleo_over_ci_pp", mcTol - mcCi, 11.0);
    row("invisimem_overhead_pct", inv, 29.0);
    row("stealth_hit_pct", stealth, 98.0);
    j["memcached_toleo_overhead_pct"] = mcTol;
    return j;
}

/** Per-layer metrics from the traced repetitions. */
Metrics
layerMetrics(const WorkloadSpec &spec, const Repetitions &reps,
             const SpanLog &log, const TraceTotals &t, double tracedReps,
             double untracedRefsPerS)
{
    const auto self = log.selfNsByName();
    auto selfNs = [&self](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const char *layers[] = {"workload", "cache", "mem",
                            "secmem",   "toleo", "sim"};
    double layerTotal = 0.0;
    for (const char *l : layers)
        layerTotal += selfNs(l);

    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double served =
        d(t.servedBy[0] + t.servedBy[1] + t.servedBy[2] + t.servedBy[3]);
    const auto toleo = recordsOf(spec, reps, EngineKind::Toleo);
    const auto ci = recordsOf(spec, reps, EngineKind::CI);
    const TailPick tail = [&t] {
        std::vector<double> us;
        for (double ns : t.epochNs)
            us.push_back(ns * 1e-3);
        return pickTail(us);
    }();

    Metrics m = simExtras(spec, reps);
    for (const char *l : layers)
        m[std::string(l) + ".self_frac"] = {per(selfNs(l), layerTotal),
                                            "frac"};
    m["workload.ns_per_ref"] = {per(selfNs("workload"), d(t.work.refsDrawn)),
                                "ns"};
    m["workload.setup_ms"] = {selfNs("workload.setup") / tracedReps * 1e-6,
                              "ms"};
    m["cache.ns_per_access"] = {
        per(selfNs("cache"), d(t.work.cacheAccesses)), "ns"};
    m["cache.l1_hit_frac"] = {per(d(t.servedBy[0]), served), "frac"};
    m["cache.l2_hit_frac"] = {per(d(t.servedBy[1]), served), "frac"};
    m["cache.llc_miss_frac"] = {per(d(t.servedBy[3]), served), "frac"};
    m["mem.ns_per_event"] = {per(selfNs("mem"), d(t.work.memEvents)), "ns"};
    m["mem.epochs"] = {d(t.work.epochs) / tracedReps, "count"};
    m["secmem.calls"] = {d(t.secmemCalls) / tracedReps, "count"};
    m["secmem.ns_per_call"] = {per(selfNs("secmem"), d(t.secmemCalls)),
                               "ns"};
    m["secmem.mac_hit_rate"] = {
        meanOver(ci, [](const SimStats &s) { return s.macCacheHitRate; }),
        "frac"};
    m["secmem.mac_bytes_per_inst"] = {
        meanOver(toleo, [](const SimStats &s) { return s.macBpi; }),
        "B/inst"};
    m["toleo.calls"] = {d(t.toleoCalls) / tracedReps, "count"};
    m["toleo.ns_per_call"] = {per(selfNs("toleo"), d(t.toleoCalls)), "ns"};
    m["toleo.device_reads"] = {d(t.deviceReads) / tracedReps, "count"};
    m["toleo.device_updates"] = {d(t.deviceUpdates) / tracedReps, "count"};
    m["toleo.trip_upgrades"] = {d(t.tripUpgrades) / tracedReps, "count"};
    m["toleo.store_peak_bytes"] = {d(t.storePeakBytes), "B"};
    m["toleo.stealth_hit_rate"] = {
        meanOver(toleo,
                 [](const SimStats &s) { return s.stealthCacheHitRate; }),
        "frac"};
    m["toleo.stealth_bytes_per_inst"] = {
        meanOver(toleo, [](const SimStats &s) { return s.stealthBpi; }),
        "B/inst"};
    m["sim.setup_ms"] = {selfNs("sim.setup") / tracedReps * 1e-6, "ms"};
    m["sim.epoch_us_p50"] = {tail.p50, "us"};
    m["sim.epoch_us_tail"] = {tail.value, "us"};
    m["sim.epoch_tail_pct"] = {tail.pct, "%"};
    m["sim.epoch_tail_beyond"] = {d(tail.beyond), "count"};
    m["sim.epoch_samples"] = {d(tail.samples), "count"};
    m["sim.rack_saturated_frac"] = {
        per(d(t.rackSaturatedEpochs), d(t.rackEpochs)), "frac"};
    m["sim.rack_peak_backlog_bytes"] = {d(t.rackPeakBacklogBytes), "B"};
    m["sim.read_dram_ns"] = {
        meanOver(toleo, [](const SimStats &s) { return s.avgDramLatencyNs; }),
        "ns"};
    m["sim.read_meta_ns"] = {
        meanOver(toleo, [](const SimStats &s) { return s.avgMetaLatencyNs; }),
        "ns"};
    const double tracedRefsPerS = per(d(t.systemRefs), t.systemNs) * 1e9;
    const double replayRefsPerS = per(d(t.replayRefs), t.replayNs) * 1e9;
    m["trace.overhead_frac"] = {
        per(untracedRefsPerS, tracedRefsPerS) - 1.0, "frac"};
    m["trace.replay_slowdown"] = {per(untracedRefsPerS, replayRefsPerS),
                                  "x"};
    return m;
}

/** Per-cell simulated summary for the report file. */
Json
cellTable(const WorkloadSpec &spec, const Repetitions &reps)
{
    Json rows = Json::array();
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        for (std::size_t n = 0; n < reps.first[i].nodes.size(); ++n) {
            const SimStats &s = reps.first[i].nodes[n];
            Json r = Json::object();
            r["workload"] = s.workload;
            r["engine"] = s.engine;
            r["node"] = static_cast<unsigned>(n);
            r["execSeconds"] = s.execSeconds;
            r["llcMpki"] = s.llcMpki;
            r["readNs"] = s.avgReadLatencyNs;
            r["stealthHit"] = s.stealthCacheHitRate;
            if (!s.serving.arrival.empty())
                r["p99Us"] = s.serving.p99LatencyUs;
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

int
run(const Options &opt)
{
    const WorkloadSpec spec = workloadSpec(opt.workload);
    const double budgetNs = opt.seconds * 1e9;
    const double start = nowNs();
    Repetitions reps;

    // Untraced repetitions: the whole run, or a third of a traced run.
    const double untracedNs = opt.trace ? budgetNs / 3.0 : budgetNs;
    const std::size_t minReps = opt.trace ? 1 : 3;
    while (reps.refsPerS.size() < minReps ||
           nowNs() - start < untracedNs)
        untracedRep(spec, opt.seed, reps);
    const double refsPerS = median(reps.refsPerS);

    Metrics metrics;
    Json report = Json::object();
    SpanLog log;
    std::size_t tracedReps = 0;
    if (!opt.trace) {
        metrics = simMetrics(spec, opt.seed, reps);
        metrics["refs_per_s"] = {refsPerS, "1/s"};
        metrics["setup_s"] = {median(reps.setupS), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        TraceTotals totals;
        while (tracedReps < 1 || nowNs() - start < budgetNs) {
            for (std::size_t i = 0; i < spec.cells.size(); ++i) {
                ++reps.attempted;
                const std::string why =
                    traceCell(spec, spec.cells[i], opt.seed,
                              reps.first[i], log, totals);
                if (!why.empty())
                    noteFailure(reps, spec.cells[i], why);
            }
            ++tracedReps;
        }
        metrics = layerMetrics(spec, reps, log, totals,
                               static_cast<double>(tracedReps), refsPerS);
    }

    // The full report: every named metric with its unit, including
    // the simulated extras and the cell failure share.
    Metrics all = metrics;
    if (!opt.trace) {
        for (auto &[name, m] : simExtras(spec, reps))
            all[name] = m;
    }
    all["cells_failed_frac"] = {
        static_cast<double>(reps.failed) /
            static_cast<double>(reps.attempted),
        "frac"};
    report["workload"] = spec.name;
    report["seed"] = opt.seed;
    report["trace"] = opt.trace;
    report["untracedReps"] = static_cast<unsigned>(reps.refsPerS.size());
    report["tracedReps"] = static_cast<unsigned>(tracedReps);
    report["cells"] = static_cast<unsigned>(spec.cells.size());
    Json repRates = Json::array();
    for (double r : reps.refsPerS)
        repRates.push_back(r);
    report["repRefsPerS"] = std::move(repRates);
    report["metrics"] = metricsJson(all);
    Json failures = Json::array();
    for (const auto &f : reps.failures)
        failures.push_back(f);
    report["failures"] = std::move(failures);
    if (spec.name == "paper-grid")
        report["paperGaps"] = paperGaps(spec, reps);
    std::cout << report.dump() << "\n";

    if (!opt.outDir.empty()) {
        const std::string stem = opt.outDir + "/" + spec.name + "-seed" +
                                 std::to_string(opt.seed) + "-trace" +
                                 (opt.trace ? "1" : "0");
        Json full = report;
        full["cellRecords"] = cellTable(spec, reps);
        std::ofstream(stem + ".report.json") << full.dump(1) << "\n";
        if (opt.trace)
            std::ofstream(stem + ".spans.json") << log.toJson().dump()
                                                << "\n";
    }

    Json result = Json::object();
    result["correct"] = reps.failed == 0;
    result["attempted"] = reps.attempted;
    result["failed"] = reps.failed;
    result["metrics"] = metricsJson(metrics);
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.host) {
        std::cout << hostFingerprint().dump() << std::endl;
        return 0;
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
