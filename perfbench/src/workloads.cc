#include "workloads.hh"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "workload/request.hh"

namespace perfbench {

using namespace toleo;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "serving-meta", "rack-write"};
    return names;
}

WorkloadSpec
workloadSpec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "paper-grid") {
        // The 12 paper workloads x 6 engines: mostly private-half host
        // time (generator draws, L1/L2); engines are bypassed in the
        // low-MPKI majority.
        spec.cells = makeSweepGrid(paperWorkloads(), allEngineKinds());
    } else if (name == "serving-meta") {
        // Request apps at 32-89 MPKI, open loop: host time shifts to
        // the shared half (engine, stealth cache, device), and request
        // apps build real tables at construction.
        spec.cells = makeSweepGrid(
            {"kvs", "nat", "bm25"},
            {EngineKind::NoProtect, EngineKind::CI, EngineKind::Toleo});
        std::string err;
        if (!parseArrivalSpec("poisson:1e6", spec.arrival, err))
            throw std::logic_error("serving-meta arrival: " + err);
        spec.arrival.sloUs = 100.0;
    } else if (name == "rack-write") {
        // Write-heavy tenants on one shared device: device UPDATE,
        // TripStore upgrades, multi-initiator routing, the arbiter.
        spec.cells = makeSweepGrid({"memcached", "redis"},
                                   {EngineKind::Toleo});
        spec.rackNodes = 4;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return spec;
}

SystemConfig
cellConfig(const WorkloadSpec &spec, const SweepCell &cell,
           std::uint64_t seed)
{
    SystemConfig cfg = makeScaledConfig(cell.workload, cell.engine,
                                        spec.cores);
    cfg.seed = seed;
    cfg.arrival = spec.arrival;
    return cfg;
}

RackConfig
rackConfig(const WorkloadSpec &spec, const SweepCell &cell,
           std::uint64_t seed)
{
    RackConfig rc =
        makeRackConfig(spec.rackNodes, cellConfig(spec, cell, seed));
    rc.warmupRefs = spec.warmupRefs;
    rc.measureRefs = spec.measureRefs;
    return rc;
}

namespace {

std::uint64_t
cellRefs(const WorkloadSpec &spec)
{
    return (spec.warmupRefs + spec.measureRefs) * spec.cores *
           std::max(1u, spec.rackNodes);
}

/** Build a rack's shared device and node Systems, as runRack does. */
struct RackNodes
{
    explicit RackNodes(const RackConfig &rc) : device(rc.device)
    {
        for (std::size_t i = 1; i < rc.nodes.size(); ++i)
            device.addInitiator();
        for (const SystemConfig &node : rc.nodes) {
            SystemConfig sc = node;
            sc.sharedDevice = &device;
            systems.push_back(std::make_unique<System>(sc));
        }
    }

    ToleoDevice device;
    std::vector<std::unique_ptr<System>> systems;
};

std::uint64_t
counterValue(ToleoDevice &dev, const char *name)
{
    return dev.stats().counter(name).value();
}

/** Compare a replay's counts with System's record of the same node. */
std::string
crossCheck(const ReplayCounts &r, const SimStats &s)
{
    std::ostringstream os;
    os.precision(17);
    auto cmp = [&os](const char *what, double a, double b) {
        if (a != b)
            os << what << " replay " << a << " != system " << b << "; ";
    };
    cmp("refs", r.refs, s.refs);
    cmp("instructions", r.instructions, s.instructions);
    cmp("llcMisses", r.llcMisses, s.llcMisses);
    cmp("llcWritebacks", r.llcWritebacks, s.llcWritebacks);
    cmp("execSeconds", r.execSeconds, s.execSeconds);
    return os.str();
}

} // namespace

CellRun
runCell(const WorkloadSpec &spec, const SweepCell &cell,
        std::uint64_t seed)
{
    CellRun out;
    out.hostRefs = cellRefs(spec);
    if (spec.rackNodes == 0) {
        const double t0 = nowNs();
        System sys(cellConfig(spec, cell, seed));
        const double t1 = nowNs();
        out.nodes.push_back(sys.run(spec.warmupRefs, spec.measureRefs));
        const double t2 = nowNs();
        out.setupNs = t1 - t0;
        out.runNs = t2 - t1;
        const std::string record = statsToJson(out.nodes.back()).dump();
        out.digest = digest(record);
        out.finite = record.find("null") == std::string::npos;
        return out;
    }
    const RackConfig rc = rackConfig(spec, cell, seed);
    // runRack builds its nodes internally; time the same construction
    // on its own so set-up is reported apart from the run.
    const double t0 = nowNs();
    auto built = std::make_unique<RackNodes>(rc);
    out.setupNs = nowNs() - t0;
    built.reset();
    const double t1 = nowNs();
    out.rack = runRack(rc);
    out.runNs = nowNs() - t1;
    for (const RackNodeStats &ns : out.rack.nodes)
        out.nodes.push_back(ns.sim);
    const std::string record = rackStatsToJson(out.rack).dump();
    out.digest = digest(record);
    out.finite = record.find("null") == std::string::npos;
    return out;
}

std::string
checkCell(const WorkloadSpec &spec, const CellRun &run)
{
    std::ostringstream os;
    const std::uint64_t window = spec.measureRefs * spec.cores;
    for (std::size_t i = 0; i < run.nodes.size(); ++i) {
        const SimStats &s = run.nodes[i];
        if (s.refs != window)
            os << "node " << i << " refs " << s.refs << " != window "
               << window << "; ";
        for (double v : {s.execSeconds, s.ipc, s.llcMpki,
                         static_cast<double>(s.instructions)}) {
            if (!(std::isfinite(v) && v > 0.0))
                os << "node " << i << " non-positive statistic; ";
        }
        if (!s.serving.arrival.empty() && s.serving.requests == 0)
            os << "node " << i << " empty serving record; ";
    }
    if (!run.finite)
        os << "non-finite statistic in the record; ";
    if (spec.rackNodes && run.rack.nodes.size() != spec.rackNodes)
        os << "rack has " << run.rack.nodes.size() << " nodes; ";
    return os.str();
}

std::string
traceCell(const WorkloadSpec &spec, const SweepCell &cell,
          std::uint64_t seed, const CellRun &untraced, SpanLog &log,
          TraceTotals &totals)
{
    std::ostringstream fail;
    ScopedSpan cellSpan(log, "cell", -1);
    const int parent = cellSpan.id();

    auto noteDevice = [&totals](ToleoDevice &dev) {
        totals.deviceReads += counterValue(dev, "read_reqs");
        totals.deviceUpdates += counterValue(dev, "update_reqs");
        totals.tripUpgrades += counterValue(dev, "upgrades");
        totals.storePeakBytes =
            std::max(totals.storePeakBytes, dev.peakUsageBytes());
    };
    auto noteReplay = [&totals](const ReplayNode &node,
                                const ReplayCounts &counts) {
        const LayerWork &w = node.work();
        totals.work.refsDrawn += w.refsDrawn;
        totals.work.cacheAccesses += w.cacheAccesses;
        totals.work.memEvents += w.memEvents;
        totals.work.epochs += w.epochs;
        (std::string(node.engineLayer()) == "toleo" ? totals.toleoCalls
                                                    : totals.secmemCalls) +=
            w.engineCalls;
        for (int l = 0; l < 4; ++l)
            totals.servedBy[l] += counts.servedBy[l];
    };
    auto timedEpoch = [&log, &totals, parent](System &sys) {
        const int id = log.begin("sim.epoch", parent);
        const bool more = sys.stepEpoch();
        log.end(id);
        const Span &s = log.spans()[static_cast<std::size_t>(id)];
        totals.epochNs.push_back(s.endNs - s.startNs);
        return more;
    };

    if (spec.rackNodes == 0) {
        const SystemConfig cfg = cellConfig(spec, cell, seed);
        std::unique_ptr<System> sys;
        {
            ScopedSpan span(log, "sim.setup", parent);
            sys = std::make_unique<System>(cfg);
        }
        const double t0 = nowNs();
        sys->beginRun(spec.warmupRefs, spec.measureRefs);
        while (timedEpoch(*sys)) {
        }
        const SimStats stats = sys->finishRun();
        totals.systemNs += nowNs() - t0;
        totals.systemRefs += cellRefs(spec);
        if (digest(statsToJson(stats).dump()) != untraced.digest)
            fail << "stepped record differs from the untraced run; ";

        ScopedSpan replaySpan(log, "replay", parent);
        const double r0 = nowNs();
        ReplayNode node(cfg, nullptr, log, replaySpan.id());
        node.beginRun(spec.warmupRefs, spec.measureRefs);
        while (node.stepEpoch()) {
        }
        const ReplayCounts counts = node.finishRun();
        totals.replayNs += nowNs() - r0;
        totals.replayRefs += cellRefs(spec);
        noteReplay(node, counts);
        fail << crossCheck(counts, stats);
        if (ToleoDevice *dev = sys->device()) {
            for (const char *name : {"read_reqs", "update_reqs"}) {
                if (counterValue(*node.device(), name) !=
                    counterValue(*dev, name))
                    fail << "device " << name << " differs; ";
            }
            noteDevice(*dev);
        }
        return fail.str();
    }

    // Rack: step the nodes through the public System API in runRack's
    // order, so each epoch can be timed, then replay the rack's layers
    // over a second shared device.
    const RackConfig rc = rackConfig(spec, cell, seed);
    const double service = rackServiceGBps(rc);
    std::unique_ptr<RackNodes> built;
    {
        ScopedSpan span(log, "sim.setup", parent);
        built = std::make_unique<RackNodes>(rc);
    }
    std::vector<System *> systems;
    for (auto &s : built->systems)
        systems.push_back(s.get());
    const double t0 = nowNs();
    for (System *s : systems)
        s->beginRun(rc.warmupRefs, rc.measureRefs);
    const RackRun stepped = stepRack(
        systems, built->device, service,
        [&](unsigned i) { return timedEpoch(*systems[i]); }, log,
        "sim.arbiter", parent);
    std::vector<SimStats> nodeStats;
    for (unsigned i = 0; i < systems.size(); ++i) {
        built->device.setActiveInitiator(i);
        nodeStats.push_back(systems[i]->finishRun());
    }
    totals.systemNs += nowNs() - t0;
    totals.systemRefs += cellRefs(spec);
    totals.rackEpochs += stepped.epochs;
    totals.rackSaturatedEpochs += stepped.saturatedEpochs;
    totals.rackPeakBacklogBytes =
        std::max(totals.rackPeakBacklogBytes, stepped.peakBacklogBytes);
    const RackStats &ref = untraced.rack;
    if (stepped.epochs != ref.epochs ||
        stepped.saturatedEpochs != ref.saturatedEpochs ||
        stepped.peakBacklogBytes != ref.devicePeakBacklogBytes)
        fail << "stepped rack epochs/saturation differ from runRack; ";
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const RackNodeStats &rn = ref.nodes.at(i);
        if (digest(statsToJson(nodeStats[i]).dump()) !=
                digest(statsToJson(rn.sim).dump()) ||
            stepped.contentionStallNs[i] != rn.contentionStallNs ||
            stepped.deviceRequests[i] != rn.deviceRequests)
            fail << "stepped node " << i << " differs from runRack; ";
    }
    noteDevice(built->device);

    ScopedSpan replaySpan(log, "replay", parent);
    const double r0 = nowNs();
    ToleoDevice device(rc.device);
    for (std::size_t i = 1; i < rc.nodes.size(); ++i)
        device.addInitiator();
    std::vector<std::unique_ptr<ReplayNode>> owned;
    std::vector<ReplayNode *> replays;
    for (const SystemConfig &nc : rc.nodes) {
        owned.push_back(
            std::make_unique<ReplayNode>(nc, &device, log, replaySpan.id()));
        replays.push_back(owned.back().get());
    }
    for (ReplayNode *r : replays)
        r->beginRun(rc.warmupRefs, rc.measureRefs);
    const RackRun replayed = stepRack(
        replays, device, service,
        [&](unsigned i) { return replays[i]->stepEpoch(); }, log, "sim",
        replaySpan.id());
    totals.replayNs += nowNs() - r0;
    totals.replayRefs += cellRefs(spec);
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const ReplayCounts counts = replays[i]->finishRun();
        noteReplay(*replays[i], counts);
        const std::string bad = crossCheck(counts, nodeStats[i]);
        if (!bad.empty())
            fail << "node " << i << ": " << bad;
        if (replayed.deviceRequests[i] != stepped.deviceRequests[i])
            fail << "node " << i << " device requests differ; ";
    }
    for (const char *name : {"read_reqs", "update_reqs"}) {
        if (counterValue(device, name) !=
            counterValue(built->device, name))
            fail << "device " << name << " differs; ";
    }
    return fail.str();
}

} // namespace perfbench
