#include "replay.hh"

#include <stdexcept>

#include "secmem/noprotect.hh"

namespace perfbench {

using namespace toleo;

namespace {

/** Rounds per traced batch: System's own private-phase batch size. */
constexpr std::uint64_t batchRounds = 256;

CacheHierarchyConfig
hierarchyConfig(const SystemConfig &cfg)
{
    CacheHierarchyConfig c = cfg.caches;
    c.numCores = cfg.numCores;
    return c;
}

} // namespace

std::unique_ptr<ProtectionEngine>
makeEngine(const SystemConfig &cfg, MemTopology &topo,
           ToleoDevice *device)
{
    switch (cfg.engine) {
      case EngineKind::NoProtect:
        return std::make_unique<NoProtectEngine>(topo);
      case EngineKind::C: {
        CiConfig c = cfg.ci;
        c.integrity = false;
        return std::make_unique<CiEngine>(topo, c);
      }
      case EngineKind::CI:
        return std::make_unique<CiEngine>(topo, cfg.ci);
      case EngineKind::Toleo:
        if (!device)
            throw std::invalid_argument("makeEngine: Toleo needs a device");
        return std::make_unique<ToleoEngine>(topo, *device, cfg.toleo);
      case EngineKind::InvisiMem:
        return std::make_unique<InvisiMemEngine>(topo, cfg.invisimem);
      case EngineKind::Merkle:
        return std::make_unique<MerkleTreeEngine>(topo, cfg.merkle);
    }
    throw std::invalid_argument("makeEngine: unknown engine");
}

ReplayNode::ReplayNode(const SystemConfig &cfg, ToleoDevice *sharedDevice,
                       SpanLog &log, int parent)
    : cfg_(cfg), log_(log), parent_(parent),
      winfo_(workloadInfo(cfg.workload)), topo_(cfg.mem),
      hierarchy_(hierarchyConfig(cfg))
{
    {
        ScopedSpan span(log_, "workload.setup", parent_);
        for (unsigned c = 0; c < cfg.numCores; ++c)
            gens_.push_back(makeWorkload(cfg.workload, c, cfg.seed));
    }
    ScopedSpan span(log_, "replay.setup", parent_);
    if (cfg.engine == EngineKind::Toleo) {
        if (sharedDevice) {
            devp_ = sharedDevice;
        } else {
            device_ = std::make_unique<ToleoDevice>(cfg.device);
            devp_ = device_.get();
        }
        engineLayer_ = "toleo";
    }
    engine_ = makeEngine(cfg, topo_, devp_);
    invisimem_ = dynamic_cast<InvisiMemEngine *>(engine_.get());
    toleoEngine_ = dynamic_cast<ToleoEngine *>(engine_.get());
    refBuf_.resize(static_cast<std::size_t>(cfg.numCores) * batchRounds);
    events_.reserve(refBuf_.size());
    coreInsts_.assign(cfg.numCores, 0);
    coreStallNs_.assign(cfg.numCores, 0.0);
}

double
ReplayNode::coreTimeNs(unsigned core) const
{
    return static_cast<double>(coreInsts_[core]) /
               (cfg_.baseIpc * cfg_.clockGhz) +
           coreStallNs_[core];
}

double
ReplayNode::maxCoreTimeNs() const
{
    double m = 0.0;
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        m = std::max(m, coreTimeNs(c));
    return m;
}

std::uint64_t
ReplayNode::roundsToEpoch() const
{
    const std::uint64_t since = globalRefs_ - epochMark_;
    const std::uint64_t remaining =
        cfg_.epochRefs > since ? cfg_.epochRefs - since : 0;
    return remaining == 0
               ? 1
               : (remaining + cfg_.numCores - 1) / cfg_.numCores;
}

void
ReplayNode::beginRun(std::uint64_t warmupRefs, std::uint64_t measureRefs)
{
    warmupRefs_ = warmupRefs;
    measureRefs_ = measureRefs;
    globalRefs_ = epochMark_ = phaseRefs_ = 0;
    lastEpochNs_ = 0.0;
    measuring_ = false;
    active_ = true;
    epochToleoBytes_ = 0;
    epochWallNs_ = 0.0;
}

void
ReplayNode::runRounds(std::uint64_t rounds, bool measuring)
{
    const unsigned cores = cfg_.numCores;
    while (rounds > 0) {
        const std::uint64_t n = std::min(rounds, batchRounds);
        {
            ScopedSpan span(log_, "workload", parent_);
            for (unsigned c = 0; c < cores; ++c)
                gens_[c]->nextBatch(&refBuf_[c * batchRounds], n);
        }
        work_.refsDrawn += n * cores;

        events_.clear();
        {
            ScopedSpan span(log_, "cache", parent_);
            for (std::uint64_t k = 0; k < n; ++k) {
                for (unsigned c = 0; c < cores; ++c) {
                    const MemRef &ref = refBuf_[c * batchRounds + k];
                    coreInsts_[c] += ref.instGap + 1;
                    const HierarchyResult res = hierarchy_.access(
                        c, blockOf(ref.addr), ref.isWrite);
                    if (measuring)
                        ++servedBy_[res.servedBy - 1];
                    for (BlockNum victim : res.memWritebacks)
                        events_.push_back({victim, c, false, 0.0});
                    if (res.llcMiss)
                        events_.push_back(
                            {blockOf(ref.addr), c, true, 0.0});
                }
            }
        }
        work_.cacheAccesses += n * cores;

        {
            ScopedSpan span(log_, "mem", parent_);
            for (Event &ev : events_) {
                const PageNum page = pageOfBlock(ev.blk);
                if (!ev.read) {
                    topo_.addDataTraffic(page, blockSize);
                    continue;
                }
                const MemTopology::Route route = topo_.routeFor(page);
                topo_.addTraffic(route, blockSize);
                ev.dramNs = topo_.latencyNs(route);
            }
        }
        work_.memEvents += events_.size();

        {
            ScopedSpan span(log_, engineLayer_, parent_);
            for (const Event &ev : events_) {
                if (!ev.read) {
                    engine_->onWriteback(ev.blk);
                    ++writebacks_;
                    continue;
                }
                const MetaCost mc = engine_->onRead(ev.blk);
                coreStallNs_[ev.core] +=
                    (ev.dramNs + mc.latencyNs) / winfo_.mlp;
            }
        }
        work_.engineCalls += events_.size();
        rounds -= n;
    }
}

void
ReplayNode::resetMeasurement()
{
    hierarchy_.resetStats();
    topo_.resetStats();
    engine_->stats().reset();
    if (toleoEngine_)
        toleoEngine_->stealthCache().resetStats();
    writebacks_ = 0;
    std::fill(std::begin(servedBy_), std::end(servedBy_), 0);
    std::fill(coreInsts_.begin(), coreInsts_.end(), 0);
    std::fill(coreStallNs_.begin(), coreStallNs_.end(), 0.0);
    lastEpochNs_ = 0.0;
}

void
ReplayNode::epochBoundary()
{
    ScopedSpan span(log_, "mem", parent_);
    double delta = maxCoreTimeNs() - lastEpochNs_;
    if (delta <= 0.0)
        delta = 1.0;
    if (invisimem_)
        invisimem_->padEpoch(delta);
    const double required = topo_.requiredEpochNs();
    if (required > delta) {
        const double deficit = required - delta;
        for (auto &stall : coreStallNs_)
            stall += deficit;
        delta = required;
    }
    epochToleoBytes_ = topo_.toleoLink().pendingBytes();
    topo_.endEpoch(delta);
    epochWallNs_ = delta;
    lastEpochNs_ = maxCoreTimeNs();
    ++work_.memEvents;
    ++work_.epochs;
}

bool
ReplayNode::stepEpoch()
{
    if (!active_)
        return false;
    const std::uint64_t cores = cfg_.numCores;
    // System's schedule: the warmup -> measure reset is not an epoch
    // boundary, and the window's end closes a final (partial) epoch.
    while (!measuring_) {
        if (phaseRefs_ >= warmupRefs_) {
            resetMeasurement();
            measuring_ = true;
            phaseRefs_ = 0;
            break;
        }
        const std::uint64_t chunk =
            std::min(warmupRefs_ - phaseRefs_, roundsToEpoch());
        runRounds(chunk, false);
        globalRefs_ += chunk * cores;
        phaseRefs_ += chunk;
        if (globalRefs_ - epochMark_ >= cfg_.epochRefs) {
            epochBoundary();
            epochMark_ = globalRefs_;
            return true;
        }
    }
    while (phaseRefs_ < measureRefs_) {
        const std::uint64_t chunk =
            std::min(measureRefs_ - phaseRefs_, roundsToEpoch());
        runRounds(chunk, true);
        globalRefs_ += chunk * cores;
        phaseRefs_ += chunk;
        if (globalRefs_ - epochMark_ >= cfg_.epochRefs) {
            epochBoundary();
            epochMark_ = globalRefs_;
            return true;
        }
    }
    epochBoundary();
    active_ = false;
    return false;
}

void
ReplayNode::addRackStallNs(double ns)
{
    if (ns <= 0.0)
        return;
    for (auto &stall : coreStallNs_)
        stall += ns;
}

ReplayCounts
ReplayNode::finishRun() const
{
    ReplayCounts out;
    out.refs = measureRefs_ * cfg_.numCores;
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        out.instructions += coreInsts_[c];
    out.llcMisses = hierarchy_.llcMisses();
    out.llcWritebacks = writebacks_;
    out.execSeconds = maxCoreTimeNs() * 1e-9;
    std::copy(std::begin(servedBy_), std::end(servedBy_),
              std::begin(out.servedBy));
    return out;
}

double
rackServiceGBps(const RackConfig &cfg)
{
    if (cfg.deviceServiceGBps > 0.0)
        return cfg.deviceServiceGBps;
    double maxLinkGBps = 0.0;
    for (const SystemConfig &sc : cfg.nodes)
        maxLinkGBps = std::max(maxLinkGBps, sc.mem.toleoLinkBandwidthGBps);
    return cfg.serviceFactor * maxLinkGBps;
}

} // namespace perfbench
