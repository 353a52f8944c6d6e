/**
 * @file
 * Layer replay: one simulation node driven directly through the public
 * layer classes -- the workload generators, CacheHierarchy,
 * MemTopology, and the protection engine (over its own or a shared
 * ToleoDevice) -- with one span per layer per batch of at most 256
 * rounds.  It follows System's epoch schedule (warmup, measurement
 * reset, traffic epochs, bandwidth floor) so its counts can be checked
 * against System's for the same cell and seed, while its spans say
 * where host time goes layer by layer.
 *
 * Within a batch the layers run as separate passes over the batch's
 * references: draws, then every cache access in round-robin core
 * order, then the memory-side routing of LLC misses and victims, then
 * the engine calls in the same order System makes them.  Each
 * structure therefore sees System's exact operation sequence; channel
 * latencies only change at epoch boundaries, so splitting the passes
 * changes no value.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_lib.hh"
#include "sim/rack.hh"
#include "sim/system.hh"
#include "toleo/ide_channel.hh"

namespace perfbench {

/** Counts a replay produces, comparable to System's for one cell. */
struct ReplayCounts
{
    // Measurement window, as in SimStats.
    std::uint64_t refs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;
    double execSeconds = 0.0;
    /** References by the level that served them (HierarchyResult
     *  servedBy 1..4: L1, L2, L3, memory), measurement window. */
    std::uint64_t servedBy[4] = {0, 0, 0, 0};
};

/** Whole-run work per layer (warmup included), for per-call times. */
struct LayerWork
{
    std::uint64_t refsDrawn = 0;     ///< workload: references generated
    std::uint64_t cacheAccesses = 0; ///< cache: hierarchy accesses
    std::uint64_t memEvents = 0;     ///< mem: routings + epoch closes
    std::uint64_t engineCalls = 0;   ///< secmem/toleo: onRead+onWriteback
    std::uint64_t epochs = 0;        ///< traffic epochs closed
};

class ReplayNode
{
  public:
    /**
     * Build the node's layers from @p cfg.  A Toleo engine uses
     * @p sharedDevice when given (rack mode, the caller selects the
     * active initiator) and otherwise builds its own device.
     * Generator construction is traced as "workload.setup" and the
     * rest as "replay.setup", both under @p parent.
     */
    ReplayNode(const toleo::SystemConfig &cfg,
               toleo::ToleoDevice *sharedDevice, SpanLog &log,
               int parent);

    void beginRun(std::uint64_t warmupRefs, std::uint64_t measureRefs);
    /** Same contract as System::stepEpoch(). */
    bool stepEpoch();
    ReplayCounts finishRun() const;

    void addRackStallNs(double ns);
    std::uint64_t lastEpochToleoBytes() const { return epochToleoBytes_; }
    double lastEpochWallNs() const { return epochWallNs_; }

    const LayerWork &work() const { return work_; }
    /** "toleo" for the Toleo engine, "secmem" for the others. */
    const char *engineLayer() const { return engineLayer_; }
    toleo::ToleoDevice *device() { return devp_; }

  private:
    /** One memory-side event of a batch, in System's order. */
    struct Event
    {
        toleo::BlockNum blk;
        unsigned core;
        bool read;      ///< LLC-miss fill (else a dirty victim)
        double dramNs;  ///< fill latency from the mem pass
    };

    void runRounds(std::uint64_t rounds, bool measuring);
    void resetMeasurement();
    void epochBoundary();
    std::uint64_t roundsToEpoch() const;
    double coreTimeNs(unsigned core) const;
    double maxCoreTimeNs() const;

    toleo::SystemConfig cfg_;
    SpanLog &log_;
    int parent_;
    toleo::WorkloadInfo winfo_;
    std::vector<std::unique_ptr<toleo::TraceGen>> gens_;
    toleo::MemTopology topo_;
    toleo::CacheHierarchy hierarchy_;
    std::unique_ptr<toleo::ToleoDevice> device_;
    toleo::ToleoDevice *devp_ = nullptr;
    std::unique_ptr<toleo::ProtectionEngine> engine_;
    toleo::InvisiMemEngine *invisimem_ = nullptr;
    toleo::ToleoEngine *toleoEngine_ = nullptr;
    const char *engineLayer_ = "secmem";

    std::vector<toleo::MemRef> refBuf_;
    std::vector<Event> events_;
    std::vector<std::uint64_t> coreInsts_;
    std::vector<double> coreStallNs_;
    std::uint64_t writebacks_ = 0;
    std::uint64_t servedBy_[4] = {0, 0, 0, 0};

    std::uint64_t warmupRefs_ = 0;
    std::uint64_t measureRefs_ = 0;
    std::uint64_t globalRefs_ = 0;
    std::uint64_t epochMark_ = 0;
    std::uint64_t phaseRefs_ = 0;
    double lastEpochNs_ = 0.0;
    bool measuring_ = false;
    bool active_ = false;
    std::uint64_t epochToleoBytes_ = 0;
    double epochWallNs_ = 0.0;
    LayerWork work_;
};

/** Build the layer replay's protection engine for @p cfg, the same
 *  engine System builds (C is CI with integrity off). */
std::unique_ptr<toleo::ProtectionEngine>
makeEngine(const toleo::SystemConfig &cfg, toleo::MemTopology &topo,
           toleo::ToleoDevice *device);

/** What a stepped rack reports besides its nodes' own records. */
struct RackRun
{
    std::uint64_t epochs = 0;
    std::uint64_t saturatedEpochs = 0;
    std::uint64_t peakBacklogBytes = 0;
    std::vector<double> contentionStallNs;
    std::vector<std::uint64_t> deviceRequests;
};

/** Device service bandwidth runRack() uses for @p cfg. */
double rackServiceGBps(const toleo::RackConfig &cfg);

/**
 * Step a rack of nodes sharing @p device epoch by epoch in runRack()'s
 * order: every live node steps once with its initiator selected, the
 * arbiter serves the epoch's offered Toleo bytes, and unserved backlog
 * is charged to the node as stall.  @p step(i) advances node i by one
 * epoch and returns whether it has more work; Node provides
 * lastEpochToleoBytes(), lastEpochWallNs() and addRackStallNs().  The
 * arbiter work is traced as @p spanName under @p parent.
 */
template <typename Node, typename Step>
RackRun
stepRack(std::vector<Node *> &nodes, toleo::ToleoDevice &device,
         double serviceGBps, const Step &step, SpanLog &log,
         const char *spanName, int parent)
{
    const unsigned n = static_cast<unsigned>(nodes.size());
    RackRun out;
    out.contentionStallNs.assign(n, 0.0);
    toleo::IdeLinkArbiter arbiter(n);
    std::vector<unsigned char> alive(n, 1);
    for (bool anyAlive = true; anyAlive;) {
        anyAlive = false;
        device.beginInitiatorEpoch();
        double epochNs = 0.0;
        std::uint64_t offered = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            device.setActiveInitiator(i);
            const bool more = step(i);
            const std::uint64_t bytes = nodes[i]->lastEpochToleoBytes();
            ScopedSpan span(log, spanName, parent);
            arbiter.enqueue(i, bytes);
            offered += bytes;
            epochNs = std::max(epochNs, nodes[i]->lastEpochWallNs());
            alive[i] = more;
            anyAlive = anyAlive || more;
        }
        ScopedSpan span(log, spanName, parent);
        const std::uint64_t capacity = static_cast<std::uint64_t>(
            std::max(0.0, std::ceil(serviceGBps * epochNs)));
        arbiter.serveEpoch(capacity);
        if (offered > capacity)
            ++out.saturatedEpochs;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t backlog = arbiter.pendingBytes(i);
            if (backlog == 0 || !alive[i])
                continue;
            const double stallNs =
                static_cast<double>(backlog) / serviceGBps;
            nodes[i]->addRackStallNs(stallNs);
            out.contentionStallNs[i] += stallNs;
        }
        ++out.epochs;
    }
    out.peakBacklogBytes = arbiter.peakBacklogBytes();
    for (unsigned i = 0; i < n; ++i)
        out.deviceRequests.push_back(device.totalRequests(i));
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
