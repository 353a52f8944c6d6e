/**
 * @file
 * The benchmark's workloads and the per-cell runners: an untraced run
 * (the end-to-end figures), a traced run that steps System epoch by
 * epoch under spans, and the layer replay with its cross-check.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_lib.hh"
#include "replay.hh"
#include "sim/rack.hh"
#include "sim/sweep.hh"

namespace perfbench {

/**
 * One workload: a list of cells sharing a node shape.  Every cell runs
 * on one host thread (no --jobs, --threads-per-cell or --rack-threads
 * tier), and simulated caches start empty and warm over warmupRefs
 * rounds before the statistics reset.
 */
struct WorkloadSpec
{
    std::string name;
    std::vector<toleo::SweepCell> cells;
    unsigned cores = 8;
    std::uint64_t warmupRefs = 30000;
    std::uint64_t measureRefs = 60000;
    /** Nodes sharing one Toleo device; 0 = single-node cells. */
    unsigned rackNodes = 0;
    /** Closed loop unless an open-loop serving workload. */
    toleo::ArrivalConfig arrival;
};

const std::vector<std::string> &workloadNames();
/** @throws std::invalid_argument for an unknown name. */
WorkloadSpec workloadSpec(const std::string &name);

toleo::SystemConfig cellConfig(const WorkloadSpec &spec,
                               const toleo::SweepCell &cell,
                               std::uint64_t seed);
toleo::RackConfig rackConfig(const WorkloadSpec &spec,
                             const toleo::SweepCell &cell,
                             std::uint64_t seed);

/** One cell's untraced run. */
struct CellRun
{
    /** Per-node records (one entry for a single-node cell). */
    std::vector<toleo::SimStats> nodes;
    /** Rack record (rack cells only). */
    toleo::RackStats rack;
    /** Digest of statsToJson / rackStatsToJson. */
    std::uint64_t digest = 0;
    /** No statistic in that record is NaN or infinite (the JSON
     *  serializer writes those as null). */
    bool finite = true;
    /** Host ns constructing the cell's Systems (and shared device). */
    double setupNs = 0.0;
    /** Host ns in System::run / runRack, construction excluded. */
    double runNs = 0.0;
    /** Simulated references: warmup plus measure, all cores/nodes. */
    std::uint64_t hostRefs = 0;
};

CellRun runCell(const WorkloadSpec &spec, const toleo::SweepCell &cell,
                std::uint64_t seed);

/**
 * Output checks on one record: every statistic finite, positive where
 * it must be, and refs equal to the configured window.
 * @return an empty string when the cell passes, else the reason.
 */
std::string checkCell(const WorkloadSpec &spec, const CellRun &run);

/** Counts and times a traced run accumulates over its cells. */
struct TraceTotals
{
    /** Summed replay work; engine calls are kept per layer below. */
    LayerWork work;
    std::uint64_t secmemCalls = 0;
    std::uint64_t toleoCalls = 0;
    std::uint64_t servedBy[4] = {0, 0, 0, 0};
    std::uint64_t deviceReads = 0;
    std::uint64_t deviceUpdates = 0;
    std::uint64_t tripUpgrades = 0;
    std::uint64_t storePeakBytes = 0;
    std::uint64_t rackEpochs = 0;
    std::uint64_t rackSaturatedEpochs = 0;
    std::uint64_t rackPeakBacklogBytes = 0;
    /** Host time per System::stepEpoch() call, ns. */
    std::vector<double> epochNs;
    /** Traced System path: refs and host ns from beginRun to finishRun. */
    std::uint64_t systemRefs = 0;
    double systemNs = 0.0;
    /** Layer replay: refs and host ns. */
    std::uint64_t replayRefs = 0;
    double replayNs = 0.0;
};

/**
 * Traced run of one cell: System construction and every stepEpoch()
 * under spans, then the layer replay.  Checks that the stepped record
 * matches @p untraced (digest, and for racks the contention stalls)
 * and that the replay's counts equal System's.
 * @return an empty string when every check passes, else the reason.
 */
std::string traceCell(const WorkloadSpec &spec,
                      const toleo::SweepCell &cell, std::uint64_t seed,
                      const CellRun &untraced, SpanLog &log,
                      TraceTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
