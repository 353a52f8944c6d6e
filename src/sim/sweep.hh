/**
 * @file
 * Shared (workload x engine) sweep runner.
 *
 * Every paper figure/table binary and the toleo_sim CLI evaluate a
 * grid of cells, where each cell builds one self-contained
 * toleo::System and runs it for a warmup + measurement window.  Cells
 * share no mutable state, so the grid is embarrassingly parallel:
 * runSweep() runs the cells on the WorkerPool (sim/worker_pool.hh),
 * the same pool the rack tier uses for its node halves, and returns
 * results in deterministic row-major (workload-major) order
 * regardless of completion order.
 */

#ifndef TOLEO_SIM_SWEEP_HH
#define TOLEO_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/rack.hh"
#include "sim/system.hh"

namespace toleo {

/** One grid cell: a workload evaluated under one engine. */
struct SweepCell
{
    std::string workload;
    EngineKind engine = EngineKind::Toleo;
};

struct SweepOptions
{
    unsigned cores = 8;
    std::uint64_t warmupRefs = 30000;
    std::uint64_t measureRefs = 60000;
    std::uint64_t seed = 42;
    /** Worker threads; cells run serially when 1. */
    unsigned jobs = 1;
    /**
     * Replay cells from this loaded trace (TraceFile::open) instead
     * of synthesizing.  Cells share the instance read-only, so a
     * sweep validates and decodes the file once, not once per cell.
     */
    std::shared_ptr<const TraceFile> trace;
    /** Record the (single) cell's generator streams to this file. */
    std::string recordTracePath;
    /**
     * Rack mode (runRackSweep): simulate each cell as this many
     * compute nodes sharing one Toleo device (node i seeds with
     * seed + i).  1 = the classic single-node cell.
     */
    unsigned rackNodes = 1;
    /** Shared-device service bandwidth, GB/s; 0 = auto (rack.hh). */
    double rackServiceGBps = 0.0;
    /**
     * Rack mode only: WorkerPool threads for the node-private epoch
     * halves inside each rack cell (RackConfig::rackThreads).
     * Composes multiplicatively with jobs: a rack sweep can run up
     * to jobs x rackThreads threads at once, and the CLI budgets
     * that product against the host.  Statistics are bit-identical
     * for any value; the nodes' shared-device work still replays
     * serially in node order.
     */
    unsigned rackThreads = 1;
    /**
     * Request arrival model (SystemConfig::arrival), applied to every
     * cell.  The default closed model reproduces the classic replay
     * byte-for-byte; open models add ServingStats on top.
     */
    ArrivalConfig arrival;
};

/**
 * Build and run the System for one cell.
 * @param phases If non-null, enables SystemConfig::phaseTimers and
 *        receives the cell's wall-time breakdown by phase.
 */
SimStats runSweepCell(const SweepCell &cell, const SweepOptions &opts,
                      PhaseTimes *phases = nullptr);

/**
 * Called as each cell finishes (from the worker that ran it, under a
 * lock, so implementations need not be thread-safe).
 */
using SweepProgressFn = std::function<void(
    const SimStats &stats, std::size_t done, std::size_t total)>;

/** Replacement cell runner (tests, instrumentation). */
using SweepCellFn =
    std::function<SimStats(const SweepCell &, const SweepOptions &)>;

/** Cross product in row-major order: workload-major, engine-minor. */
std::vector<SweepCell> makeSweepGrid(
    const std::vector<std::string> &workloads,
    const std::vector<EngineKind> &engines);

/**
 * Run every cell on a WorkerPool of opts.jobs threads.
 *
 * A cell that throws does not tear down the process: the first
 * exception is captured, the remaining queued cells are abandoned,
 * in-flight cells finish, and the exception is rethrown on the
 * calling thread after the pool joins.
 *
 * @param cellSeconds If non-null, resized to cells.size() and filled
 *        with each cell's wall-clock seconds (perf tracking).
 * @param cellFn Cell runner override; defaults to runSweepCell.
 * @param cellPhases If non-null, resized to cells.size() and filled
 *        with each cell's per-phase wall-time breakdown (zeros when
 *        @p cellFn overrides the runner).
 * @return One SimStats per cell, in the order of @p cells.
 */
std::vector<SimStats> runSweep(const std::vector<SweepCell> &cells,
                               const SweepOptions &opts,
                               const SweepProgressFn &progress = {},
                               std::vector<double> *cellSeconds = nullptr,
                               const SweepCellFn &cellFn = {},
                               std::vector<PhaseTimes> *cellPhases = nullptr);

/** Build and run one cell as an opts.rackNodes-node rack. */
RackStats runRackSweepCell(const SweepCell &cell,
                           const SweepOptions &opts);

/** Per-cell completion callback of a rack sweep (locked, like
 *  SweepProgressFn). */
using RackSweepProgressFn = std::function<void(
    const RackStats &stats, std::size_t done, std::size_t total)>;

/**
 * Rack-mode grid runner: every cell becomes an opts.rackNodes-node
 * rack simulation (runRack).  Same worker-pool, ordering, and
 * error-surfacing contract as runSweep; cells share the loaded
 * trace the same way.  Trace *recording* is rejected (every node
 * would clobber one capture path).
 */
std::vector<RackStats> runRackSweep(
    const std::vector<SweepCell> &cells, const SweepOptions &opts,
    const RackSweepProgressFn &progress = {});

/**
 * Parse an engine name as printed by engineKindName().
 * @return false if @p name is not a known engine.
 */
bool parseEngineKind(const std::string &name, EngineKind &out);

/** All six evaluated engine configurations, Table 1 order. */
const std::vector<EngineKind> &allEngineKinds();

/**
 * Parse a comma-separated engine list ("all" = every engine);
 * fatal() on an unknown name.
 */
std::vector<EngineKind> parseEngineList(const std::string &csv);

/**
 * Parse a comma-separated workload list ("all" = the 12 paper
 * workloads); fatal() on an unknown name.
 */
std::vector<std::string> parseWorkloadList(const std::string &csv);

} // namespace toleo

#endif // TOLEO_SIM_SWEEP_HH
