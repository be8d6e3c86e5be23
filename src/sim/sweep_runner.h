/**
 * @file
 * Parallel sweep executor for the paper's design x workload x knob
 * grids (Figs. 6-18). A SweepRunner owns one shared Runner — so every
 * worker thread hits the same thread-safe alone-run cache — and fans a
 * vector of cells out over a small thread pool. Results come back in
 * the cells' original (deterministic) order regardless of completion
 * order, and each cell is a pure function of its configuration and
 * workload spec, so a parallel sweep is bit-identical to a serial one.
 */

#ifndef DSTRANGE_SIM_SWEEP_RUNNER_H
#define DSTRANGE_SIM_SWEEP_RUNNER_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sim_config.h"
#include "workloads/mixes.h"

namespace dstrange::sim {

/**
 * Thread-pool executor over a grid of simulation cells: workers claim
 * cells in grid order from one shared cursor.
 *
 * Concurrency: `DS_JOBS` overrides the worker count; otherwise it
 * defaults to std::thread::hardware_concurrency(). With one job (or one
 * cell) everything runs inline on the calling thread — no pool is
 * spawned — which keeps single-threaded debugging trivial.
 */
class SweepRunner
{
  public:
    /**
     * One grid cell: a workload spec plus either a DesignRegistry key
     * (built-in preset or user-registered) applied over the sweep's
     * base configuration, or an explicit SimConfig (which takes
     * precedence when present).
     */
    struct Cell
    {
        std::string design;              ///< DesignRegistry key ("" = config).
        std::optional<SimConfig> config; ///< Explicit full configuration.
        workloads::WorkloadSpec spec;
    };

    /** Outcome of one cell, in the cell's grid position. */
    struct CellResult
    {
        Runner::WorkloadResult result{};
        double wallMs = 0.0; ///< Wall-clock of this cell on its worker.
        bool ok = false;
        std::string error; ///< Exception message when !ok.
        /**
         * Execution-hygiene tag: "ok" (first attempt succeeded),
         * "retried" (first attempt threw, the bounded retry succeeded),
         * or "error" (both attempts threw).
         */
        std::string outcome = "ok";
    };

    /**
     * @param base Base configuration design-key cells are applied over
     *             (also the shared Runner's base()).
     * @param jobs Worker count; 0 selects defaultJobs().
     *
     * The shared Runner picks up DS_CACHE_DIR for its persistent
     * alone-run cache, as every Runner does.
     */
    explicit SweepRunner(SimConfig base, unsigned jobs = 0);

    /** Like SweepRunner(base, jobs), but with an explicit persistent
     *  alone-run cache for the shared Runner (nullptr = none),
     *  ignoring DS_CACHE_DIR. */
    SweepRunner(SimConfig base, unsigned jobs,
                std::shared_ptr<ResultStore> store);

    /**
     * Worker count used when the constructor is passed jobs == 0: the
     * DS_JOBS environment override when set and parseable, otherwise
     * std::thread::hardware_concurrency(); always at least 1.
     */
    static unsigned defaultJobs();

    /** Effective worker count of this sweep. */
    unsigned jobs() const { return nJobs; }

    /**
     * The shared runner (and its alone-run cache) behind every cell.
     * Its base() is also the base configuration design-key cells are
     * applied over, so mutating it between sweeps affects both
     * direct runner() calls and subsequent run() grids consistently.
     */
    Runner &runner() { return shared; }

    /**
     * Per-cell completion callback: cells finished so far, total cell
     * count, the finished cell's grid index, and its wall-clock. Invoked
     * under an internal mutex (never concurrently) from whichever worker
     * finished the cell, in completion — not grid — order. Keep it
     * cheap; every worker serializes through it.
     */
    using ProgressFn = std::function<void(
        std::size_t done, std::size_t total, std::size_t cell_index,
        double cell_wall_ms)>;

    /** Install a progress callback for subsequent run() calls (empty =
     *  none). Set before run(); not thread-safe against a running sweep. */
    void setProgress(ProgressFn fn) { progress = std::move(fn); }

    /**
     * Execute every cell and return results in cell order. A cell that
     * throws (unknown design key, bad configuration, ...) yields
     * ok == false with the exception message in error; the other cells
     * still run.
     */
    std::vector<CellResult> run(const std::vector<Cell> &cells);

    /**
     * Convenience: the designs x specs product in spec-major order
     * (all designs of specs[0], then specs[1], ...), matching the
     * figure benches' per-workload table rows. Cell i*designs.size()+d
     * holds (specs[i], designs[d]).
     */
    static std::vector<Cell>
    grid(const std::vector<std::string> &designs,
         const std::vector<workloads::WorkloadSpec> &specs);

  private:
    CellResult runCell(const Cell &cell);

    unsigned nJobs;
    Runner shared;
    ProgressFn progress;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_SWEEP_RUNNER_H
