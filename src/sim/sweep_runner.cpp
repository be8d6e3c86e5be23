#include "sim/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/env_util.h"
#include "sim/design_registry.h"
#include "sim/result_store.h"

namespace dstrange::sim {

SweepRunner::SweepRunner(SimConfig base, unsigned jobs)
    : nJobs(jobs != 0 ? jobs : defaultJobs()), shared(std::move(base))
{
}

SweepRunner::SweepRunner(SimConfig base, unsigned jobs,
                         std::shared_ptr<ResultStore> store)
    : nJobs(jobs != 0 ? jobs : defaultJobs()),
      shared(std::move(base), std::move(store))
{
}

unsigned
SweepRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    // envU64 falls back on unset/unparseable/zero, so DS_JOBS=0 also
    // lands on the hardware default rather than a zero-worker pool.
    return static_cast<unsigned>(
        envU64("DS_JOBS", std::max(1u, hw)));
}

std::vector<SweepRunner::Cell>
SweepRunner::grid(const std::vector<std::string> &designs,
                  const std::vector<workloads::WorkloadSpec> &specs)
{
    std::vector<Cell> cells;
    cells.reserve(designs.size() * specs.size());
    for (const workloads::WorkloadSpec &spec : specs) {
        for (const std::string &design : designs) {
            Cell cell;
            cell.design = design;
            cell.spec = spec;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

SweepRunner::CellResult
SweepRunner::runCell(const Cell &cell)
{
    CellResult out;
    const auto start = std::chrono::steady_clock::now();
    const auto attempt = [&] {
        try {
            if (cell.config) {
                out.result = shared.run(*cell.config, cell.spec);
            } else {
                // Copy the shared runner's base() so between-sweep
                // mutations of runner().base() apply to design-key
                // cells too (workers only read it during a sweep).
                SimConfig cfg = shared.base();
                DesignRegistry::instance().apply(cell.design, cfg);
                out.result = shared.run(cfg, cell.spec);
            }
            out.ok = true;
            out.error.clear();
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
    };
    attempt();
    if (!out.ok) {
        // One bounded retry: cells are pure functions of their inputs,
        // but the run may share a cache directory or trace files with
        // other processes, so a transient I/O hiccup deserves a second
        // chance. A deterministic failure (bad design key, invalid
        // config) just fails again immediately.
        attempt();
        out.outcome = out.ok ? "retried" : "error";
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    out.wallMs =
        std::chrono::duration<double, std::milli>(elapsed).count();
    return out;
}

std::vector<SweepRunner::CellResult>
SweepRunner::run(const std::vector<Cell> &cells)
{
    std::vector<CellResult> results(cells.size());

    // Progress reporting: the mutex both serializes callback
    // invocations and guards the counter.
    std::mutex progress_mu;
    std::size_t done = 0;
    auto report = [&](std::size_t idx) {
        if (!progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mu);
        ++done;
        progress(done, cells.size(), idx, results[idx].wallMs);
    };

    // Every cell is known up front, so one shared cursor hands out the
    // next unclaimed cell to whichever worker frees up first: long
    // cells never hold back short ones queued behind them.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t idx; (idx = next.fetch_add(1)) < cells.size();) {
            // Distinct indices per cell: no synchronization needed on
            // the results slot beyond the final joins.
            results[idx] = runCell(cells[idx]);
            report(idx);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(nJobs, cells.size()));
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(worker);
    worker(); // The calling thread is worker 0.
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace dstrange::sim
