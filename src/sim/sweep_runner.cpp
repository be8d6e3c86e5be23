#include "sim/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
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

    // Progress reporting shared by the serial and parallel paths. The
    // mutex both serializes callback invocations and guards the counter.
    std::mutex progress_mu;
    std::size_t done = 0;
    auto report = [&](std::size_t idx) {
        if (!progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mu);
        ++done;
        progress(done, cells.size(), idx, results[idx].wallMs);
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(nJobs, cells.size()));
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            results[i] = runCell(cells[i]);
            report(i);
        }
        return results;
    }

    // One deque per worker, seeded round-robin. A worker drains its own
    // deque from the front and, when empty, steals from the *back* of a
    // victim's deque, so long-running cells late in a victim's queue
    // migrate to idle workers. All work is enqueued up front, so a
    // worker may exit as soon as every deque is empty.
    struct WorkQueue
    {
        std::mutex mu;
        std::deque<std::size_t> q;
    };
    std::vector<std::unique_ptr<WorkQueue>> queues;
    queues.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        queues.push_back(std::make_unique<WorkQueue>());
    for (std::size_t i = 0; i < cells.size(); ++i)
        queues[i % workers]->q.push_back(i);

    auto worker = [&](unsigned w) {
        for (;;) {
            std::size_t idx = 0;
            bool found = false;
            {
                WorkQueue &own = *queues[w];
                std::lock_guard<std::mutex> lock(own.mu);
                if (!own.q.empty()) {
                    idx = own.q.front();
                    own.q.pop_front();
                    found = true;
                }
            }
            for (unsigned off = 1; !found && off < workers; ++off) {
                WorkQueue &victim = *queues[(w + off) % workers];
                std::lock_guard<std::mutex> lock(victim.mu);
                if (!victim.q.empty()) {
                    idx = victim.q.back();
                    victim.q.pop_back();
                    found = true;
                }
            }
            if (!found)
                return;
            // Distinct indices per cell: no synchronization needed on
            // the results slot beyond the final joins.
            results[idx] = runCell(cells[idx]);
            report(idx);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(worker, w);
    worker(0); // The calling thread is worker 0.
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace dstrange::sim
