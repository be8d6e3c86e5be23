/**
 * @file
 * Scheduler explorer: demonstrates the policy-registry extension point.
 * It defines a strict first-come-first-serve scheduler *in this file*,
 * registers it in mem::SchedulerRegistry under "fcfs", registers a
 * "fcfs-baseline" design preset that selects it, and then sweeps one
 * workload mix across every design in sim::DesignRegistry — the nine
 * paper designs plus the one registered here — printing the full metric
 * set. No src/ code knows about the new policy.
 *
 * Usage: scheduler_explorer [app ...] [rng_mbps]
 *   e.g. scheduler_explorer mcf ycsb2 5120
 * Defaults to "soplex 5120".
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "drstrange.h"

using namespace dstrange;

namespace {

/**
 * Strict FCFS: always serve the oldest request whose next DRAM command
 * can legally issue, with no row-hit preference. Simpler and fairer than
 * FR-FCFS on paper, but it throws away row-buffer locality — the sweep
 * shows what that costs.
 */
class FcfsScheduler : public mem::Scheduler
{
  public:
    int
    pick(const mem::SchedContext &ctx) override
    {
        const auto &entries = ctx.queue.all();
        int best = mem::kNoPick;
        std::uint64_t best_seq = 0;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const mem::Request &req = entries[i];
            const dram::DramCmd cmd =
                mem::nextCommandFor(req, ctx.channel);
            if (!ctx.channel.canIssue(cmd, req.coord.bank, ctx.now))
                continue;
            if (best == mem::kNoPick || req.seq < best_seq) {
                best = static_cast<int>(i);
                best_seq = req.seq;
            }
        }
        return best;
    }

    void
    onColumnIssued(const mem::Request &, unsigned) override
    {
    }
};

/** Register the scheduler and a design preset that selects it. */
void
registerFcfsDesign()
{
    mem::SchedulerRegistry::instance().add(
        "fcfs", [](const mem::SchedulerContext &) {
            return std::make_unique<FcfsScheduler>();
        });
    sim::DesignRegistry::instance().add(
        "fcfs-baseline", "FCFS", [](sim::SimConfig &cfg) {
            sim::DesignRegistry::instance().apply("oblivious", cfg);
            cfg.scheduler = "fcfs";
        });
}

} // namespace

int
main(int argc, char **argv)
{
    registerFcfsDesign();

    workloads::WorkloadSpec spec;
    spec.rngThroughputMbps = 5120.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        char *end = nullptr;
        const double mbps = std::strtod(arg.c_str(), &end);
        if (end && *end == '\0') {
            spec.rngThroughputMbps = mbps;
        } else {
            try {
                workloads::appByName(arg);
            } catch (const std::out_of_range &) {
                std::cerr << "unknown application: " << arg << "\n"
                          << "known applications:";
                for (const auto &p : workloads::appTable())
                    std::cerr << " " << p.name;
                std::cerr << "\n";
                return 1;
            }
            spec.apps.push_back(arg);
        }
    }
    if (spec.apps.empty())
        spec.apps = {"soplex"};
    spec.name = "custom";

    // Every design runs as one cell of a parallel sweep (DS_JOBS
    // controls the worker count); the custom "fcfs-baseline" design
    // registered above rides along because cells resolve design keys
    // through the same registry.
    sim::SimConfig base;
    base.instrBudget = 150000;
    sim::SweepRunner sweep(base);

    std::cout << "Workload:";
    for (const auto &a : spec.apps)
        std::cout << " " << a;
    if (spec.rngThroughputMbps > 0)
        std::cout << " + RNG app @" << spec.rngThroughputMbps << " Mb/s";
    std::cout << "\n\n";

    TablePrinter t;
    t.setHeader({"design", "non-RNG sd", "RNG sd", "unfairness",
                 "serve rate", "pred acc", "energy(uJ)", "bus cycles"});

    const auto &designs = sim::DesignRegistry::instance();
    const std::vector<std::string> keys = designs.keys();
    const auto results =
        sweep.run(sim::SweepRunner::grid(keys, {spec}));
    for (std::size_t d = 0; d < keys.size(); ++d) {
        if (!results[d].ok) {
            std::cerr << "design '" << keys[d]
                      << "' failed: " << results[d].error << "\n";
            return 1;
        }
        const auto &res = results[d].result;
        t.addRow({designs.displayName(keys[d]),
                  TablePrinter::num(res.avgNonRngSlowdown()),
                  TablePrinter::num(res.rngSlowdown()),
                  TablePrinter::num(res.unfairnessIndex),
                  TablePrinter::num(res.bufferServeRate),
                  res.predictorAccuracy < 0
                      ? "-"
                      : TablePrinter::num(res.predictorAccuracy),
                  TablePrinter::num(res.energyNj / 1000.0, 1),
                  std::to_string(res.busCycles)});
    }
    t.print(std::cout);

    std::cout << "\nThe FCFS row comes from a scheduler registered by "
                 "this example --\nsee registerFcfsDesign() for the "
                 "extension-point recipe.\n";
    return 0;
}
