/**
 * @file
 * Ablation of the three modelling refinements the simulator adds to the
 * paper's description of DR-STRaNGe (the mem::McConfig ablation knobs):
 *
 *  1. RNG-mode parking between demand bursts (the RNG-aware batching
 *     the paper motivates in Section 2),
 *  2. switch-in aborts for mispredicted fill sessions,
 *  3. single-channel buffer fill (Section 5.1.1 "selects a channel").
 *
 * Each row disables one refinement on the full DR-STRaNGe design over
 * the 23 plotted dual-core mixes.
 */

#include <iostream>

#include "bench_util.h"
#include "mem/memory_controller.h"
#include "sim/system.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;

namespace {

struct Variant
{
    const char *label;
    bool parking;
    bool abortSwitchIn;
    unsigned fillChannels; // 0 = unlimited
};

/** Run one mix under DR-STRaNGe with the given refinement settings. */
struct Outcome
{
    double nonRngCycles = 0.0;
    double rngCycles = 0.0;
    double serveRate = 0.0;
};

Outcome
run(const Variant &v, const workloads::WorkloadSpec &spec)
{
    sim::SimConfig cfg = bench::baseConfig();
    sim::DesignRegistry::instance().apply("drstrange", cfg);

    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName(spec.apps[0]), cfg.geometry, 0, cfg.seed));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        spec.rngThroughputMbps, cfg.geometry, cfg.seed + 1));

    // Build the system, then rebuild the controller config by hand to
    // apply the ablation knobs (they are not part of SimConfig).
    mem::McConfig mc_cfg = sim::mcConfigFor(cfg);
    mc_cfg.enableParking = v.parking;
    mc_cfg.enableFillAbort = v.abortSwitchIn;
    mc_cfg.fillChannelLimit = v.fillChannels;

    // Drive the pieces directly (same loop as sim::System).
    mem::MemoryController mc(mc_cfg, cfg.timings, cfg.geometry,
                             cfg.mechanism, 2);
    std::vector<std::unique_ptr<cpu::Core>> cores;
    cpu::Core::Config core_cfg;
    core_cfg.instrBudget = cfg.instrBudget;
    for (unsigned i = 0; i < 2; ++i) {
        cores.push_back(std::make_unique<cpu::Core>(
            static_cast<CoreId>(i), core_cfg, *traces[i], mc));
    }
    mc.setCompletionCallback(
        [&](CoreId core, std::uint64_t token, mem::ReqType,
            mem::ServePath) { cores[core]->onCompletion(token); });

    Cycle now = 0;
    auto all_done = [&] {
        for (const auto &c : cores)
            if (!c->finished())
                return false;
        return true;
    };
    while (!all_done() && now < cfg.maxBusCycles) {
        mc.tick(now);
        for (auto &c : cores)
            c->tickBusCycle(now);
        ++now;
    }

    Outcome out;
    out.nonRngCycles = static_cast<double>(cores[0]->stats().finishCycle);
    out.rngCycles = static_cast<double>(cores[1]->stats().finishCycle);
    out.serveRate = mc.stats().bufferServeRate();
    return out;
}

} // namespace

int
main()
{
    bench::banner("Ablation: reproduction modelling refinements",
                  "DR-STRaNGe with each refinement disabled; execution "
                  "cycles normalized to the full design");

    const Variant variants[] = {
        {"full design", true, true, 1},
        {"no RNG-mode parking", false, true, 1},
        {"no switch-in abort", true, false, 1},
        {"fill on all channels", true, true, 0},
    };

    const auto mixes = workloads::dualCorePlottedMixes(5120.0);

    // Baseline: the full design.
    std::vector<Outcome> base;
    for (const auto &mix : mixes)
        base.push_back(run(variants[0], mix));

    TablePrinter t;
    t.setHeader({"variant", "non-RNG cycles (norm)", "RNG cycles (norm)",
                 "avg serve rate"});
    for (const Variant &v : variants) {
        std::vector<double> non_rng, rng, serve;
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            const Outcome out =
                v.label == variants[0].label ? base[i] : run(v, mixes[i]);
            non_rng.push_back(out.nonRngCycles / base[i].nonRngCycles);
            rng.push_back(out.rngCycles / base[i].rngCycles);
            serve.push_back(out.serveRate);
        }
        t.addRow({v.label, bench::num(geomean(non_rng)),
                  bench::num(geomean(rng)), bench::num(mean(serve))});
    }
    t.print(std::cout);

    std::cout << "\nInterpretation: parking amortizes timing-parameter "
                 "swaps across request bursts;\naborts bound the cost of "
                 "mispredicted fills; single-channel fill keeps the\n"
                 "buffer supply at the paper's scale (Fig. 10's serve "
                 "rates).\n";
    return 0;
}
