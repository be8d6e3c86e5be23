/**
 * @file
 * Ablation of the three modelling refinements the simulator adds to the
 * paper's description of DR-STRaNGe (the config-text keys parking,
 * fill-abort and fill-channels):
 *
 *  1. RNG-mode parking between demand bursts (the RNG-aware batching
 *     the paper motivates in Section 2),
 *  2. switch-in aborts for mispredicted fill sessions,
 *  3. single-channel buffer fill (Section 5.1.1 "selects a channel").
 *
 * Each row disables one refinement on the full DR-STRaNGe design over
 * the 23 plotted dual-core mixes. Every run goes through
 * sim::runSystem(), so DS_LOCKSTEP=1 cross-checks it step-1 against
 * fast-forward.
 */

#include <iostream>

#include "bench_util.h"
#include "sim/lockstep.h"

using namespace dstrange;

namespace {

struct Variant
{
    const char *label;
    const char *knobs; ///< Config text over the full design.
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
    sim::applyConfigText(cfg, "design=drstrange parking=1 fill-abort=1 "
                              "fill-channels=1");
    sim::applyConfigText(cfg, v.knobs);

    const auto sys = sim::runSystem(cfg, [&] {
        std::vector<std::unique_ptr<cpu::TraceSource>> traces;
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(spec.apps[0]), cfg.geometry, 0,
            cfg.seed));
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            spec.rngThroughputMbps, cfg.geometry, cfg.seed + 1));
        return traces;
    });

    Outcome out;
    out.nonRngCycles = static_cast<double>(sys->coreStats(0).finishCycle);
    out.rngCycles = static_cast<double>(sys->coreStats(1).finishCycle);
    out.serveRate = sys->mc().stats().bufferServeRate();
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
        {"full design", ""},
        {"no RNG-mode parking", "parking=0"},
        {"no switch-in abort", "fill-abort=0"},
        {"fill on all channels", "fill-channels=0"}, // 0 = unlimited
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
