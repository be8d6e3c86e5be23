/**
 * @file
 * Top-level simulated system: N cores + memory controller + DRAM +
 * integrated DRAM TRNG. Components advance in lock-step at bus-cycle
 * granularity, but quiescent stretches — every component reporting that
 * its next tick only does batchable bookkeeping — are fast-forwarded in
 * one jump to the earliest event horizon, with bit-identical results
 * (see README "How the simulator advances time" and DS_LOCKSTEP).
 */

#ifndef DSTRANGE_SIM_SYSTEM_H
#define DSTRANGE_SIM_SYSTEM_H

#include <memory>
#include <vector>

#include "cpu/core.h"
#include "cpu/trace_source.h"
#include "service/open_loop_service.h"
#include "sim/sim_config.h"
#include "trace/trace_replay_source.h"
#include "trace/trace_writer.h"
#include "trng/entropy_source.h"

namespace dstrange::sim {

/**
 * Owns and steps all components. Cores run until each retires its
 * instruction budget; finished cores keep generating traffic (standard
 * multi-programmed methodology) but their statistics freeze.
 */
class System
{
  public:
    System(const SimConfig &config,
           std::vector<std::unique_ptr<cpu::TraceSource>> traces);

    // The memory controller's completion callback captures `this`;
    // moving or copying a System would leave it dangling.
    System(const System &) = delete;
    System &operator=(const System &) = delete;
    System(System &&) = delete;
    System &operator=(System &&) = delete;

    /** Run to completion (all budgets retired) or the safety bound. */
    void run();

    /** Advance exactly @p cycles bus cycles (for tests). */
    void step(Cycle cycles);

    /**
     * Enable/disable event-driven cycle skipping (default: the
     * DS_FAST_FORWARD environment flag, which defaults to on). With it
     * on, quiescent spans are jumped over, the controller is ticked
     * alone while every core is blocked (the controller-only drain),
     * and the controller's shortcuts (ticking only channels with due
     * work, the scheduler forcedPick() pre-check) are enabled. With it
     * off every bus cycle is ticked individually by the unshortcut
     * code — the reference that DS_LOCKSTEP and the difftest harness
     * compare the fast path against. Results are bit-identical either
     * way.
     */
    void
    setFastForward(bool enabled)
    {
        ffEnabled = enabled;
        controller->setFastPath(enabled);
    }
    bool fastForwardEnabled() const { return ffEnabled; }

    /**
     * The earliest cycle >= busCycles() at which any component does
     * non-batchable work (the fast-forward horizon). Exposed for tests;
     * equal to busCycles() when the current cycle must tick normally.
     */
    Cycle nextEventCycle() const;

    /** Fast-forward effectiveness counters (telemetry/bench records). */
    struct FfStats
    {
        std::uint64_t steppedCycles = 0; ///< Bus cycles ticked normally.
        std::uint64_t skips = 0;         ///< Fast-forward jumps taken.
        std::uint64_t skippedCycles = 0; ///< Bus cycles jumped over.
        /** Bus cycles where only the controller ticked (the drain);
         *  the cores/service advanced analytically over them. */
        std::uint64_t drainTicks = 0;
        /** Per-channel phase passes the controller ran: at most
         *  channels x (steppedCycles + drainTicks). */
        std::uint64_t channelTicks = 0;
        /** Channel wake cycles the controller computed from scratch. */
        std::uint64_t horizonRecomputes = 0;
    };
    const FfStats &ffStats() const { return ffCounters; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores.size());
    }
    const cpu::CoreStats &coreStats(unsigned i) const
    {
        return cores[i]->stats();
    }
    const std::string &traceName(unsigned i) const
    {
        return cores[i]->traceName();
    }
    mem::MemoryController &mc() { return *controller; }
    const mem::MemoryController &mc() const { return *controller; }
    /** The open-loop service driver, or nullptr when not configured. */
    const service::OpenLoopService *service() const { return svc.get(); }
    /** The replay source, or nullptr outside replay mode. */
    const trace::TraceReplaySource *replaySource() const
    {
        return replay.get();
    }
    trng::EntropySource &entropy() { return entropySource; }
    Cycle busCycles() const { return now; }
    bool allFinished() const;
    const SimConfig &config() const { return cfg; }

  private:
    /** Advance to @p end, optionally stopping once all budgets retire. */
    void advanceUntil(Cycle end, bool stop_when_finished);

    /**
     * The controller-only drain bound at the current cycle: the earliest
     * of @p end, the cores' horizons and the service/replay horizons, or
     * `now` when the drain cannot start (some core is active now, or
     * service work is in flight).
     */
    Cycle drainBound(Cycle end) const;

    /** Tick every core for bus cycle `now` (after the controller). */
    void tickCores();

    SimConfig cfg;
    std::vector<std::unique_ptr<cpu::TraceSource>> traceOwners;
    std::unique_ptr<mem::MemoryController> controller;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    /** Open-loop service driver on the port past the last core. */
    std::unique_ptr<service::OpenLoopService> svc;
    /** Tape standing in for cores + service when cfg.traceReplay set. */
    std::unique_ptr<trace::TraceReplaySource> replay;
    /** Recorder hooked into the controller when cfg.traceRecord set. */
    std::unique_ptr<trace::TraceWriter> recorder;
    trng::EntropySource entropySource;
    Cycle now = 0;
    bool ffEnabled = false;
    /** Set by the completion callback whenever a core receives a
     *  completion; the drain polls and clears it instead of
     *  re-deriving every core's horizon after every controller tick. */
    bool coreCompletionPending = false;
    FfStats ffCounters;
};

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_SYSTEM_H
