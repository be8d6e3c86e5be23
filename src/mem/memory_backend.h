/**
 * @file
 * The timing-model seam between the memory controller and the DRAM
 * model. MemoryBackend is the exact call surface the controller, the
 * schedulers, and the TRNG engine exercised on dram::DramChannel —
 * issue-legality probing, command issue, refresh/RNG/power-down state,
 * and the fast-forward horizon queries — extracted into an abstract
 * interface so an alternative timing model (an analytical fixed-latency
 * backend, or an external simulator adapter) can be swapped in behind a
 * mem::BackendRegistry key without touching controller code.
 *
 * Commands and bank addressing keep the DRAM vocabulary (dram::DramCmd,
 * flat rank-major bank slots): the seam abstracts *timing*, not the
 * command protocol — every backend must model what the controller can
 * observe (open rows, per-command legality, data-burst completion
 * cycles), however coarsely it accounts for time.
 */

#ifndef DSTRANGE_MEM_MEMORY_BACKEND_H
#define DSTRANGE_MEM_MEMORY_BACKEND_H

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "dram/bank.h"
#include "dram/energy_counters.h"

namespace dstrange::mem {

/**
 * One memory channel as the controller sees it: a set of flat
 * rank-major bank slots accepting DRAM commands, plus refresh, RNG-mode
 * occupancy, power-down, energy accounting, and the event-horizon
 * queries the fast-forward engine needs. dram::DramChannel is the
 * cycle-level "ddr4" implementation; FixedLatencyBackend is the
 * analytical cross-validation stub.
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /** Bank slots across all ranks of the channel. */
    virtual unsigned numBanks() const = 0;

    virtual unsigned numRanks() const = 0;

    /** Rank that owns flat bank slot @p bankIdx. */
    virtual unsigned rankOf(unsigned bankIdx) const = 0;

    /** Open row of bank slot @p bankIdx; dram::kNoOpenRow when closed. */
    virtual std::int64_t openRow(unsigned bankIdx) const = 0;

    /**
     * true if @p cmd may issue to @p bankIdx at @p now, considering
     * every constraint the backend models (bank/rank/bus timing,
     * refresh, RNG-mode occupancy, power-down).
     */
    virtual bool canIssue(dram::DramCmd cmd, unsigned bankIdx,
                          Cycle now) const = 0;

    /**
     * Earliest cycle at which @p cmd could legally issue to @p bankIdx
     * considering the timing fences — but NOT refresh, RNG-mode, or
     * power-down state (the fast-forward horizon tracks those as
     * separate events). With no intervening command, canIssue(cmd,
     * bankIdx, t) is false for every t below the returned cycle.
     * Requires the bank open/closed state to match the command.
     */
    virtual Cycle earliestIssueCycle(dram::DramCmd cmd,
                                     unsigned bankIdx) const = 0;

    /**
     * Issue a command.
     * @pre canIssue(cmd, bankIdx, now)
     * @return for RD/WR the cycle the data burst completes on the bus;
     *         0 for other commands.
     */
    virtual Cycle issue(dram::DramCmd cmd, unsigned bankIdx, Cycle now,
                        std::int64_t row = dram::kNoOpenRow) = 0;

    /**
     * Advance refresh housekeeping by one cycle; call once per bus
     * cycle before scheduling. Backends without refresh make this a
     * no-op.
     */
    virtual void tickRefresh(Cycle now) = 0;

    /** true while refresh blocks regular issue. */
    virtual bool refreshBusy(Cycle now) const = 0;

    /**
     * Occupy the whole channel for RNG-mode operation until @p until.
     * All banks are closed and fenced; regular traffic cannot issue.
     */
    virtual void occupyForRng(Cycle until) = 0;

    /** true while the channel is held by the TRNG engine. */
    virtual bool rngBusy(Cycle now) const = 0;

    /** Record one executed TRNG round for energy accounting. */
    virtual void noteRngRound() = 0;

    /** Accumulate state residency for this cycle; call once per cycle. */
    virtual void sampleState(Cycle now) = 0;

    /**
     * Earliest cycle >= @p now at which per-cycle housekeeping
     * (tickRefresh/sampleState) does anything beyond incrementing the
     * state-residency counter selected by the current state. The caller
     * must not skip past the returned cycle; skipping less is always
     * safe. @p engine_active fences refresh staging while the TRNG
     * engine holds the channel.
     */
    virtual Cycle nextEventCycle(Cycle now, bool engine_active) const = 0;

    /**
     * Batch-apply sampleState() for bus cycles [@p from, @p to). The
     * state-residency branch must be constant over the span, which the
     * caller guarantees by bounding the span with nextEventCycle().
     */
    virtual void fastForwardState(Cycle from, Cycle to) = 0;

    virtual const dram::ChannelEnergyCounters &energyCounters() const = 0;

    /** Number of banks with an open row (across all ranks). */
    virtual unsigned openBankCount() const = 0;

    /**
     * Enable precharge power-down after @p idle_threshold idle cycles
     * (0 disables). Backends without a power model ignore the policy
     * and report poweredDown() == false forever.
     */
    virtual void setPowerDownPolicy(Cycle idle_threshold) = 0;

    /** true while every rank is in precharge power-down. */
    virtual bool poweredDown() const = 0;

    /** true while at least one rank is in precharge power-down. */
    virtual bool anyRankPoweredDown() const = 0;

    /** Begin waking all powered-down ranks. */
    virtual void requestWake(Cycle now) = 0;

    /**
     * Observe every issued command (including internally issued
     * refresh-path precharges and REF). Used by verification harnesses
     * that independently re-check the JEDEC constraints, and by the
     * cross-validation tooling comparing two backends' command streams.
     */
    using CommandObserver = std::function<void(dram::DramCmd, unsigned bank,
                                               Cycle, std::int64_t row)>;
    virtual void setCommandObserver(CommandObserver observer) = 0;
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_MEMORY_BACKEND_H
