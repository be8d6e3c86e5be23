/**
 * @file
 * One DRAM channel: per-rank bank arrays plus rank- and bus-level timing
 * constraints, autonomous refresh, and energy accounting. The memory
 * controller issues commands through this model; the TRNG engine
 * occupies it during RNG mode.
 */

#ifndef DSTRANGE_DRAM_DRAM_CHANNEL_H
#define DSTRANGE_DRAM_DRAM_CHANNEL_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "dram/address_mapper.h"
#include "dram/bank.h"
#include "dram/dram_timings.h"
#include "dram/energy_counters.h"
#include "mem/memory_backend.h"

namespace dstrange::dram {

/**
 * Cycle-level model of one DDR3 channel with one or more ranks.
 * Constraints enforced: per-bank tRCD/tRAS/tRC/tRP/tRTP/tWR/tCCD,
 * rank-scoped tRRD and tFAW, command-bus serialization (one command per
 * cycle), data-bus occupancy with cross-rank tRTRS turnaround,
 * read/write turnaround, and per-rank tREFI/tRFC refresh.
 *
 * Banks are indexed by the flat rank-major slot `rank * banksPerRank +
 * bankInRank` (DramCoord::bank), so single-rank callers are unchanged.
 * With ranksPerChannel == 1 every rank-scoped constraint degenerates to
 * the historical single-rank behaviour bit-identically.
 *
 * This is the default "ddr4" mem::MemoryBackend implementation (see
 * mem::BackendRegistry); the controller drives it exclusively through
 * the interface.
 */
class DramChannel final : public mem::MemoryBackend
{
  public:
    DramChannel(const DramTimings &timings, const DramGeometry &geometry);

    /** Bank slots across all ranks of the channel. */
    unsigned numBanks() const override
    {
        return static_cast<unsigned>(banks.size());
    }

    unsigned numRanks() const override
    {
        return static_cast<unsigned>(ranks.size());
    }

    /** Rank that owns flat bank slot @p bankIdx. */
    unsigned rankOf(unsigned bankIdx) const override
    {
        return bankIdx / banksEach;
    }

    const Bank &bank(unsigned i) const { return banks[i]; }

    /** Open row of bank slot @p i; kNoOpenRow when closed. */
    std::int64_t openRow(unsigned i) const override
    {
        return banks[i].openRow();
    }

    /**
     * true if @p cmd may issue to @p bankIdx at @p now, considering bank,
     * rank, command-bus and data-bus constraints plus refresh state.
     */
    bool canIssue(DramCmd cmd, unsigned bankIdx, Cycle now) const override;

    /**
     * Earliest cycle at which @p cmd could legally issue to @p bankIdx
     * considering the bank, rank, command-bus and data-bus timing
     * fences (including the cross-rank tRTRS turnaround) — but NOT
     * refresh, RNG-mode, or power-down state (the fast-forward horizon
     * tracks those as separate events). With no intervening command,
     * canIssue(cmd, bankIdx, t) is false for every t below the returned
     * cycle. Requires the bank open/closed state to match the command
     * (e.g. ACT on a closed bank).
     */
    Cycle earliestIssueCycle(DramCmd cmd, unsigned bankIdx) const override;

    /**
     * Issue a command.
     * @pre canIssue(cmd, bankIdx, now)
     * @return for RD/WR the cycle the data burst completes on the bus;
     *         0 for other commands.
     */
    Cycle issue(DramCmd cmd, unsigned bankIdx, Cycle now,
                std::int64_t row = kNoOpenRow) override;

    /**
     * Advance refresh housekeeping by one cycle. While a refresh is being
     * staged the channel precharges open banks itself and regular issue is
     * blocked; call once per bus cycle before scheduling.
     */
    void tickRefresh(Cycle now) override;

    /** true while any rank is staging a refresh or inside tRFC. */
    bool refreshBusy(Cycle now) const override;

    /**
     * Occupy the whole channel for RNG-mode operation until @p until.
     * All banks are closed and fenced; regular traffic cannot issue.
     */
    void occupyForRng(Cycle until) override;

    /** true while the channel is held by the TRNG engine. */
    bool rngBusy(Cycle now) const override { return now < rngBusyUntil; }

    /** Record one executed TRNG round for energy accounting. */
    void noteRngRound() override { counters.rngRounds++; }

    /** Accumulate state residency for this cycle; call once per cycle. */
    void sampleState(Cycle now) override;

    /**
     * Earliest cycle >= @p now at which per-cycle housekeeping
     * (tickRefresh/sampleState) does anything beyond incrementing the
     * state-residency counter selected by the current state: a refresh
     * edge or tRFC end on any rank, the expiry of an RNG-mode fence, or
     * a power-down entry. Returns @p now while a refresh is actively
     * being staged (unless @p engine_active fences the channel, in which
     * case staging is parked until the engine releases it) — staging
     * issues precharges on a per-cycle cadence that cannot be skipped.
     *
     * The caller must not skip past the returned cycle; skipping less is
     * always safe.
     */
    Cycle nextEventCycle(Cycle now, bool engine_active) const override;

    /**
     * Batch-apply sampleState() for bus cycles [@p from, @p to). The
     * state-residency branch must be constant over the span, which the
     * caller guarantees by bounding the span with nextEventCycle().
     * RNG-mode occupancy extensions are applied separately by
     * trng::RngEngine::fastForward().
     */
    void fastForwardState(Cycle from, Cycle to) override;

    const ChannelEnergyCounters &energyCounters() const override
    {
        return counters;
    }

    /** Number of banks with an open row (across all ranks). */
    unsigned openBankCount() const override;

    /**
     * Enable precharge power-down: after @p idle_threshold cycles with
     * all of a rank's banks closed and no activity, that rank powers
     * down; waking costs tXP before the next command (0 disables the
     * policy).
     */
    void setPowerDownPolicy(Cycle idle_threshold) override
    {
        pdThreshold = idle_threshold;
    }

    /** true while every rank is in precharge power-down. */
    bool poweredDown() const override;

    /** true while at least one rank is in precharge power-down. */
    bool anyRankPoweredDown() const override;

    /** Begin waking all powered-down ranks; commands resume after tXP. */
    void requestWake(Cycle now) override;

    /**
     * Observe every issued command (including internally issued
     * refresh-path precharges and REF). Used by verification harnesses
     * that independently re-check the JEDEC constraints. REF is
     * reported against the first bank slot of the refreshing rank.
     */
    using CommandObserver = mem::MemoryBackend::CommandObserver;
    void setCommandObserver(CommandObserver observer) override
    {
        onCommand = std::move(observer);
    }

  private:
    /** Rank-scoped timing/refresh/power state (banks live in the flat
     *  channel array so existing bank-slot indexing is untouched). */
    struct RankState
    {
        // ACT throttling (tRRD / tFAW are per rank).
        Cycle lastActAt = 0;
        bool anyActIssued = false;
        std::array<Cycle, 4> actWindow{}; ///< Circular tFAW history.
        unsigned actWindowPos = 0;
        unsigned actWindowCount = 0;

        // Refresh.
        Cycle nextRefreshAt = 0;
        bool stagingRefresh = false;
        Cycle refreshDoneAt = 0;

        // Precharge power-down.
        bool pd = false;
        Cycle lastActivityAt = 0;

        unsigned nOpenBanks = 0;
    };

    bool rankCanAct(const RankState &r, Cycle now) const;
    void wakeRank(RankState &r, Cycle now);
    /** Extra data-bus gap when the burst switches ranks. */
    Cycle rankTurnaround(unsigned rankIdx) const;

    const DramTimings &t;
    unsigned banksEach; ///< Banks per rank.
    std::vector<Bank> banks; ///< Flat rank-major bank slots.
    std::vector<RankState> ranks;

    // Shared buses (channel-wide).
    Cycle cmdBusFreeAt = 0;
    Cycle dataBusFreeAt = 0;
    Cycle nextRdAt = 0;
    Cycle nextWrAt = 0;
    int lastBurstRank = -1; ///< Rank of the last data burst (-1: none).

    // RNG-mode occupancy.
    Cycle rngBusyUntil = 0;

    // Precharge power-down policy.
    Cycle pdThreshold = 0;

    ChannelEnergyCounters counters;
    CommandObserver onCommand;
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_DRAM_CHANNEL_H
