/**
 * @file
 * One DRAM channel: per-rank bank arrays under one derived timing table
 * (dram::TimingTable), autonomous refresh, precharge power-down,
 * periodic outage blackouts, and energy accounting. The memory
 * controller and its schedulers issue commands through this model; the
 * TRNG engine occupies it during RNG mode.
 */

#ifndef DSTRANGE_DRAM_DRAM_CHANNEL_H
#define DSTRANGE_DRAM_DRAM_CHANNEL_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "dram/energy_counters.h"

namespace dstrange::dram {

/**
 * Cycle-level model of one channel with one or more ranks. Every
 * inter-command constraint comes from a TimingTable: the DDR3-1600 row
 * (per-bank tRCD/tRAS/tRC/tRP/tRTP/tWR, rank-scoped tRRD and tFAW,
 * column turnarounds, data-bus occupancy with cross-rank tRTRS) or the
 * fixed-latency row. On top of the table the channel serializes the
 * command bus (one command per cycle) and runs per-rank tREFI/tRFC
 * refresh.
 *
 * The channel keeps, per bank and per rank, the next legal cycle of
 * each command class and raises them by table lookup at issue, so a
 * legality query is a max over three fences.
 *
 * Banks are indexed by the flat rank-major slot `rank * banksPerRank +
 * bankInRank` (DramCoord::bank). With ranksPerChannel == 1 no
 * cross-rank constraint ever applies.
 */
class DramChannel
{
  public:
    DramChannel(const TimingTable &table, const DramGeometry &geometry);

    /** The DDR model (TimingTable::ddr(@p timings)). */
    DramChannel(const DramTimings &timings, const DramGeometry &geometry)
        : DramChannel(TimingTable::ddr(timings), geometry)
    {
    }

    /** Bank slots across all ranks of the channel. */
    unsigned numBanks() const { return static_cast<unsigned>(banks.size()); }

    unsigned numRanks() const { return static_cast<unsigned>(ranks.size()); }

    /** Rank that owns flat bank slot @p bankIdx. */
    unsigned rankOf(unsigned bankIdx) const { return bankIdx / banksEach; }

    /** Open row of bank slot @p i; kNoOpenRow when closed. */
    std::int64_t openRow(unsigned i) const { return banks[i].row; }

    /**
     * true if @p cmd may issue to @p bankIdx at @p now, considering the
     * timing fences plus refresh, RNG-mode, power-down and blackout
     * state.
     */
    bool canIssue(DramCmd cmd, unsigned bankIdx, Cycle now) const;

    /**
     * Earliest cycle at which @p cmd could legally issue to @p bankIdx
     * considering the command bus and the timing fences — but NOT
     * refresh, RNG-mode, power-down or blackout state (the fast-forward
     * horizon tracks those as separate events). With no intervening
     * command, canIssue(cmd, bankIdx, t) is false for every t below the
     * returned cycle. Requires the bank open/closed state to match the
     * command (e.g. ACT on a closed bank).
     */
    Cycle
    earliestIssueCycle(DramCmd cmd, unsigned bankIdx) const
    {
        const auto c = static_cast<unsigned>(cmd);
        return std::max({cmdBusFreeAt, banks[bankIdx].next[c],
                         ranks[rankOf(bankIdx)].next[c]});
    }

    /**
     * Issue a command.
     * @pre canIssue(cmd, bankIdx, now)
     * @return for RD/WR the cycle the data burst completes on the bus;
     *         0 for other commands.
     */
    Cycle issue(DramCmd cmd, unsigned bankIdx, Cycle now,
                std::int64_t row = kNoOpenRow);

    /**
     * Advance refresh housekeeping by one cycle. While a refresh is being
     * staged the channel precharges open banks itself and regular issue is
     * blocked; call once per bus cycle before scheduling.
     */
    void tickRefresh(Cycle now);

    /**
     * true while any rank is staging a refresh or inside tRFC, or a
     * whole-channel blackout covers @p now.
     */
    bool
    refreshBusy(Cycle now) const
    {
        return refreshing(now) || (blackedOut(now) && blackoutRank < 0);
    }

    /**
     * Occupy the whole channel for RNG-mode operation until @p until:
     * regular traffic cannot issue.
     */
    void occupyForRng(Cycle until);

    /** true while the channel is held by the TRNG engine. */
    bool rngBusy(Cycle now) const { return now < rngBusyUntil; }

    /** Record one executed TRNG round for energy accounting. */
    void noteRngRound() { counters.rngRounds++; }

    /** Accumulate state residency for this cycle; call once per cycle. */
    void sampleState(Cycle now);

    /**
     * Earliest cycle >= @p now at which per-cycle housekeeping
     * (tickRefresh/sampleState) does anything beyond incrementing the
     * state-residency counter selected by the current state, or a
     * blackout window opens or closes: a refresh edge or tRFC end on
     * any rank, the expiry of an RNG-mode fence, or a power-down entry.
     * Returns @p now while a refresh is actively being staged (unless
     * @p engine_active fences the channel, in which case staging is
     * parked until the engine releases it) — staging issues precharges
     * on a per-cycle cadence that cannot be skipped.
     *
     * The caller must not skip past the returned cycle; skipping less is
     * always safe.
     */
    Cycle nextEventCycle(Cycle now, bool engine_active) const;

    /**
     * Batch-apply sampleState() for bus cycles [@p from, @p to). The
     * state-residency branch must be constant over the span, which the
     * caller guarantees by bounding the span with nextEventCycle().
     * RNG-mode occupancy extensions are applied separately by
     * trng::RngEngine::fastForward().
     */
    void fastForwardState(Cycle from, Cycle to);

    const ChannelEnergyCounters &energyCounters() const { return counters; }

    /** Number of banks with an open row (across all ranks). */
    unsigned openBankCount() const;

    /**
     * Enable precharge power-down: after @p idle_threshold cycles with
     * all of a rank's banks closed and no activity, that rank powers
     * down; waking costs tXP before the next command (0 disables the
     * policy, and so does a table without power-down).
     */
    void
    setPowerDownPolicy(Cycle idle_threshold)
    {
        pdThreshold = tt.powerDown ? idle_threshold : 0;
    }

    /**
     * Periodic blackout (an outage window): from @p phase on, the first
     * @p duration cycles of every @p period cycles keep commands off
     * rank @p rank, or off the whole channel when @p rank < 0, where it
     * also reads as refreshBusy(). The channel's own power-down entry
     * and residency never see a blackout.
     * @pre 0 < @p duration <= @p period
     */
    void
    setBlackout(Cycle period, Cycle duration, Cycle phase, int rank)
    {
        blackoutPeriod = period;
        blackoutDuration = duration;
        blackoutPhase = phase;
        blackoutRank = rank;
    }

    /** true while every rank is in precharge power-down. */
    bool poweredDown() const;

    /** true while at least one rank is in precharge power-down. */
    bool anyRankPoweredDown() const;

    /** Begin waking all powered-down ranks; commands resume after tXP. */
    void requestWake(Cycle now);

    /**
     * Observe every issued command (including internally issued
     * refresh-path precharges and REF). Used by verification harnesses
     * that independently re-check the JEDEC constraints. REF is
     * reported against the first bank slot of the refreshing rank.
     */
    using CommandObserver =
        std::function<void(DramCmd, unsigned bank, Cycle, std::int64_t row)>;
    void setCommandObserver(CommandObserver observer)
    {
        onCommand = std::move(observer);
    }

  private:
    /** Next legal cycle per command class (Act, Pre, Rd, Wr). */
    using Fences = std::array<Cycle, 4>;

    struct BankState
    {
        std::int64_t row = kNoOpenRow;
        Fences next{};
    };

    /** Rank-scoped fences, refresh and power state (banks live in the
     *  flat channel array). */
    struct RankState
    {
        Fences next{};
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

    /** Raise the fences @p cmd at @p now sets on its bank and ranks. */
    void applyGaps(DramCmd cmd, unsigned bankIdx, Cycle now);
    void precharge(unsigned bankIdx, Cycle now);
    void wakeRank(RankState &r, Cycle now);

    /** Refresh staging or tRFC on any rank (blackouts excluded). */
    bool refreshing(Cycle now) const;

    bool
    blackedOut(Cycle now) const
    {
        return blackoutDuration > 0 && now >= blackoutPhase &&
               (now - blackoutPhase) % blackoutPeriod < blackoutDuration;
    }

    /** Next cycle >= @p now at which blackedOut() changes value. */
    Cycle nextBlackoutEdge(Cycle now) const;

    unsigned banksEach; ///< Banks per rank.
    std::vector<BankState> banks; ///< Flat rank-major bank slots.
    std::vector<RankState> ranks;

    Cycle cmdBusFreeAt = 0; ///< One command per cycle, channel-wide.
    int lastBurstRank = -1; ///< Rank of the last data burst (-1: none).

    // RNG-mode occupancy.
    Cycle rngBusyUntil = 0;

    // Precharge power-down policy.
    Cycle pdThreshold = 0;

    // Blackout windows (duration 0: none).
    Cycle blackoutPeriod = 0;
    Cycle blackoutDuration = 0;
    Cycle blackoutPhase = 0;
    int blackoutRank = -1;

    ChannelEnergyCounters counters;
    CommandObserver onCommand;
    TimingTable tt; ///< Read at issue; kept off the hot state's lines.
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_DRAM_CHANNEL_H
