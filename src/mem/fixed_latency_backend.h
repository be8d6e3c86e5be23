/**
 * @file
 * Analytical constant-latency memory backend — the cross-validation
 * stub behind the `"fixed-latency"` mem::BackendRegistry key. It keeps
 * the protocol-visible state the controller relies on (open rows, the
 * one-command-per-cycle bus, RNG-mode occupancy) but replaces the JEDEC
 * timing fences with three numbers: a read latency, a write latency,
 * and a minimum column-to-column gap. Comparing a design's metrics
 * under "ddr4" vs "fixed-latency" separates effects of the detailed
 * timing model from effects of the scheduling policy under study.
 */

#ifndef DSTRANGE_MEM_FIXED_LATENCY_BACKEND_H
#define DSTRANGE_MEM_FIXED_LATENCY_BACKEND_H

#include <vector>

#include "dram/address_mapper.h"
#include "mem/memory_backend.h"

namespace dstrange::mem {

/**
 * One channel under the analytical model. Rows still open and close
 * (ACT/PRE are real commands so row-hit-aware schedulers behave
 * sensibly), but every command is legal one cycle after the previous
 * one, column commands additionally respect the configured gap, and
 * RD/WR data completes a fixed latency after issue. There is no
 * refresh, no power-down, and no cross-rank turnaround.
 */
class FixedLatencyBackend final : public MemoryBackend
{
  public:
    FixedLatencyBackend(const dram::DramGeometry &geometry,
                        Cycle read_latency, Cycle write_latency,
                        Cycle column_gap);

    unsigned numBanks() const override
    {
        return static_cast<unsigned>(openRows.size());
    }

    unsigned numRanks() const override { return ranks; }

    unsigned rankOf(unsigned bankIdx) const override
    {
        return bankIdx / banksEach;
    }

    std::int64_t openRow(unsigned bankIdx) const override
    {
        return openRows[bankIdx];
    }

    bool canIssue(dram::DramCmd cmd, unsigned bankIdx,
                  Cycle now) const override;

    Cycle earliestIssueCycle(dram::DramCmd cmd,
                             unsigned bankIdx) const override;

    Cycle issue(dram::DramCmd cmd, unsigned bankIdx, Cycle now,
                std::int64_t row = dram::kNoOpenRow) override;

    void tickRefresh(Cycle now) override { (void)now; }

    bool refreshBusy(Cycle now) const override
    {
        (void)now;
        return false;
    }

    void occupyForRng(Cycle until) override;

    bool rngBusy(Cycle now) const override { return now < rngBusyUntil; }

    void noteRngRound() override { counters.rngRounds++; }

    void sampleState(Cycle now) override;

    Cycle nextEventCycle(Cycle now, bool engine_active) const override;

    void fastForwardState(Cycle from, Cycle to) override;

    const dram::ChannelEnergyCounters &energyCounters() const override
    {
        return counters;
    }

    unsigned openBankCount() const override { return nOpen; }

    /** No power model: the policy is accepted and ignored. */
    void setPowerDownPolicy(Cycle idle_threshold) override
    {
        (void)idle_threshold;
    }

    bool poweredDown() const override { return false; }

    bool anyRankPoweredDown() const override { return false; }

    void requestWake(Cycle now) override { (void)now; }

    void setCommandObserver(CommandObserver observer) override
    {
        onCommand = std::move(observer);
    }

  private:
    /** Whether this cycle samples as active or precharged standby. */
    bool activeNow(Cycle now) const
    {
        return nOpen > 0 || rngBusy(now);
    }

    unsigned ranks;
    unsigned banksEach; ///< Banks per rank.
    Cycle readLatency;
    Cycle writeLatency;
    Cycle columnGap;

    std::vector<std::int64_t> openRows; ///< kNoOpenRow when closed.
    unsigned nOpen = 0;

    Cycle cmdBusFreeAt = 0; ///< One command per cycle, channel-wide.
    Cycle nextColAt = 0;    ///< Column-to-column gap fence.
    Cycle rngBusyUntil = 0;

    dram::ChannelEnergyCounters counters;
    CommandObserver onCommand;
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_FIXED_LATENCY_BACKEND_H
