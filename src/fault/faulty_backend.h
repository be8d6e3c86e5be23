/**
 * @file
 * The "faulty" decorator MemoryBackend: wraps any inner timing backend
 * ("ddr4" and "fixed-latency" alike) and overlays deterministic, timed
 * rank/channel outage windows on top of it. An outage behaves like an
 * extended refresh: canIssue() goes false for the affected scope and
 * refreshBusy() reports busy for channel-scope outages, so every
 * controller path that already defers to refresh defers to outages too
 * — no controller changes needed. Window edges are reported through
 * nextEventCycle(), which keeps fast-forward spans outage-constant and
 * bit-identical.
 */

#ifndef DSTRANGE_FAULT_FAULTY_BACKEND_H
#define DSTRANGE_FAULT_FAULTY_BACKEND_H

#include <memory>

#include "fault/fault_config.h"
#include "mem/memory_backend.h"

namespace dstrange::fault {

class FaultyBackend final : public mem::MemoryBackend
{
  public:
    /**
     * Wrap @p inner with the outage schedule of @p cfg for channel
     * @p channel_index. Each channel's window phase (and, for "rank"
     * scope, the affected rank) is a seeded hash, so outages stagger
     * across channels instead of hitting all of them at once.
     */
    FaultyBackend(std::unique_ptr<mem::MemoryBackend> inner,
                  const FaultConfig &cfg, unsigned channel_index);

    /** An outage window covers @p now (for the configured scope). */
    bool outageActive(Cycle now) const;

    /** Next cycle >= @p now at which outageActive() changes value. */
    Cycle nextOutageEdge(Cycle now) const;

    // MemoryBackend — timing queries overlaid with the outage windows.
    bool canIssue(dram::DramCmd cmd, unsigned bankIdx,
                  Cycle now) const override;
    bool refreshBusy(Cycle now) const override;
    Cycle nextEventCycle(Cycle now, bool engine_active) const override;

    // MemoryBackend — pure forwarding.
    unsigned numBanks() const override { return inner->numBanks(); }
    unsigned numRanks() const override { return inner->numRanks(); }
    unsigned
    rankOf(unsigned bankIdx) const override
    {
        return inner->rankOf(bankIdx);
    }
    std::int64_t
    openRow(unsigned bankIdx) const override
    {
        return inner->openRow(bankIdx);
    }
    Cycle
    earliestIssueCycle(dram::DramCmd cmd, unsigned bankIdx) const override
    {
        // The contract already excludes refresh/RNG/power-down state;
        // outages ride the same exclusion, so the inner fence stands.
        return inner->earliestIssueCycle(cmd, bankIdx);
    }
    Cycle
    issue(dram::DramCmd cmd, unsigned bankIdx, Cycle now,
          std::int64_t row = dram::kNoOpenRow) override
    {
        return inner->issue(cmd, bankIdx, now, row);
    }
    void tickRefresh(Cycle now) override { inner->tickRefresh(now); }
    void occupyForRng(Cycle until) override { inner->occupyForRng(until); }
    bool rngBusy(Cycle now) const override { return inner->rngBusy(now); }
    void noteRngRound() override { inner->noteRngRound(); }
    void sampleState(Cycle now) override { inner->sampleState(now); }
    void
    fastForwardState(Cycle from, Cycle to) override
    {
        inner->fastForwardState(from, to);
    }
    const dram::ChannelEnergyCounters &
    energyCounters() const override
    {
        return inner->energyCounters();
    }
    unsigned
    openBankCount() const override
    {
        return inner->openBankCount();
    }
    void
    setPowerDownPolicy(Cycle idle_threshold) override
    {
        inner->setPowerDownPolicy(idle_threshold);
    }
    bool poweredDown() const override { return inner->poweredDown(); }
    bool
    anyRankPoweredDown() const override
    {
        return inner->anyRankPoweredDown();
    }
    void requestWake(Cycle now) override { inner->requestWake(now); }
    void
    setCommandObserver(CommandObserver observer) override
    {
        inner->setCommandObserver(std::move(observer));
    }

  private:
    std::unique_ptr<mem::MemoryBackend> inner;
    Cycle period;
    Cycle duration;
    bool rankScope;
    Cycle phase = 0;        ///< First window start (seeded stagger).
    unsigned affectedRank = 0;
};

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULTY_BACKEND_H
