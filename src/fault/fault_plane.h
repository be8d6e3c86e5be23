/**
 * @file
 * Per-channel fault-injection plane + TRNG-side health monitor. The
 * memory controller consults the plane once per completed TRNG round:
 * the round's 256-bit raw audit block is synthesized from the active
 * cell's (seed, channel, cell, use) tuple, corrupted by the configured
 * fault models, and audited with trng/bit_quality statistical tests. A
 * failing audit discards the round's bits; the health monitor then
 * counts failures per cell and blacklists/remaps persistent offenders
 * onto screened spares, with a bounded retry-then-refill escalation
 * when demand is waiting.
 *
 * Fast-forward contract: whether a round passes is a pure function of
 * the cell rotation state, so the plane exposes a peek protocol
 * (beginPeek/peekRound) for horizon queries that leaves every counter
 * and the rotation untouched — a *failing* round is a span-ending
 * event, which keeps every skipped span discard-free and lets
 * commitRound() replay skipped passing rounds with mutations
 * bit-identical to the tick path.
 *
 * Each round is audited once: a per-channel lookahead caches the audits
 * of the channel's next rounds in rotation order. peekRound() reads and
 * extends it, onRound()/commitRound() take its head, and a blacklist,
 * the only change to a pool, clears it. The lookahead is a cache, so it
 * stays out of fingerprint() and the FaultReport.
 */

#ifndef DSTRANGE_FAULT_FAULT_PLANE_H
#define DSTRANGE_FAULT_FAULT_PLANE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "fault/fault_config.h"
#include "fault/fault_model.h"

namespace dstrange::fault {

/** End-of-run fault/mitigation counters (rides in WorkloadResult). */
struct FaultReport
{
    std::string models;    ///< Active model CSV of the run.
    bool monitor = false;  ///< Health monitor was enabled.

    std::uint64_t roundsAudited = 0;   ///< Rounds whose audit passed.
    std::uint64_t roundsDiscarded = 0; ///< Rounds failing the audit.
    std::uint64_t discardsStuck = 0;   ///< ... attributed to stuck cells.
    std::uint64_t discardsWeak = 0;    ///< ... attributed to weak cells.
    std::uint64_t discardsOther = 0;   ///< ... healthy-cell false alarms.
    /** Bits flipped inside the audit blocks of *passing* rounds:
     *  transient corruption delivered silently downstream. */
    std::uint64_t corruptedBits = 0;
    std::uint64_t blacklisted = 0;  ///< Cells retired by the monitor.
    std::uint64_t remapped = 0;     ///< Blacklists absorbed by a spare.
    std::uint64_t forcedBlacklists = 0; ///< Retry-limit escalations.
    std::uint64_t blacklistExhausted = 0; ///< Blacklists with no spare.

    /** Emit as a JSON object (caller owns surrounding structure). */
    void writeJson(JsonWriter &w) const;

    /** Parse a writeJson() document back, bit-exactly. */
    static FaultReport fromJson(const JsonValue &v);

    /** A report of @p cfg's models and monitor with every count zero. */
    static FaultReport headerFrom(const FaultConfig &cfg);
};

/** Any of @p models (parseFaultModels) that corrupts audit blocks
 *  (i.e. not "outage")? */
bool hasCellModels(const std::vector<FaultKind> &models);

/** Outage windows configured: "outage" among @p models
 *  (parseFaultModels of @p cfg.models) with a nonzero window? */
bool hasOutageModel(const FaultConfig &cfg,
                    const std::vector<FaultKind> &models);

/** One channel's outage windows, in dram::DramChannel::setBlackout()'s
 *  terms. */
struct OutageWindow
{
    Cycle period = 0;
    Cycle duration = 0; ///< Clamped to the period.
    Cycle phase = 0;    ///< First window start (a seeded stagger).
    int rank = -1;      ///< Affected rank; -1 for the whole channel.
};

/**
 * The outage schedule of channel @p channel_index under @p cfg. Each
 * channel's phase and, for "rank" scope, its rank (one of @p ranks) are
 * seeded hashes, so outages stagger across channels instead of hitting
 * all of them at once.
 * @pre hasOutageModel(@p cfg, ...)
 */
OutageWindow outageWindow(const FaultConfig &cfg, unsigned channel_index,
                          unsigned ranks);

/**
 * The fault plane: per-channel cell pools with deterministic fault
 * classification, round auditing, and blacklist/remap mitigation.
 * Constructed by the memory controller when hasCellModels() holds.
 */
class FaultPlane
{
  public:
    /** @throws std::out_of_range for a key of @p cfg.models that
     *          kFaultModels does not list. */
    FaultPlane(const FaultConfig &cfg, unsigned channels);

    /**
     * Account one completed TRNG round on @p channel during a normal
     * tick. Selects the channel's next cell, audits its block, rotates
     * the pool, and applies mitigation on failure. @p demand_waiting
     * marks that RNG requests are queued (arms the retry-then-refill
     * escalation).
     * @return true when the round's bits may be delivered.
     */
    bool onRound(unsigned channel, bool demand_waiting);

    /**
     * Replay one *passing* round skipped by fast-forward: identical
     * mutations to the onRound() pass path. The caller guarantees the
     * round passes (horizon queries end spans before failing rounds).
     */
    void commitRound(unsigned channel);

    /** Rewind every channel's peek cursor to its next round before a
     *  horizon probe. */
    void beginPeek();

    /**
     * Probe whether @p channel's next unpeeked round passes, without
     * mutating plane state. Successive calls after one beginPeek() walk
     * successive rounds, with no onRound()/commitRound() in between;
     * each round is audited on its first peek only.
     */
    bool peekRound(unsigned channel);

    /** Round audits run so far (monobit + runs over a synthesized
     *  block); each round costs one, however often it is peeked. */
    std::uint64_t evaluations() const { return evals; }

    /** Rounds of @p channel audited ahead but not yet consumed. */
    std::size_t lookahead(unsigned channel) const
    {
        return channels[channel].ahead.size() - channels[channel].head;
    }

    const FaultReport &stats() const { return counters; }

    /** Snapshot of the counters for WorkloadResult. */
    FaultReport report() const { return counters; }

    /** Non-blacklisted faulty (weak/stuck) cells still in @p channel's
     *  active pool — the health monitor's convergence target is 0. */
    unsigned faultyActive(unsigned channel) const;

    /** Spare cells @p channel has left. */
    unsigned sparesLeft(unsigned channel) const;

    /** Deterministic "key=value " state tokens for lockstep
     *  fingerprinting (counters + per-channel rotation state). */
    std::string fingerprint() const;

  private:
    struct Audit
    {
        bool pass = false;
        std::uint64_t flips = 0;

        bool operator==(const Audit &) const = default;
    };

    struct Cell
    {
        std::uint32_t id = 0;
        CellClass cls = CellClass::Healthy;
        std::uint64_t useCount = 0;
        unsigned failCount = 0;
    };

    struct ChannelState
    {
        std::vector<Cell> pool;           ///< Active rotation.
        std::vector<std::uint32_t> spares; ///< Healthy remap targets.
        std::size_t pointer = 0;          ///< Next cell to use.
        unsigned consecDiscards = 0;      ///< Fails while demand waits.
        /** Audit lookahead: ahead[head + k] is the audit of the round k
         *  rounds after the next, valid while the pool is unchanged. */
        std::vector<Audit> ahead;
        std::size_t head = 0;   ///< First unconsumed entry of ahead.
        std::size_t cursor = 0; ///< Entry the next peekRound() reads.

        void dropLookahead()
        {
            ahead.clear();
            head = cursor = 0;
        }
    };

    /** Pure round evaluation for @p cell at use count @p use. */
    Audit evalRound(unsigned channel, const Cell &cell,
                    std::uint64_t use) const;

    /** Audit the round @p k rounds after @p channel's next one. */
    Audit auditAhead(unsigned channel, std::size_t k);

    /** The audit of @p channel's next round, from the lookahead when it
     *  holds one; the caller then advances the rotation. */
    Audit takeAudit(unsigned channel);

    /** Retire pool slot @p index: swap in a spare or shrink the pool. */
    void blacklistCell(ChannelState &st, std::size_t index);

    FaultConfig cfg;
    std::vector<FaultKind> models; ///< In list order.
    std::vector<ChannelState> channels;
    FaultReport counters;
    std::uint64_t evals = 0; ///< See evaluations().
};

} // namespace dstrange::fault

#endif // DSTRANGE_FAULT_FAULT_PLANE_H
