/**
 * @file
 * Per-channel RNG-mode execution engine. The memory controller starts the
 * engine to put a channel in RNG mode; the engine then occupies the DRAM
 * channel for the mode-switch and per-round latencies of the configured
 * TRNG mechanism and reports the bits each completed round yields.
 */

#ifndef DSTRANGE_TRNG_RNG_ENGINE_H
#define DSTRANGE_TRNG_RNG_ENGINE_H

#include <cstdint>

#include "common/types.h"
#include "dram/dram_channel.h"
#include "trng/trng_mechanism.h"

namespace dstrange::trng {

/**
 * Drives RNG-mode operation on one DRAM channel.
 *
 * State machine: Regular -> SwitchingIn -> Round -> (Round ...) ->
 * SwitchingOut -> Regular. A stop request takes effect at the end of the
 * current round — the paper's mechanisms cannot abort a round because
 * non-standard timing parameters are active and data integrity elsewhere
 * in the array must be preserved. Two refinements:
 *
 * - An in-progress *switch-in* can be aborted cheaply (the timing-
 *   parameter swap is rolled back before any access happened); a
 *   mispredicted fill session therefore wastes an opportunity but does
 *   not commit the channel to a full round.
 * - After serving demand the controller may *park* the channel in RNG
 *   mode: rounds pause but the non-standard timing parameters stay in
 *   effect, so an imminent next RNG request resumes generation without
 *   paying the switch-in again (the paper's "RNG requests are served in
 *   bursts" behaviour). A parked channel still cannot serve regular
 *   requests until it switches out.
 */
class RngEngine
{
  public:
    /** What a session is generating for; hybrid configurations may use
     *  different mechanisms for the two (Section 8.7 future work). */
    enum class SessionKind : std::uint8_t
    {
        Demand, ///< On-demand 64-bit request service.
        Fill,   ///< Proactive random number buffer filling.
    };

    /** Single-mechanism engine (demand and fill share the mechanism). */
    RngEngine(const TrngMechanism &mechanism, dram::DramChannel &channel);

    /** Hybrid engine: separate demand and fill mechanisms. */
    RngEngine(const TrngMechanism &demand_mechanism,
              const TrngMechanism &fill_mechanism,
              dram::DramChannel &channel);

    /** true when the channel is fully back in Regular mode. */
    bool idle() const { return state == State::Regular; }

    /** true from switch-in start until switch-out end (incl. parked). */
    bool active() const { return state != State::Regular; }

    /** true while committed to at least one more round completion. */
    bool inRound() const { return state == State::Round; }

    /** true while still swapping timing parameters (abortable phase). */
    bool switchingIn() const { return state == State::SwitchingIn; }

    /** true while parked in RNG mode (rounds paused). */
    bool parked() const { return state == State::Parked; }

    /**
     * Begin switching the channel into RNG mode for the given session
     * kind (which selects the mechanism in hybrid configurations).
     * @pre idle()
     */
    void start(Cycle now, SessionKind kind = SessionKind::Demand);

    /**
     * Resume rounds from the parked state (no switch-in needed). The
     * parked mechanism stays active; see canResumeAs().
     * @pre parked()
     */
    void resume(Cycle now);

    /**
     * true if a parked engine can serve @p kind without switching
     * mechanisms (always true for single-mechanism engines).
     */
    bool canResumeAs(SessionKind kind) const;

    /** Kind of the current/last session. */
    SessionKind sessionKind() const { return kind; }

    /** Ask the engine to exit RNG mode after the current round. */
    void requestStop() { wind = Wind::Stop; }

    /** Ask the engine to park in RNG mode after the current round. */
    void requestPark() { wind = Wind::Park; }

    /** Cancel a pending stop/park (more demand arrived). */
    void cancelStop() { wind = Wind::None; }

    /**
     * Abort an in-progress switch-in: the timing-parameter swap has not
     * completed, so it can be rolled back quickly without a round and
     * without the full switch-out; no bits are produced. Used when a
     * regular request arrives during a mispredicted fill session.
     * @pre switchingIn()
     */
    void abortSwitchIn(Cycle now);

    /**
     * Advance one bus cycle.
     * @return random bits produced this cycle (non-zero only on the cycle
     *         a round completes).
     */
    double tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() does anything beyond the
     * batchable per-cycle bookkeeping (occupancy extension and
     * occupied/parked-cycle counting): a phase completion, or an
     * immediate parked-to-switch-out transition. kNoEvent when the
     * engine is idle or parked without a pending stop — it then changes
     * state only when the controller tells it to.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Batch-apply the per-cycle tick() effects for bus cycles
     * [@p from, @p to) in one step (cycle counting and channel-fence
     * extension; phase completions inside the span are applied
     * separately via fastForwardPhases()). Bit-identical to ticking
     * each cycle.
     */
    void fastForward(Cycle from, Cycle to);

    /** End cycle of the current phase (switch or round). */
    Cycle phaseEndCycle() const { return phaseEndsAt; }

    /**
     * Batch-apply @p transitions consecutive phase completions of a
     * generating engine inside a fast-forwarded span: a pending
     * switch-in completion (no bits) followed by round completions
     * (each producing bitsPerRound and noting one channel RNG round),
     * exactly as the per-cycle ticks would. The engine keeps
     * generating afterwards (the span proved no stop/park interferes).
     * @pre (inRound() || switchingIn()) && no stop/park pending
     */
    void fastForwardPhases(unsigned transitions);

    /**
     * Batch-apply the final round completion of a stopping engine
     * inside a fast-forwarded span: the round's bits are produced and
     * the engine moves to SwitchingOut, whose completion is the span's
     * bounding event.
     * @pre inRound() && a stop is pending
     */
    void fastForwardFinalRound();

    /** true while a stop is requested for the end of the round. */
    bool stopRequested() const { return wind == Wind::Stop; }

    /** true while a park is requested for the end of the round. */
    bool parkRequested() const { return wind == Wind::Park; }

    /** true when no end-of-round disposition is pending. */
    bool windNone() const { return wind == Wind::None; }

    /** Total bits produced since construction. */
    double totalBits() const { return bitsProduced; }

    /** Bus cycles spent switching or generating (excludes parking). */
    Cycle totalOccupiedCycles() const { return occupiedCycles; }

    /** Bus cycles spent parked in RNG mode. */
    Cycle totalParkedCycles() const { return parkedCycles; }

    /** Number of aborted switch-ins (wasted fill attempts). */
    std::uint64_t totalAborts() const { return aborts; }

    /** Mechanism of the current/last session. */
    const TrngMechanism &mechanism() const { return *activeMech; }

    const TrngMechanism &demandMechanism() const { return demandMech; }
    const TrngMechanism &fillMechanism() const { return fillMech; }

    /** true when demand and fill use distinct mechanisms. */
    bool isHybrid() const;

  private:
    enum class State : std::uint8_t
    {
        Regular,
        SwitchingIn,
        Round,
        SwitchingOut,
        Parked,
    };

    /** Requested end-of-round disposition. */
    enum class Wind : std::uint8_t
    {
        None, ///< Keep generating rounds.
        Park, ///< Pause rounds, stay in RNG mode.
        Stop, ///< Switch back to Regular mode.
    };

    void beginRound(Cycle now);

    TrngMechanism demandMech;
    TrngMechanism fillMech;
    const TrngMechanism *activeMech;
    dram::DramChannel &chan;

    State state = State::Regular;
    Wind wind = Wind::None;
    SessionKind kind = SessionKind::Demand;
    Cycle phaseEndsAt = 0;

    double bitsProduced = 0.0;
    Cycle occupiedCycles = 0;
    Cycle parkedCycles = 0;
    std::uint64_t aborts = 0;

    /** Bus cycles the channel stays fenced after an abort (rollback). */
    static constexpr Cycle kAbortPenalty = 2;
};

} // namespace dstrange::trng

#endif // DSTRANGE_TRNG_RNG_ENGINE_H
