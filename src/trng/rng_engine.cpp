#include "trng/rng_engine.h"

#include <cassert>

namespace dstrange::trng {

RngEngine::RngEngine(const TrngMechanism &mechanism,
                     dram::DramChannel &channel)
    : RngEngine(mechanism, mechanism, channel)
{
}

RngEngine::RngEngine(const TrngMechanism &demand_mechanism,
                     const TrngMechanism &fill_mechanism,
                     dram::DramChannel &channel)
    : demandMech(demand_mechanism), fillMech(fill_mechanism),
      activeMech(&demandMech), chan(channel)
{
    assert(demandMech.bitsPerRound > 0.0 && demandMech.roundLatency > 0);
    assert(fillMech.bitsPerRound > 0.0 && fillMech.roundLatency > 0);
}

bool
RngEngine::isHybrid() const
{
    return demandMech.name != fillMech.name;
}

bool
RngEngine::canResumeAs(SessionKind new_kind) const
{
    return !isHybrid() || new_kind == kind;
}

void
RngEngine::start(Cycle now, SessionKind session_kind)
{
    assert(idle());
    state = State::SwitchingIn;
    wind = Wind::None;
    kind = session_kind;
    activeMech =
        session_kind == SessionKind::Fill ? &fillMech : &demandMech;
    phaseEndsAt = now + activeMech->switchInLatency;
    // Occupation is extended cycle by cycle in tick() so an aborted
    // switch-in does not leave the channel fenced to the full horizon.
    chan.occupyForRng(now + kAbortPenalty);
}

void
RngEngine::resume(Cycle now)
{
    assert(parked());
    wind = Wind::None;
    beginRound(now);
}

void
RngEngine::beginRound(Cycle now)
{
    state = State::Round;
    phaseEndsAt = now + activeMech->roundLatency;
}

void
RngEngine::abortSwitchIn(Cycle now)
{
    assert(switchingIn());
    state = State::Regular;
    wind = Wind::None;
    aborts++;
    chan.occupyForRng(now + kAbortPenalty);
}

Cycle
RngEngine::nextEventCycle(Cycle now) const
{
    switch (state) {
      case State::Regular:
        return kNoEvent;
      case State::Parked:
        // A pending stop takes effect on the very next tick; otherwise a
        // parked engine only reacts to the controller.
        return wind == Wind::Stop ? now : kNoEvent;
      case State::SwitchingIn:
      case State::Round:
      case State::SwitchingOut:
        // The phase completes during the tick at phaseEndsAt - 1 (tick()
        // fires when now + 1 >= phaseEndsAt); every earlier tick only
        // counts cycles and extends the channel occupancy.
        return phaseEndsAt > now + 1 ? phaseEndsAt - 1 : now;
    }
    return now;
}

void
RngEngine::fastForward(Cycle from, Cycle to)
{
    assert(to > from);
    if (state == State::Regular)
        return;
    // Per-cycle ticks extend the occupation monotonically; the batched
    // span's final extension (from cycle to - 1) covers them all.
    chan.occupyForRng(to - 1 + kAbortPenalty);
    if (state == State::Parked)
        parkedCycles += to - from;
    else
        occupiedCycles += to - from;
}

void
RngEngine::fastForwardPhases(unsigned transitions)
{
    assert(state == State::Round || state == State::SwitchingIn);
    assert(wind == Wind::None);
    for (unsigned i = 0; i < transitions; ++i) {
        if (state == State::SwitchingIn) {
            state = State::Round; // Switch-in completes; first round.
        } else {
            // One round completes; the bits are routed by the caller.
            chan.noteRngRound();
            bitsProduced += activeMech->bitsPerRound;
        }
        phaseEndsAt += activeMech->roundLatency;
    }
}

void
RngEngine::fastForwardFinalRound()
{
    assert(state == State::Round && wind == Wind::Stop);
    chan.noteRngRound();
    bitsProduced += activeMech->bitsPerRound;
    state = State::SwitchingOut;
    phaseEndsAt += activeMech->switchOutLatency;
}

double
RngEngine::tick(Cycle now)
{
    if (state == State::Regular)
        return 0.0;

    chan.occupyForRng(now + kAbortPenalty);

    if (state == State::Parked) {
        parkedCycles++;
        if (wind == Wind::Stop) {
            state = State::SwitchingOut;
            phaseEndsAt = now + activeMech->switchOutLatency;
            occupiedCycles++;
        }
        return 0.0;
    }

    occupiedCycles++;
    if (now + 1 < phaseEndsAt)
        return 0.0;

    // The current phase completes at the end of this cycle.
    const Cycle next = phaseEndsAt;
    switch (state) {
      case State::SwitchingIn:
        beginRound(next);
        return 0.0;
      case State::Round: {
        chan.noteRngRound();
        bitsProduced += activeMech->bitsPerRound;
        if (wind == Wind::Stop) {
            state = State::SwitchingOut;
            phaseEndsAt = next + activeMech->switchOutLatency;
        } else if (wind == Wind::Park) {
            state = State::Parked;
        } else {
            beginRound(next);
        }
        return activeMech->bitsPerRound;
      }
      case State::SwitchingOut:
        state = State::Regular;
        wind = Wind::None;
        return 0.0;
      case State::Parked:
      case State::Regular:
        break;
    }
    return 0.0;
}

} // namespace dstrange::trng
