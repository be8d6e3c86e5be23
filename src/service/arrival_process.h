/**
 * @file
 * Seeded arrival processes for the open-loop service layer. A process
 * is a deterministic stream of arrival cycles: peek() exposes the next
 * arrival, pop() consumes it. All randomness flows through
 * Xoshiro256ss, so a (key, params) pair always produces the same
 * stream — the property the golden-value tests pin.
 *
 * Keys (kArrivals):
 *  - "bursty"      MMPP-style on/off: exponential on/off dwells; the
 *                  on-phase rate is burstFactor times the mean so the
 *                  long-run offered rate is preserved.
 *  - "closed-loop" Parity shim: `clients` requests outstanding at all
 *                  times; a completion releases the next arrival.
 *  - "diurnal"     Sinusoidal rate schedule over periodCycles with
 *                  relative amplitude (1 - 1/burstFactor).
 *  - "poisson"     Memoryless arrivals at the offered rate.
 */

#ifndef DSTRANGE_SERVICE_ARRIVAL_PROCESS_H
#define DSTRANGE_SERVICE_ARRIVAL_PROCESS_H

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "common/key_list.h"
#include "common/rng.h"
#include "common/types.h"

namespace dstrange::service {

/** The arrival processes service.arrival selects, in sorted order. */
inline constexpr std::array<const char *, 4> kArrivals{
    "bursty", "closed-loop", "diurnal", "poisson"};
static_assert(sortedKeys(kArrivals));

/**
 * @throws std::out_of_range "unknown arrival process '<key>'
 *         (registered: ...)" unless kArrivals lists @p key.
 */
inline void
requireArrival(const std::string &key)
{
    keyIndex("arrival process", kArrivals, key);
}

/** Parameters shared by every arrival process. */
struct ArrivalParams
{
    /** Mean gap between arrivals in bus cycles (may be fractional at
     *  saturating loads; processes accumulate fractional time). */
    double meanGapCycles = 10.0;
    /** Logical client count (seeding spread; closed-loop window). */
    unsigned clients = 1024;
    /** Burstiness knob (see ServiceConfig::burstFactor). */
    double burstFactor = 4.0;
    /** On/off or sinusoidal schedule period in bus cycles. */
    Cycle periodCycles = 20000;
    std::uint64_t seed = 1;
};

/**
 * A deterministic arrival stream. Arrival cycles are nondecreasing;
 * several arrivals may share a cycle (sub-cycle mean gaps).
 */
class ArrivalProcess
{
  public:
    /** @throws std::out_of_range unless kArrivals lists @p key. */
    ArrivalProcess(const std::string &key, const ArrivalParams &params);

    /** Cycle of the next pending arrival; kNoEvent when none is
     *  scheduled (closed-loop with every client in flight). */
    Cycle
    peek() const
    {
        if (kind != Kind::ClosedLoop)
            return next;
        return ready.empty() ? kNoEvent : ready.front();
    }

    /** Consume the pending arrival and schedule the next one.
     *  @pre peek() != kNoEvent */
    void pop();

    /** A previously popped request completed (closed-loop feedback;
     *  open-loop processes ignore it). */
    void
    onCompletion(Cycle now)
    {
        if (kind == Kind::ClosedLoop)
            ready.push_back(now + 1);
    }

  private:
    /** In kArrivals order. */
    enum class Kind : std::uint8_t
    {
        Bursty,
        ClosedLoop,
        Diurnal,
        Poisson,
    };

    /** Draw the next open-loop arrival into next. */
    void advance();

    Kind kind;
    Xoshiro256ss rng;
    /** Mean exponential gap; under "bursty", the on-phase gap. */
    double meanGap = 0.0;
    double clock = 0.0; ///< Fractional arrival clock.
    Cycle next = 0;
    // "bursty": exponential ON/OFF dwells. Gaps crossing a phase edge
    // restart from the edge — exact for memoryless gaps.
    double onDwell = 0.0;
    double offDwell = 0.0;
    double phaseEnd = 0.0;
    bool on = true;
    // "diurnal": rate = mean rate * (1 + amplitude sin(2 pi t / period)).
    double period = 0.0;
    double amplitude = 0.0;
    /** "closed-loop": release cycles of the clients not in flight. */
    std::deque<Cycle> ready;
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_ARRIVAL_PROCESS_H
