/**
 * @file
 * Seeded arrival processes for the open-loop service layer, behind a
 * string-keyed registry (like the scheduler / predictor / mapping
 * registries). A process is a deterministic stream of arrival cycles:
 * peek() exposes the next arrival, pop() consumes it. All randomness
 * flows through Xoshiro256ss, so a (key, params) pair always produces
 * the same stream — the property the golden-value tests pin.
 *
 * Built-in keys:
 *  - "poisson"     Memoryless arrivals at the offered rate.
 *  - "bursty"      MMPP-style on/off: exponential on/off dwells; the
 *                  on-phase rate is burstFactor times the mean so the
 *                  long-run offered rate is preserved.
 *  - "diurnal"     Sinusoidal rate schedule over periodCycles with
 *                  relative amplitude (1 - 1/burstFactor).
 *  - "closed-loop" Parity shim: `clients` requests outstanding at all
 *                  times; a completion releases the next arrival.
 */

#ifndef DSTRANGE_SERVICE_ARRIVAL_PROCESS_H
#define DSTRANGE_SERVICE_ARRIVAL_PROCESS_H

#include <functional>
#include <memory>

#include "common/registry.h"
#include "common/types.h"

namespace dstrange::service {

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
    virtual ~ArrivalProcess() = default;

    /** Cycle of the next pending arrival; kNoEvent when none is
     *  scheduled (closed-loop with every client in flight). */
    virtual Cycle peek() const = 0;

    /** Consume the pending arrival and schedule the next one.
     *  @pre peek() != kNoEvent */
    virtual void pop() = 0;

    /** A previously popped request completed (closed-loop feedback;
     *  open-loop processes ignore it). */
    virtual void onCompletion(Cycle now) { (void)now; }
};

/** Factory producing one arrival process. */
using ArrivalFactory =
    std::function<std::unique_ptr<ArrivalProcess>(const ArrivalParams &)>;

/**
 * Process-global arrival-process registry (the contract is in
 * common/registry.h). make(key, params) instantiates the process
 * registered under @p key.
 */
class ArrivalRegistry : public Registry<ArrivalFactory>
{
  public:
    /** Key of the default process. */
    static constexpr const char *kDefault = "poisson";

    static ArrivalRegistry &instance();

  private:
    ArrivalRegistry();
};

} // namespace dstrange::service

#endif // DSTRANGE_SERVICE_ARRIVAL_PROCESS_H
