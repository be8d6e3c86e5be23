#include "service/arrival_process.h"

#include <algorithm>
#include <cmath>

namespace dstrange::service {

namespace {

/** Per-process stream salts, in kArrivals order ("closed-loop" draws
 *  nothing). */
constexpr std::uint64_t kSalts[] = {0x6275727374ull, 0,
                                    0x646975726e616cull,
                                    0x706f6973736f6eull};

/** Floor of the fractional arrival clock, saturating at kNoEvent - 1
 *  so a runaway clock can never collide with the sentinel. */
Cycle
clockToCycle(double t)
{
    if (t >= 1.8e19)
        return kNoEvent - 1;
    return static_cast<Cycle>(t);
}

/**
 * Exponential gap with the given mean, drawn by inverse CDF.
 * 1 - nextDouble() lies in (0, 1], so the log is always finite.
 */
double
expGap(Xoshiro256ss &rng, double mean)
{
    return -std::log(1.0 - rng.nextDouble()) * mean;
}

} // namespace

ArrivalProcess::ArrivalProcess(const std::string &key,
                               const ArrivalParams &p)
    : kind(static_cast<Kind>(keyIndex("arrival process", kArrivals, key))),
      rng(mix64(p.seed ^ kSalts[static_cast<unsigned>(kind)])),
      meanGap(std::max(p.meanGapCycles, 1e-9))
{
    switch (kind) {
      case Kind::Bursty: {
        // ON phase at burstFactor times the mean rate, duty
        // 1/burstFactor, then a silent OFF phase.
        const double burst = std::max(p.burstFactor, 1.0);
        const double cycle = std::max<double>(p.periodCycles, 1.0);
        meanGap /= burst;
        onDwell = cycle / burst;
        offDwell = cycle * (1.0 - 1.0 / burst);
        phaseEnd = expGap(rng, onDwell);
        break;
      }
      case Kind::ClosedLoop:
        ready.assign(std::max(p.clients, 1u), 0);
        return;
      case Kind::Diurnal:
        // Gaps are exponential at the rate in effect when the gap
        // starts (a standard piecewise approximation — deterministic,
        // which is what matters); the long-run load matches poisson.
        period = std::max<double>(p.periodCycles, 1.0);
        amplitude = std::clamp(1.0 - 1.0 / std::max(p.burstFactor, 1.0),
                               0.0, 0.95);
        break;
      case Kind::Poisson:
        break;
    }
    advance();
}

void
ArrivalProcess::pop()
{
    if (kind == Kind::ClosedLoop)
        ready.pop_front();
    else
        advance();
}

void
ArrivalProcess::advance()
{
    switch (kind) {
      case Kind::Bursty:
        for (;;) {
            if (!on) {
                clock = phaseEnd;
                on = true;
                phaseEnd = clock + expGap(rng, onDwell);
            }
            const double gap = expGap(rng, meanGap);
            if (offDwell <= 0.0 || clock + gap <= phaseEnd) {
                clock += gap;
                break;
            }
            clock = phaseEnd;
            on = false;
            phaseEnd = clock + expGap(rng, offDwell);
        }
        break;
      case Kind::Diurnal: {
        const double rate_scale =
            1.0 + amplitude *
                      std::sin(2.0 * 3.141592653589793 * clock / period);
        clock += expGap(rng, meanGap / std::max(rate_scale, 0.05));
        break;
      }
      case Kind::Poisson:
        clock += expGap(rng, meanGap);
        break;
      case Kind::ClosedLoop:
        return;
    }
    next = clockToCycle(clock);
}

} // namespace dstrange::service
