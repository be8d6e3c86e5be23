#include "service/arrival_process.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/rng.h"

namespace dstrange::service {

namespace {

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

/** Memoryless arrivals: i.i.d. exponential gaps at the offered rate. */
class PoissonProcess final : public ArrivalProcess
{
  public:
    explicit PoissonProcess(const ArrivalParams &p)
        : rng(mix64(p.seed ^ 0x706f6973736f6eull)),
          meanGap(std::max(p.meanGapCycles, 1e-9))
    {
        advance();
    }

    Cycle peek() const override { return next; }
    void pop() override { advance(); }

  private:
    void
    advance()
    {
        clock += expGap(rng, meanGap);
        next = clockToCycle(clock);
    }

    Xoshiro256ss rng;
    double meanGap;
    double clock = 0.0;
    Cycle next = 0;
};

/**
 * MMPP-style on/off process: exponential dwells in an ON phase (rate
 * burstFactor times the mean, duty 1/burstFactor) and a silent OFF
 * phase. Gaps crossing a phase edge restart from the edge — exact for
 * memoryless gaps.
 */
class BurstyProcess final : public ArrivalProcess
{
  public:
    explicit BurstyProcess(const ArrivalParams &p)
        : rng(mix64(p.seed ^ 0x6275727374ull)),
          burst(std::max(p.burstFactor, 1.0)),
          onGap(std::max(p.meanGapCycles, 1e-9) / burst),
          onDwell(std::max<double>(p.periodCycles, 1.0) / burst),
          offDwell(std::max<double>(p.periodCycles, 1.0) *
                   (1.0 - 1.0 / burst))
    {
        phaseEnd = expGap(rng, onDwell);
        advance();
    }

    Cycle peek() const override { return next; }
    void pop() override { advance(); }

  private:
    void
    advance()
    {
        for (;;) {
            if (!on) {
                clock = phaseEnd;
                on = true;
                phaseEnd = clock + expGap(rng, onDwell);
            }
            const double gap = expGap(rng, onGap);
            if (offDwell <= 0.0 || clock + gap <= phaseEnd) {
                clock += gap;
                next = clockToCycle(clock);
                return;
            }
            clock = phaseEnd;
            on = false;
            phaseEnd = clock + expGap(rng, offDwell);
        }
    }

    Xoshiro256ss rng;
    double burst;
    double onGap;
    double onDwell;
    double offDwell;
    double clock = 0.0;
    double phaseEnd = 0.0;
    bool on = true;
    Cycle next = 0;
};

/**
 * Sinusoidal rate schedule: the instantaneous rate is the mean rate
 * times (1 + a sin(2 pi t / period)) with a = 1 - 1/burstFactor, so
 * the long-run offered load matches the poisson process. Gaps are
 * exponential at the rate in effect when the gap starts (a standard
 * piecewise approximation — deterministic, which is what matters).
 */
class DiurnalProcess final : public ArrivalProcess
{
  public:
    explicit DiurnalProcess(const ArrivalParams &p)
        : rng(mix64(p.seed ^ 0x646975726e616cull)),
          meanGap(std::max(p.meanGapCycles, 1e-9)),
          period(std::max<double>(p.periodCycles, 1.0)),
          amplitude(std::clamp(1.0 - 1.0 / std::max(p.burstFactor, 1.0),
                               0.0, 0.95))
    {
        advance();
    }

    Cycle peek() const override { return next; }
    void pop() override { advance(); }

  private:
    void
    advance()
    {
        const double rate_scale =
            1.0 + amplitude *
                      std::sin(2.0 * 3.141592653589793 * clock / period);
        clock += expGap(rng, meanGap / std::max(rate_scale, 0.05));
        next = clockToCycle(clock);
    }

    Xoshiro256ss rng;
    double meanGap;
    double period;
    double amplitude;
    double clock = 0.0;
    Cycle next = 0;
};

/**
 * Closed-loop parity shim: `clients` requests are in flight at all
 * times — every completion immediately releases the next arrival —
 * so a service cell can be compared against the paper's closed-loop
 * methodology under the same harness.
 */
class ClosedLoopProcess final : public ArrivalProcess
{
  public:
    explicit ClosedLoopProcess(const ArrivalParams &p)
    {
        ready.assign(std::max(p.clients, 1u), 0);
    }

    Cycle
    peek() const override
    {
        return ready.empty() ? kNoEvent : ready.front();
    }

    void pop() override { ready.pop_front(); }

    void
    onCompletion(Cycle now) override
    {
        ready.push_back(now + 1);
    }

  private:
    std::deque<Cycle> ready;
};

} // namespace

ArrivalRegistry::ArrivalRegistry() : Registry("arrival process")
{
    add("poisson", [](const ArrivalParams &p) {
        return std::make_unique<PoissonProcess>(p);
    });
    add("bursty", [](const ArrivalParams &p) {
        return std::make_unique<BurstyProcess>(p);
    });
    add("diurnal", [](const ArrivalParams &p) {
        return std::make_unique<DiurnalProcess>(p);
    });
    add("closed-loop", [](const ArrivalParams &p) {
        return std::make_unique<ClosedLoopProcess>(p);
    });
}

ArrivalRegistry &
ArrivalRegistry::instance()
{
    static ArrivalRegistry registry;
    return registry;
}

} // namespace dstrange::service
