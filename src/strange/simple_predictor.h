/**
 * @file
 * The lightweight table-based DRAM idleness predictor of Section 5.1.2:
 * a per-channel table of 2-bit saturating counters indexed by the last
 * accessed memory address.
 */

#ifndef DSTRANGE_STRANGE_SIMPLE_PREDICTOR_H
#define DSTRANGE_STRANGE_SIMPLE_PREDICTOR_H

#include <vector>

#include "strange/idleness_predictor.h"

namespace dstrange::strange {

/**
 * 256-entry (default) table of 2-bit saturating counters per channel.
 * An idle period is predicted long when the entry selected by the last
 * accessed address has counter value >= 2. Training increments the
 * counter when the observed period reached PeriodThreshold and decrements
 * it otherwise.
 */
class SimpleIdlenessPredictor : public IdlenessPredictor
{
  public:
    struct Config
    {
        unsigned tableEntries = 256;
        Cycle periodThreshold = 40;
    };

    explicit SimpleIdlenessPredictor(const Config &config);

    bool predictLong(Addr last_addr);
    bool peekLong(Addr last_addr) const;
    void periodEnded(Addr last_addr, Cycle idle_length);

    /** Direct counter inspection for tests. */
    unsigned counterValue(Addr last_addr) const;

    const Config &config() const { return cfg; }

  private:
    unsigned indexOf(Addr addr) const;

    Config cfg;
    std::vector<std::uint8_t> counters;
    bool lastPrediction = false;
    bool predictionPending = false;
};

} // namespace dstrange::strange

#endif // DSTRANGE_STRANGE_SIMPLE_PREDICTOR_H
