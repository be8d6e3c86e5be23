/**
 * @file
 * DRAM idleness predictors: the fixed list predictor= selects from and
 * what every predictor shares. The memory controller holds one
 * predictor per channel by value and calls, without virtual dispatch:
 *
 *  - predictLong(last_addr) once at the start of each idle (or
 *    low-utilization) period: true when the period is predicted long
 *    (>= PeriodThreshold cycles), i.e. generate;
 *  - peekLong(last_addr) const, the side-effect-free prediction of the
 *    low-utilization extension: it reuses the trained state without
 *    registering a scored prediction;
 *  - periodEnded(last_addr, idle_length) once at the end of the period
 *    with the observed length, to train and score the prediction.
 */

#ifndef DSTRANGE_STRANGE_IDLENESS_PREDICTOR_H
#define DSTRANGE_STRANGE_IDLENESS_PREDICTOR_H

#include <array>
#include <cstdint>
#include <string>

#include "common/key_list.h"
#include "common/types.h"

namespace dstrange::strange {

/**
 * The idleness predictors predictor= selects, in sorted order:
 *
 *   "none"    no predictor — every quiet period is assumed long
 *   "rl"      Q-learning agent (Section 5.1.2)
 *   "simple"  2-bit saturating counter table (Section 5.1.2)
 */
inline constexpr std::array<const char *, 3> kPredictors{"none", "rl",
                                                          "simple"};
static_assert(sortedKeys(kPredictors));

/** One predictor, in kPredictors order. */
enum class PredictorKind : std::uint8_t
{
    None,
    Rl,
    Simple,
};

/**
 * @throws std::out_of_range "unknown predictor '<key>' (registered:
 *         ...)" unless kPredictors lists @p key.
 */
inline PredictorKind
predictorKind(const std::string &key)
{
    return static_cast<PredictorKind>(keyIndex("predictor", kPredictors, key));
}

/** Accuracy bookkeeping shared by all predictor implementations. */
struct PredictorStats
{
    std::uint64_t predictions = 0;
    std::uint64_t correct = 0;
    /** Short period predicted long: RNG interferes with regular traffic. */
    std::uint64_t falsePositives = 0;
    /** Long period predicted short: a generation opportunity is wasted. */
    std::uint64_t falseNegatives = 0;

    double
    accuracy() const
    {
        return predictions == 0
                   ? 0.0
                   : static_cast<double>(correct) /
                         static_cast<double>(predictions);
    }
};

/** Base of every predictor: the statistics of its scored predictions. */
class IdlenessPredictor
{
  public:
    const PredictorStats &stats() const { return statistics; }

  protected:
    /** Score one resolved prediction. */
    void
    score(bool predicted_long, bool actually_long)
    {
        statistics.predictions++;
        if (predicted_long == actually_long)
            statistics.correct++;
        else if (predicted_long)
            statistics.falsePositives++;
        else
            statistics.falseNegatives++;
    }

    PredictorStats statistics;
};

/** The "none" predictor: every quiet period is predicted long (the
 *  paper's simple-buffering configuration, Section 5.1.1), the
 *  low-utilization extension never fires, and nothing is scored. */
class NoIdlenessPredictor : public IdlenessPredictor
{
  public:
    bool predictLong(Addr) { return true; }
    bool peekLong(Addr) const { return false; }
    void periodEnded(Addr, Cycle) {}
};

} // namespace dstrange::strange

#endif // DSTRANGE_STRANGE_IDLENESS_PREDICTOR_H
