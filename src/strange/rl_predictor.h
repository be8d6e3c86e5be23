/**
 * @file
 * The Q-learning-based DRAM idleness predictor of Section 5.1.2. State is
 * the last accessed address's 10 LSBs XOR'ed with a 10-bit history of the
 * last 10 idle periods (1 = long, 0 = short); actions are {generate,
 * wait}; Q(s,a) <- (1-alpha) Q(s,a) + alpha * r with no next-state term
 * because the next state depends on unknown future accesses.
 */

#ifndef DSTRANGE_STRANGE_RL_PREDICTOR_H
#define DSTRANGE_STRANGE_RL_PREDICTOR_H

#include <vector>

#include "common/rng.h"
#include "strange/idleness_predictor.h"

namespace dstrange::strange {

/** Q-learning idleness predictor (the DR-STRaNGe+RL design). */
class RlIdlenessPredictor : public IdlenessPredictor
{
  public:
    struct Config
    {
        unsigned stateBits = 10;
        Cycle periodThreshold = 40;
        double alpha = 0.05;        ///< Learning rate (paper: 0.05).
        double epsilon = 0.02;      ///< Exploration rate.
        double rewardCorrectGenerate = 1.0;
        double rewardCorrectWait = 1.0;
        double penaltyFalsePositive = -1.0;
        double penaltyFalseNegative = -0.5;
        std::uint64_t seed = 0x5eed;
    };

    explicit RlIdlenessPredictor(const Config &config);

    bool predictLong(Addr last_addr);
    bool peekLong(Addr last_addr) const;
    void periodEnded(Addr last_addr, Cycle idle_length);

    /** Q-value inspection for tests. */
    double qValue(unsigned state, bool generate) const;

    /** Current 10-bit idle-period history (1 = long). */
    unsigned history() const { return idleHistory; }

    const Config &config() const { return cfg; }

  private:
    unsigned stateOf(Addr last_addr) const;

    Config cfg;
    unsigned stateMask;
    /** Q table: [state][action], action 0 = wait, 1 = generate. */
    std::vector<double> q;
    Xoshiro256ss explore;

    unsigned idleHistory = 0;
    unsigned pendingState = 0;
    bool pendingAction = false;
    bool predictionPending = false;
};

} // namespace dstrange::strange

#endif // DSTRANGE_STRANGE_RL_PREDICTOR_H
