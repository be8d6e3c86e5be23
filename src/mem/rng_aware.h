/**
 * @file
 * The RNG-aware inter-queue scheduling policy of Section 5.2: decides,
 * per channel and per cycle, whether to serve the regular read queue or
 * the RNG request queue, based on OS-assigned application priorities,
 * with the paper's anti-starvation rules and stall-limit backstop.
 */

#ifndef DSTRANGE_MEM_RNG_AWARE_H
#define DSTRANGE_MEM_RNG_AWARE_H

#include <deque>
#include <vector>

#include "mem/request_queue.h"

namespace dstrange::mem {

/** Which queue a channel should serve this cycle. */
enum class QueueChoice : std::uint8_t
{
    None,    ///< Nothing pending.
    Regular, ///< Serve the regular read queue.
    Rng,     ///< Serve the RNG request queue (enter/stay in RNG mode).
};

/**
 * Priority-based RNG-aware queue arbitration.
 *
 * Rules (Section 5.2.1):
 *  - RNG prioritized: drain the RNG queue first; the stall-limit counter
 *    bounds how long regular reads wait.
 *  - Non-RNG prioritized: serve regular reads; switch to the RNG queue
 *    only when the oldest regular read is from an RNG application and is
 *    younger than the oldest RNG request (drain the older RNG requests).
 *  - Equal priorities: regular reads older than the oldest RNG request
 *    are served first, then RNG requests are batched to minimize mode
 *    switches.
 */
class RngAwarePolicy
{
  public:
    struct Config
    {
        Cycle stallLimit = 100;
    };

    RngAwarePolicy(unsigned channels, unsigned cores, const Config &config);

    /** Set an application's OS priority (higher = more important). */
    void setPriority(CoreId core, int priority);

    int priority(CoreId core) const { return priorities[core]; }

    /**
     * true while every application has the same priority. Arbitration
     * then reads the RNG queue only for whether it is empty: the top
     * job priority never differs from the regular one, so the
     * old-RNG-drain rule (which compares the front job) never applies.
     */
    bool uniformPriority() const { return uniform; }

    /** Mark an application as an RNG application (sticky). */
    void markRngApp(CoreId core) { rngApp[core] = true; }

    bool isRngApp(CoreId core) const { return rngApp[core]; }

    /** Arbitrate between the two queues for one channel. */
    QueueChoice choose(unsigned channel, const RequestQueue &read_queue,
                       const std::deque<RngJob> &rng_jobs);

    /**
     * Pure preview of choose(): the choice the next call would return,
     * without advancing the anti-starvation counters.
     */
    QueueChoice peek(unsigned channel, const RequestQueue &read_queue,
                     const std::deque<RngJob> &rng_jobs) const;

    /**
     * One-scan snapshot of the arbitration state for the fast-forward
     * horizon: equivalent to peek() + nextEventCycle() +
     * regularPrioritized() but derived from a single pass over the
     * queues (this runs per channel on every horizon probe).
     */
    struct Arbitration
    {
        QueueChoice choice = QueueChoice::None; ///< peek() result.
        Cycle flipAt = kNoEvent; ///< nextEventCycle() result.
        bool regularPrioritized = false; ///< RNG stall counter charging.
    };
    Arbitration arbitration(unsigned channel,
                            const RequestQueue &read_queue,
                            const std::deque<RngJob> &rng_jobs,
                            Cycle now) const;

    /**
     * Earliest cycle >= @p now at which once-per-cycle choose() calls
     * (with unchanged queue contents) would do anything besides
     * incrementing a stall counter — i.e. the cycle the stall limit
     * trips and the choice flips. kNoEvent when no counter advances.
     */
    Cycle nextEventCycle(unsigned channel, const RequestQueue &read_queue,
                         const std::deque<RngJob> &rng_jobs,
                         Cycle now) const;

    /**
     * Batch-apply @p span consecutive choose() calls' stall-counter
     * increments (queue contents unchanged across the span).
     * @pre the span ends at or before nextEventCycle()'s result
     */
    void fastForward(unsigned channel, const RequestQueue &read_queue,
                     const std::deque<RngJob> &rng_jobs, Cycle span);

    /** Reset the stall counter of the queue that just made progress. */
    void noteServed(unsigned channel, QueueChoice served);

    /** Largest stall counter value ever reached (for tests/telemetry). */
    Cycle maxStallObserved() const { return maxStall; }

  private:
    /**
     * The pressure the (unchanged) queue state puts on the stall
     * counters each cycle: which counter choose() charges while it
     * keeps preferring the other queue, or None when the decision is
     * pure (at most one queue pending, or the old-RNG-drain rule).
     */
    enum class Pressure : std::uint8_t
    {
        None,       ///< Pure decision; no counter advances.
        OnRegular,  ///< Choice is Rng; the regular counter charges.
        OnRng,      ///< Choice is Regular; the RNG counter charges.
    };
    Pressure pressure(const RequestQueue &read_queue,
                      const std::deque<RngJob> &rng_jobs) const;
    /** The pure choice when no counter is charging. */
    QueueChoice pureChoice(const RequestQueue &read_queue,
                           const std::deque<RngJob> &rng_jobs) const;

    Config cfg;
    std::vector<int> priorities;
    bool uniform = true; ///< See uniformPriority().
    std::vector<bool> rngApp;

    struct StallCounters
    {
        Cycle regular = 0; ///< Cycles the regular queue was deprioritized.
        Cycle rng = 0;     ///< Cycles the RNG queue was deprioritized.
    };
    std::vector<StallCounters> stalls; ///< Per channel.
    Cycle maxStall = 0;
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_RNG_AWARE_H
