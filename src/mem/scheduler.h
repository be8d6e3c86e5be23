/**
 * @file
 * Scheduler interface for picking the next request within one channel's
 * queue. The inter-queue decision (RNG queue vs regular queue) is a
 * separate policy (see mem/rng_aware.h); these schedulers order regular
 * requests, exactly like the baselines the paper compares against.
 */

#ifndef DSTRANGE_MEM_SCHEDULER_H
#define DSTRANGE_MEM_SCHEDULER_H

#include <vector>

#include "dram/dram_channel.h"
#include "mem/request_queue.h"

namespace dstrange::mem {

/** Everything a scheduler needs to rank one channel's candidates. */
struct SchedContext
{
    const RequestQueue &queue;
    const dram::DramChannel &channel;
    unsigned channelId = 0;
    Cycle now = 0;
};

/** Index-based pick result; kNoPick when nothing can issue this cycle. */
inline constexpr int kNoPick = -1;

/** forcedPick() result meaning "run the full pick() scan". */
inline constexpr int kUnknownPick = -2;

/**
 * Intra-queue memory request scheduler. Implementations must be
 * work-conserving: if any request's next command can legally issue at
 * @p now, pick() must not return kNoPick.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Choose the queue index whose next DRAM command to issue now. */
    virtual int pick(const SchedContext &ctx) = 0;

    /**
     * O(1) pre-check on the fast-forward path: when the policy can
     * prove its choice without scanning the queue, return the index
     * pick() would return (or kNoPick); otherwise return kUnknownPick
     * and the caller falls back to the full pick() scan. Must NEVER
     * disagree with pick() — the fast-forward path is bit-identity-
     * checked against the step-1 run.
     */
    virtual int
    forcedPick(const SchedContext &ctx) const
    {
        (void)ctx;
        return kUnknownPick;
    }

    /**
     * Notify that a request's *column* command was issued (the request
     * leaves the queue). Used for streak bookkeeping.
     */
    virtual void onColumnIssued(const Request &req, unsigned channel_id) = 0;

    /** Per-cycle housekeeping (e.g. BLISS blacklist clearing). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * Earliest cycle >= @p now at which tick() does real work, used by
     * the fast-forward engine to skip quiescent stretches. The default
     * returns @p now — "assume per-cycle work every cycle" — which is
     * always correct but disables cycle skipping entirely; schedulers
     * whose tick() is a no-op (or only acts at computable cycles, like
     * BLISS's clearing interval) should override this so simulations
     * using them can fast-forward.
     */
    virtual Cycle nextEventCycle(Cycle now) const { return now; }
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_SCHEDULER_H
