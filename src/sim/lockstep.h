/**
 * @file
 * DS_LOCKSTEP cross-check support: a full-statistics fingerprint of a
 * simulated System, a comparison helper, and runSystem(), the one
 * build-and-run entry that honours DS_LOCKSTEP. With DS_LOCKSTEP
 * enabled every simulation run through it (the Runner's, and the
 * benches that build a System directly) executes twice — once with
 * event-driven fast-forward, once ticking every bus cycle — and every
 * statistic (core counters, controller stats, per-channel energy
 * counters, engine counters, buffer levels, predictor scores, idle
 * period distributions) must be bit-identical.
 */

#ifndef DSTRANGE_SIM_LOCKSTEP_H
#define DSTRANGE_SIM_LOCKSTEP_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.h"

namespace dstrange::sim {

/** true when DS_LOCKSTEP requests the step-1 cross-check (default off). */
bool lockstepEnabled();

/**
 * Serialize every statistic a run produces into a line-oriented
 * key=value fingerprint. Floating-point values are rendered in hexfloat
 * so the comparison is bit-exact.
 */
std::string systemFingerprint(const System &sys);

/**
 * Compare two completed systems' fingerprints.
 * @throws std::runtime_error naming the first differing statistic.
 */
void verifyLockstep(const System &fast_forwarded, const System &stepped);

/** Builds one run's traces; called once per System it builds. */
using TraceFactory =
    std::function<std::vector<std::unique_ptr<cpu::TraceSource>>()>;

/**
 * Build a System over @p cfg and traces from @p make_traces and run it
 * to completion. Under DS_LOCKSTEP the system is forced onto the
 * fast-forward path and a second, freshly-traced system replays the
 * run ticking every bus cycle; every statistic of the two must be
 * bit-identical (verifyLockstep()). Returned by pointer: System is
 * immovable (its completion callback captures `this`).
 */
std::unique_ptr<System> runSystem(const SimConfig &cfg,
                                  const TraceFactory &make_traces);

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_LOCKSTEP_H
