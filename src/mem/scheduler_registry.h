/**
 * @file
 * String-keyed factory registry for intra-queue memory schedulers. The
 * memory controller instantiates its scheduler through this registry, so
 * a new scheduling policy becomes available to every design sweep, the
 * CLI, and the benches by registering a factory — no switch statement to
 * extend, and registration can happen from user code outside src/mem
 * (see examples/scheduler_explorer.cpp).
 */

#ifndef DSTRANGE_MEM_SCHEDULER_REGISTRY_H
#define DSTRANGE_MEM_SCHEDULER_REGISTRY_H

#include <functional>
#include <memory>

#include "common/registry.h"
#include "mem/scheduler.h"

namespace dstrange::mem {

struct McConfig;

/** Everything a scheduler factory may need at construction time. */
struct SchedulerContext
{
    unsigned channels = 0;
    unsigned banksPerChannel = 0;
    unsigned cores = 0;
    const McConfig &cfg; ///< The controller's configuration.
};

/** Factory producing a scheduler for one memory controller instance. */
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const SchedulerContext &)>;

/**
 * Process-global scheduler registry (the contract is in
 * common/registry.h). Built-in policies are registered on first access:
 *
 *   "fr-fcfs"      classic FR-FCFS (row hits first, then oldest)
 *   "fr-fcfs-cap"  FR-FCFS with the paper's 16-column streak cap
 *   "bliss"        the BLISS blacklisting scheduler
 *
 * make(key, ctx) instantiates a scheduler for one memory controller.
 */
class SchedulerRegistry : public Registry<SchedulerFactory>
{
  public:
    static SchedulerRegistry &instance();

  private:
    SchedulerRegistry();
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_SCHEDULER_REGISTRY_H
