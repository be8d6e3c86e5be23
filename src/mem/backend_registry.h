/**
 * @file
 * String-keyed factory registry for memory-timing backends. The memory
 * controller instantiates its per-channel mem::MemoryBackend through
 * this registry, so an alternative DRAM timing model (a cross-validation
 * stub, an external-simulator adapter) becomes available to every design
 * sweep, the CLI (`--set backend.kind=`), and the benches by registering
 * a factory — the controller code never names a concrete model.
 */

#ifndef DSTRANGE_MEM_BACKEND_REGISTRY_H
#define DSTRANGE_MEM_BACKEND_REGISTRY_H

#include <functional>
#include <memory>

#include "common/registry.h"
#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "mem/memory_backend.h"

namespace dstrange::mem {

struct McConfig;

/** Everything a backend factory may need at construction time. */
struct BackendContext
{
    const dram::DramTimings &timings;
    const dram::DramGeometry &geometry;
    const McConfig &cfg; ///< The controller's configuration (backend.*).
};

/** Factory producing one channel's timing backend. */
using BackendFactory =
    std::function<std::unique_ptr<MemoryBackend>(const BackendContext &)>;

/**
 * Process-global backend registry (the contract is in
 * common/registry.h). Built-in backends are registered on first access:
 *
 *   "ddr4"           the cycle-level dram::DramChannel (the default).
 *                    It models DDR3-1600 (dram::DramTimings, the
 *                    paper's Table 1); the key name is historical and
 *                    stays because "backend=ddr4" is part of config
 *                    text, run fingerprints and alone-cache keys.
 *   "fixed-latency"  the analytical constant-latency cross-check model
 *
 * make(key, ctx) instantiates one channel's backend.
 */
class BackendRegistry : public Registry<BackendFactory>
{
  public:
    static BackendRegistry &instance();

  private:
    BackendRegistry();
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_BACKEND_REGISTRY_H
