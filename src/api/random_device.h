/**
 * @file
 * Application interface (Section 5.3): a getrandom()-style blocking API
 * over the simulated DRAM-TRNG memory system. Requests are served from
 * the random number buffer when possible and by on-demand generation
 * otherwise, and the call reports the latency the application would
 * observe.
 */

#ifndef DSTRANGE_API_RANDOM_DEVICE_H
#define DSTRANGE_API_RANDOM_DEVICE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_controller.h"
#include "sim/sim_config.h"
#include "trng/entropy_source.h"

namespace dstrange::api {

/**
 * A simulated /dev/random backed by the DRAM TRNG system. The device
 * owns a memory controller with no other traffic; idle() models the
 * host system's quiet time, during which DR-STRaNGe configurations fill
 * their random number buffer.
 */
class RandomDevice
{
  public:
    struct Config
    {
        /**
         * Full policy/parameter configuration of the backing memory
         * system. Defaults to the DR-STRaNGe design (SimConfig's
         * default) with the device's historical seed; select another
         * design with sim::DesignRegistry::apply (e.g. "oblivious"),
         * set individual knobs as fields, or apply config text with
         * sim::applyConfigText.
         */
        sim::SimConfig sim;

        Config() { sim.seed = 42; }
    };

    explicit RandomDevice(const Config &config);

    /** Default-configured device (DR-STRaNGe over D-RaNGe). */
    RandomDevice();

    /** Result of one getRandom() call. */
    struct Result
    {
        std::vector<std::uint8_t> bytes;
        double latencyNs = 0.0;
        bool servedFromBuffer = false;
    };

    /**
     * Blocking read of @p n_bytes random bytes, like getrandom(2).
     * Advances simulated time until the request completes.
     */
    Result getRandom(std::size_t n_bytes);

    /** Let the system sit idle for @p ns nanoseconds (buffer refill). */
    void idle(double ns);

    /** Bits currently available in the random number buffer (0 if none). */
    double bufferLevelBits() const;

    /** Total simulated time elapsed, in nanoseconds. */
    double elapsedNs() const;

  private:
    void tick();

    Config cfg;
    std::unique_ptr<mem::MemoryController> mc;
    trng::EntropySource entropy;
    Cycle now = 0;
    std::uint64_t nextToken = 0;
    std::uint64_t completions = 0;
};

} // namespace dstrange::api

#endif // DSTRANGE_API_RANDOM_DEVICE_H
