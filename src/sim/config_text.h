/**
 * @file
 * Canonical key=value text form of a SimConfig. One grammar serves the
 * CLI (--set and its flag aliases), the bench harness (DS_CONFIG),
 * saved experiment configs, and the Runner's alone-run cache keys; it
 * is the only parser and validator of knob values from outside.
 *
 * Grammar: whitespace-separated `key=value` tokens. serializeConfig()
 * emits every knob in a fixed order, so equal strings mean equal
 * effective configurations (the property the alone-run cache relies on)
 * and round-tripping through applyConfigText() reproduces the config.
 *
 * Keys (in serialization order):
 *   scheduler, rng-aware, buffering, fill, predictor, low-util,
 *   mapping, parking, fill-abort, fill-channels,
 *   mechanism.<field> (name, bits, round, in, out),
 *   fill-mechanism=- or fill-mechanism.<field> (as mechanism.*),
 *   buffer-entries, buffer-partitions, low-util-threshold, powerdown,
 *   budget, max-cycles, seed, priorities,
 *   timings.<field> (tck, trcd, tcl, tcwl, trp, tras, trc, tbl, tccd,
 *   trtp, twr, twtr, trrd, tfaw, trfc, trefi, txp, trtrs),
 *   geometry.<field> (channels, ranks, banks, rows, rowbytes),
 *   service.<field> (enabled, arrival, offered-mbps, clients, burst,
 *   period, slo, duration, shed, shed-limit),
 *   fault.<field> (models, seed, bitflip-rate, cells, weak-cells,
 *   weak-severity, drift-interval, stuck-rows, spares,
 *   blacklist-threshold, retry-limit, monitor, outage-period,
 *   outage-duration, outage-scope),
 *   backend.<field> (kind, read-latency, write-latency, gap),
 *   trace.<field> (record, replay)
 *
 * Parsing accepts two extra conveniences:
 *   design=KEY        apply a sim::DesignRegistry preset (policy knobs)
 *   [fill-]mechanism=NAME
 *                     load a whole built-in mechanism by
 *                     trng::TrngMechanism::byName() name ("drange",
 *                     "quac"); unknown names are an error — custom
 *                     mechanisms are spelled out via the
 *                     [fill-]mechanism.* parameter keys
 */

#ifndef DSTRANGE_SIM_CONFIG_TEXT_H
#define DSTRANGE_SIM_CONFIG_TEXT_H

#include <cstddef>
#include <stdexcept>
#include <string>

#include "sim/sim_config.h"

namespace dstrange::sim {

/** Serialize every knob of @p cfg to canonical key=value text. */
std::string serializeConfig(const SimConfig &cfg);

/** applyConfigText()'s rejection of one token of its text. */
class ConfigTokenError : public std::invalid_argument
{
  public:
    ConfigTokenError(std::size_t token_index, const std::string &what)
        : std::invalid_argument(what), index(token_index)
    {
    }

    /** 0-based position of the rejected token among the text's tokens. */
    std::size_t index;
};

/**
 * Apply whitespace-separated key=value tokens onto @p cfg.
 * @throws ConfigTokenError on a malformed token, unknown key, or
 *         unparsable value (the message names the offending token).
 * @throws std::invalid_argument when the resulting timings fail
 *         dram::timingsAreConsistent, or the geometry cannot take the
 *         mapping (checked once, over the whole text).
 * A rejected text leaves @p cfg unchanged.
 */
void applyConfigText(SimConfig &cfg, const std::string &text);

/** Shortest round-trippable decimal form of @p v (std::to_chars), as
 *  serializeConfig() writes every floating-point knob. */
std::string formatDouble(double v);

/** Parse a full configuration from text over default-constructed
 *  SimConfig (i.e. over the DR-STRaNGe preset). */
SimConfig parseConfig(const std::string &text);

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_CONFIG_TEXT_H
