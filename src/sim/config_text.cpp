#include "sim/config_text.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "fault/fault_model.h"
#include "mem/scheduler_registry.h"
#include "service/arrival_process.h"
#include "service/shed_policy.h"
#include "sim/design_registry.h"

namespace dstrange::sim {

std::string
formatDouble(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

namespace {

std::uint64_t
parseU64(const std::string &value)
{
    // Digits only, so a leading minus fails instead of wrapping.
    std::uint64_t v = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc::result_out_of_range)
        throw std::invalid_argument("value out of range");
    if (ec != std::errc())
        throw std::invalid_argument("expected an unsigned number");
    if (ptr != end)
        throw std::invalid_argument("trailing characters");
    return v;
}

int
parseInt(const std::string &value)
{
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used != value.size())
        throw std::invalid_argument("trailing characters");
    return v;
}

unsigned
parseUnsigned(const std::string &value)
{
    const std::uint64_t v = parseU64(value);
    if (v > ~0u)
        throw std::invalid_argument("value out of range");
    return static_cast<unsigned>(v);
}

/** Geometry sizes divide addresses, so a value below the model's
 *  floor would crash the run instead of failing here. */
unsigned
parseAtLeast(const std::string &value, unsigned floor)
{
    const unsigned v = parseUnsigned(value);
    if (v < floor)
        throw std::invalid_argument("must be at least " +
                                    std::to_string(floor));
    return v;
}

double
parseDouble(const std::string &value)
{
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size())
        throw std::invalid_argument("trailing characters");
    if (!std::isfinite(v))
        throw std::invalid_argument("expected a finite number");
    return v;
}

bool
parseBool(const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    throw std::invalid_argument("expected a boolean (0/1/true/false)");
}

void
serializeMechanism(std::ostringstream &out, const std::string &key,
                   const trng::TrngMechanism &m)
{
    // Tokens split on whitespace, so a name containing any would break
    // the parse round-trip; sanitize rather than emit unparseable text
    // (serialization must stay total — it feeds the alone-run cache).
    std::string name = m.name;
    for (char &c : name)
        if (std::isspace(static_cast<unsigned char>(c)))
            c = '-';
    out << ' ' << key << ".name=" << name;
    out << ' ' << key << ".bits=" << formatDouble(m.bitsPerRound);
    out << ' ' << key << ".round=" << m.roundLatency;
    out << ' ' << key << ".in=" << m.switchInLatency;
    out << ' ' << key << ".out=" << m.switchOutLatency;
}

/** Mechanism parameter keys shared by "mechanism.*"/"fill-mechanism.*". */
bool
applyMechanismField(trng::TrngMechanism &m, const std::string &field,
                    const std::string &value)
{
    if (field == "name") {
        m.name = value;
    } else if (field == "bits") {
        const double bits = parseDouble(value);
        if (bits <= 0.0)
            throw std::invalid_argument("bits per round must be > 0");
        m.bitsPerRound = bits;
    } else if (field == "round") {
        const Cycle round = parseU64(value);
        if (round == 0)
            throw std::invalid_argument("round latency must be > 0");
        m.roundLatency = round;
    } else if (field == "in")
        m.switchInLatency = parseU64(value);
    else if (field == "out")
        m.switchOutLatency = parseU64(value);
    else
        return false;
    return true;
}

bool
applyTimingsField(dram::DramTimings &t, const std::string &field,
                  const std::string &value)
{
    if (field == "tck") {
        t.tCKns = parseDouble(value);
        return true;
    }
    struct Entry
    {
        const char *name;
        Cycle dram::DramTimings::*member;
    };
    static constexpr Entry entries[] = {
        {"trcd", &dram::DramTimings::tRCD},
        {"tcl", &dram::DramTimings::tCL},
        {"tcwl", &dram::DramTimings::tCWL},
        {"trp", &dram::DramTimings::tRP},
        {"tras", &dram::DramTimings::tRAS},
        {"trc", &dram::DramTimings::tRC},
        {"tbl", &dram::DramTimings::tBL},
        {"tccd", &dram::DramTimings::tCCD},
        {"trtp", &dram::DramTimings::tRTP},
        {"twr", &dram::DramTimings::tWR},
        {"twtr", &dram::DramTimings::tWTR},
        {"trrd", &dram::DramTimings::tRRD},
        {"tfaw", &dram::DramTimings::tFAW},
        {"trfc", &dram::DramTimings::tRFC},
        {"trefi", &dram::DramTimings::tREFI},
        {"txp", &dram::DramTimings::tXP},
        {"trtrs", &dram::DramTimings::tRTRS},
    };
    for (const Entry &e : entries) {
        if (field == e.name) {
            t.*(e.member) = parseU64(value);
            return true;
        }
    }
    return false;
}

bool
applyGeometryField(dram::DramGeometry &g, const std::string &field,
                   const std::string &value)
{
    if (field == "channels")
        g.channels = parseAtLeast(value, 1);
    else if (field == "ranks")
        g.ranksPerChannel = parseAtLeast(value, 1);
    else if (field == "banks")
        g.banksPerRank = parseAtLeast(value, 1);
    else if (field == "rows")
        g.rowsPerBank = parseAtLeast(value, 1);
    else if (field == "rowbytes")
        g.rowBytes = parseAtLeast(value, kLineBytes);
    else
        return false;
    return true;
}

bool
applyBackendField(SimConfig &cfg, const std::string &field,
                  const std::string &value)
{
    if (field == "kind") {
        dram::requireChannelModel(value);
        cfg.backend = value;
    } else if (field == "read-latency")
        cfg.backendReadLatency = parseU64(value);
    else if (field == "write-latency")
        cfg.backendWriteLatency = parseU64(value);
    else if (field == "gap")
        cfg.backendGap = parseU64(value);
    else
        return false;
    return true;
}

bool
applyTraceField(SimConfig &cfg, const std::string &field,
                const std::string &value)
{
    // "-" is the canonical empty-path sentinel (matching priorities=-).
    if (field == "record")
        cfg.traceRecord = value == "-" ? "" : value;
    else if (field == "replay")
        cfg.traceReplay = value == "-" ? "" : value;
    else
        return false;
    return true;
}

/** Paths tokenize on whitespace like every other value; sanitize so
 *  serialization stays total (a sanitized path no longer points at the
 *  original file, but config text is a cache key, not a loader). */
std::string
pathToken(const std::string &path)
{
    if (path.empty())
        return "-";
    std::string out = path;
    for (char &c : out)
        if (std::isspace(static_cast<unsigned char>(c)))
            c = '-';
    return out;
}

bool
applyServiceField(service::ServiceConfig &s, const std::string &field,
                  const std::string &value)
{
    if (field == "enabled")
        s.enabled = parseBool(value);
    else if (field == "arrival") {
        service::requireArrival(value);
        s.arrival = value;
    } else if (field == "offered-mbps")
        s.offeredMbps = parseDouble(value);
    else if (field == "clients")
        s.clients = parseUnsigned(value);
    else if (field == "burst")
        s.burstFactor = parseDouble(value);
    else if (field == "period")
        s.periodCycles = parseU64(value);
    else if (field == "slo")
        s.sloTargetCycles = parseU64(value);
    else if (field == "duration")
        s.durationCycles = parseU64(value);
    else if (field == "shed") {
        service::requireShedPolicy(value);
        s.shed = value;
    } else if (field == "shed-limit")
        s.shedLimit = parseU64(value);
    else
        return false;
    return true;
}

bool
applyFaultField(fault::FaultConfig &f, const std::string &field,
                const std::string &value)
{
    if (field == "models") {
        // "-" is the canonical empty sentinel (matching priorities=-).
        const std::string models = value == "-" ? "" : value;
        fault::parseFaultModels(models); // validate
        f.models = models;
    } else if (field == "seed")
        f.seed = parseU64(value);
    else if (field == "bitflip-rate")
        f.bitflipRate = parseDouble(value);
    else if (field == "cells")
        f.cellsPerChannel = parseUnsigned(value);
    else if (field == "weak-cells")
        f.weakCells = parseUnsigned(value);
    else if (field == "weak-severity")
        f.weakSeverity = parseUnsigned(value);
    else if (field == "drift-interval")
        f.driftInterval = parseU64(value);
    else if (field == "stuck-rows")
        f.stuckRows = parseUnsigned(value);
    else if (field == "spares")
        f.spareCells = parseUnsigned(value);
    else if (field == "blacklist-threshold")
        f.blacklistThreshold = parseUnsigned(value);
    else if (field == "retry-limit")
        f.retryLimit = parseUnsigned(value);
    else if (field == "monitor")
        f.monitor = parseBool(value);
    else if (field == "outage-period")
        f.outagePeriod = parseU64(value);
    else if (field == "outage-duration")
        f.outageDuration = parseU64(value);
    else if (field == "outage-scope") {
        if (value != "channel" && value != "rank")
            throw std::invalid_argument("unknown outage scope '" +
                                        value +
                                        "' (known: channel, rank)");
        f.outageScope = value;
    } else
        return false;
    return true;
}

void
applyToken(SimConfig &cfg, const std::string &key,
           const std::string &value)
{
    if (key == "design") {
        DesignRegistry::instance().apply(value, cfg);
    } else if (key == "scheduler") {
        mem::SchedulerRegistry::instance().require(value);
        cfg.scheduler = value;
    } else if (key == "rng-aware") {
        cfg.rngAwareQueueing = parseBool(value);
    } else if (key == "buffering") {
        cfg.buffering = parseBool(value);
    } else if (key == "fill") {
        mem::fillModeFromName(value); // validate
        cfg.fillPolicy = value;
    } else if (key == "predictor") {
        strange::predictorKind(value); // validate
        cfg.predictor = value;
    } else if (key == "low-util") {
        cfg.lowUtilFill = parseBool(value);
    } else if (key == "mapping") {
        dram::requireMapping(value);
        cfg.addressMapping = value;
    } else if (key == "parking") {
        cfg.enableParking = parseBool(value);
    } else if (key == "fill-abort") {
        cfg.enableFillAbort = parseBool(value);
    } else if (key == "fill-channels") {
        cfg.fillChannelLimit = parseUnsigned(value);
    } else if (key == "mechanism") {
        if (auto m = trng::TrngMechanism::byName(value))
            cfg.mechanism = *m;
        else
            throw std::invalid_argument(
                "unknown TRNG mechanism '" + value +
                "' (known: drange, quac; use mechanism.name= and "
                "mechanism.bits/round/in/out= for a custom one)");
    } else if (key.rfind("mechanism.", 0) == 0) {
        if (!applyMechanismField(cfg.mechanism, key.substr(10), value))
            throw std::invalid_argument("unknown key");
    } else if (key == "fill-mechanism") {
        if (value == "-")
            cfg.fillMechanism.reset();
        else if (auto m = trng::TrngMechanism::byName(value))
            cfg.fillMechanism = *m;
        else
            throw std::invalid_argument(
                "unknown TRNG mechanism '" + value +
                "' (known: drange, quac, '-'; use fill-mechanism.name= "
                "and fill-mechanism.bits/round/in/out= for a custom "
                "one)");
    } else if (key.rfind("fill-mechanism.", 0) == 0) {
        if (!cfg.fillMechanism)
            cfg.fillMechanism = cfg.mechanism;
        if (!applyMechanismField(*cfg.fillMechanism, key.substr(15),
                                 value))
            throw std::invalid_argument("unknown key");
    } else if (key == "buffer-entries") {
        cfg.bufferEntries = parseUnsigned(value);
    } else if (key == "buffer-partitions") {
        cfg.bufferPartitions = parseUnsigned(value);
    } else if (key == "low-util-threshold") {
        cfg.lowUtilThreshold = parseUnsigned(value);
    } else if (key == "powerdown") {
        cfg.powerDownThreshold = parseU64(value);
    } else if (key == "budget") {
        cfg.instrBudget = parseU64(value);
    } else if (key == "max-cycles") {
        cfg.maxBusCycles = parseU64(value);
    } else if (key == "seed") {
        cfg.seed = parseU64(value);
    } else if (key == "priorities") {
        cfg.priorities.clear();
        if (value != "-") {
            std::istringstream iss(value);
            std::string item;
            while (std::getline(iss, item, ','))
                if (!item.empty())
                    cfg.priorities.push_back(parseInt(item));
        }
    } else if (key.rfind("timings.", 0) == 0) {
        if (!applyTimingsField(cfg.timings, key.substr(8), value))
            throw std::invalid_argument("unknown key");
    } else if (key.rfind("geometry.", 0) == 0) {
        if (!applyGeometryField(cfg.geometry, key.substr(9), value))
            throw std::invalid_argument("unknown key");
    } else if (key.rfind("service.", 0) == 0) {
        if (!applyServiceField(cfg.service, key.substr(8), value))
            throw std::invalid_argument(
                "unknown key (known service.* keys: enabled, arrival, "
                "offered-mbps, clients, burst, period, slo, duration, "
                "shed, shed-limit)");
    } else if (key.rfind("fault.", 0) == 0) {
        if (!applyFaultField(cfg.fault, key.substr(6), value))
            throw std::invalid_argument(
                "unknown key (known fault.* keys: models, seed, "
                "bitflip-rate, cells, weak-cells, weak-severity, "
                "drift-interval, stuck-rows, spares, "
                "blacklist-threshold, retry-limit, monitor, "
                "outage-period, outage-duration, outage-scope)");
    } else if (key.rfind("backend.", 0) == 0) {
        if (!applyBackendField(cfg, key.substr(8), value))
            throw std::invalid_argument("unknown key");
    } else if (key.rfind("trace.", 0) == 0) {
        if (!applyTraceField(cfg, key.substr(6), value))
            throw std::invalid_argument("unknown key");
    } else {
        throw std::invalid_argument("unknown key");
    }
}

} // namespace

std::string
serializeConfig(const SimConfig &cfg)
{
    std::ostringstream o;
    o << "scheduler=" << cfg.scheduler;
    o << " rng-aware=" << (cfg.rngAwareQueueing ? 1 : 0);
    o << " buffering=" << (cfg.buffering ? 1 : 0);
    o << " fill=" << cfg.fillPolicy;
    o << " predictor=" << cfg.predictor;
    o << " low-util=" << (cfg.lowUtilFill ? 1 : 0);
    o << " mapping=" << cfg.addressMapping;
    o << " parking=" << (cfg.enableParking ? 1 : 0);
    o << " fill-abort=" << (cfg.enableFillAbort ? 1 : 0);
    o << " fill-channels=" << cfg.fillChannelLimit;
    serializeMechanism(o, "mechanism", cfg.mechanism);
    if (cfg.fillMechanism)
        serializeMechanism(o, "fill-mechanism", *cfg.fillMechanism);
    else
        o << " fill-mechanism=-";
    o << " buffer-entries=" << cfg.bufferEntries;
    o << " buffer-partitions=" << cfg.bufferPartitions;
    o << " low-util-threshold=" << cfg.lowUtilThreshold;
    o << " powerdown=" << cfg.powerDownThreshold;
    o << " budget=" << cfg.instrBudget;
    o << " max-cycles=" << cfg.maxBusCycles;
    o << " seed=" << cfg.seed;
    o << " priorities=";
    if (cfg.priorities.empty()) {
        o << '-';
    } else {
        for (std::size_t i = 0; i < cfg.priorities.size(); ++i)
            o << (i ? "," : "") << cfg.priorities[i];
    }
    const dram::DramTimings &t = cfg.timings;
    o << " timings.tck=" << formatDouble(t.tCKns)
      << " timings.trcd=" << t.tRCD << " timings.tcl=" << t.tCL
      << " timings.tcwl=" << t.tCWL
      << " timings.trp=" << t.tRP << " timings.tras=" << t.tRAS
      << " timings.trc=" << t.tRC << " timings.tbl=" << t.tBL
      << " timings.tccd=" << t.tCCD << " timings.trtp=" << t.tRTP
      << " timings.twr=" << t.tWR << " timings.twtr=" << t.tWTR
      << " timings.trrd=" << t.tRRD << " timings.tfaw=" << t.tFAW
      << " timings.trfc=" << t.tRFC << " timings.trefi=" << t.tREFI
      << " timings.txp=" << t.tXP << " timings.trtrs=" << t.tRTRS;
    const dram::DramGeometry &g = cfg.geometry;
    o << " geometry.channels=" << g.channels
      << " geometry.ranks=" << g.ranksPerChannel
      << " geometry.banks=" << g.banksPerRank
      << " geometry.rows=" << g.rowsPerBank
      << " geometry.rowbytes=" << g.rowBytes;
    const service::ServiceConfig &sv = cfg.service;
    o << " service.enabled=" << (sv.enabled ? 1 : 0)
      << " service.arrival=" << sv.arrival
      << " service.offered-mbps=" << formatDouble(sv.offeredMbps)
      << " service.clients=" << sv.clients
      << " service.burst=" << formatDouble(sv.burstFactor)
      << " service.period=" << sv.periodCycles
      << " service.slo=" << sv.sloTargetCycles
      << " service.duration=" << sv.durationCycles
      << " service.shed=" << sv.shed
      << " service.shed-limit=" << sv.shedLimit;
    const fault::FaultConfig &fl = cfg.fault;
    o << " fault.models=" << (fl.models.empty() ? "-" : fl.models)
      << " fault.seed=" << fl.seed
      << " fault.bitflip-rate=" << formatDouble(fl.bitflipRate)
      << " fault.cells=" << fl.cellsPerChannel
      << " fault.weak-cells=" << fl.weakCells
      << " fault.weak-severity=" << fl.weakSeverity
      << " fault.drift-interval=" << fl.driftInterval
      << " fault.stuck-rows=" << fl.stuckRows
      << " fault.spares=" << fl.spareCells
      << " fault.blacklist-threshold=" << fl.blacklistThreshold
      << " fault.retry-limit=" << fl.retryLimit
      << " fault.monitor=" << (fl.monitor ? 1 : 0)
      << " fault.outage-period=" << fl.outagePeriod
      << " fault.outage-duration=" << fl.outageDuration
      << " fault.outage-scope=" << fl.outageScope;
    o << " backend.kind=" << cfg.backend
      << " backend.read-latency=" << cfg.backendReadLatency
      << " backend.write-latency=" << cfg.backendWriteLatency
      << " backend.gap=" << cfg.backendGap;
    o << " trace.record=" << pathToken(cfg.traceRecord)
      << " trace.replay=" << pathToken(cfg.traceReplay);
    return o.str();
}

void
applyConfigText(SimConfig &cfg, const std::string &text)
{
    // Work on a copy: a rejected text must not leave half its tokens (or
    // timings that fail the check below) in a config that is used again.
    SimConfig next = cfg;
    std::istringstream iss(text);
    std::string token;
    for (std::size_t index = 0; iss >> token; ++index) {
        const auto reject = [&](const char *why) {
            return ConfigTokenError(index, "bad config token '" + token +
                                               "': " + why);
        };
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            throw reject("expected key=value");
        try {
            applyToken(next, token.substr(0, eq), token.substr(eq + 1));
        } catch (const std::invalid_argument &e) {
            throw reject(e.what());
        } catch (const std::out_of_range &e) {
            throw reject(e.what());
        }
    }
    // Timings and the mapping are checked as a whole, once every token
    // has landed (one text may move tREFI and tRFC together, or the
    // mapping and the bank count); each check lives where the checked
    // value is used.
    static_cast<void>(dram::TimingTable::ddr(next.timings));
    static_cast<void>(
        dram::AddressMapping(next.geometry, next.addressMapping));
    cfg = std::move(next);
}

SimConfig
parseConfig(const std::string &text)
{
    SimConfig cfg;
    applyConfigText(cfg, text);
    return cfg;
}

} // namespace dstrange::sim
