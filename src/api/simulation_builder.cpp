#include "api/simulation_builder.h"

#include <stdexcept>

#include "dram/mapping_registry.h"
#include "fault/fault_registry.h"
#include "mem/backend_registry.h"
#include "mem/scheduler_registry.h"
#include "service/arrival_process.h"
#include "service/shed_policy.h"
#include "sim/config_text.h"
#include "sim/design_registry.h"
#include "sim/result_store.h"
#include "strange/predictor_registry.h"

namespace dstrange::sim {

SimulationBuilder &
SimulationBuilder::cacheDir(std::string dir)
{
    cacheDirOverride = std::move(dir);
    return *this;
}

std::shared_ptr<ResultStore>
SimulationBuilder::makeStore() const
{
    if (!cacheDirOverride)
        return ResultStore::openFromEnv();
    if (cacheDirOverride->empty())
        return nullptr;
    return std::make_shared<ResultStore>(*cacheDirOverride);
}

Runner
SimulationBuilder::buildRunner() const
{
    return Runner(cfg, makeStore());
}

SweepRunner
SimulationBuilder::buildSweepRunner(unsigned jobs) const
{
    return SweepRunner(cfg, jobs, makeStore());
}

SimulationBuilder
SimulationBuilder::fromText(const std::string &text)
{
    return SimulationBuilder().applyText(text);
}

SimulationBuilder &
SimulationBuilder::design(const std::string &name)
{
    DesignRegistry::instance().apply(name, cfg);
    return *this;
}

SimulationBuilder &
SimulationBuilder::scheduler(std::string registry_key)
{
    if (!mem::SchedulerRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown scheduler '" + registry_key +
                                "' (register it first)");
    cfg.scheduler = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::rngAwareQueueing(bool on)
{
    cfg.rngAwareQueueing = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::buffering(bool on)
{
    cfg.buffering = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::fillPolicy(std::string mode)
{
    mem::fillModeFromName(mode); // validate early
    cfg.fillPolicy = std::move(mode);
    return *this;
}

SimulationBuilder &
SimulationBuilder::predictor(std::string registry_key)
{
    if (!strange::PredictorRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown predictor '" + registry_key +
                                "' (register it first)");
    cfg.predictor = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::lowUtilFill(bool on)
{
    cfg.lowUtilFill = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::addressMapping(std::string registry_key)
{
    if (!dram::MappingRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown mapping '" + registry_key +
                                "' (register it first)");
    cfg.addressMapping = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::fillPlacement(std::string name)
{
    mem::fillPlacementFromName(name); // validate early
    cfg.fillPlacement = std::move(name);
    return *this;
}

SimulationBuilder &
SimulationBuilder::backend(std::string registry_key)
{
    if (!mem::BackendRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown backend '" + registry_key +
                                "' (register it first)");
    cfg.backend = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::backendReadLatency(Cycle cycles)
{
    cfg.backendReadLatency = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::backendWriteLatency(Cycle cycles)
{
    cfg.backendWriteLatency = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::backendGap(Cycle cycles)
{
    cfg.backendGap = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::recordTrace(std::string path)
{
    cfg.traceRecord = std::move(path);
    return *this;
}

SimulationBuilder &
SimulationBuilder::replayTrace(std::string path)
{
    cfg.traceReplay = std::move(path);
    return *this;
}

SimulationBuilder &
SimulationBuilder::mechanism(const trng::TrngMechanism &m)
{
    cfg.mechanism = m;
    return *this;
}

SimulationBuilder &
SimulationBuilder::mechanism(const std::string &name)
{
    const auto m = trng::TrngMechanism::byName(name);
    if (!m)
        throw std::out_of_range("unknown TRNG mechanism '" + name +
                                "' (known: drange, quac)");
    cfg.mechanism = *m;
    return *this;
}

SimulationBuilder &
SimulationBuilder::fillMechanism(const trng::TrngMechanism &m)
{
    cfg.fillMechanism = m;
    return *this;
}

SimulationBuilder &
SimulationBuilder::fillMechanism(const std::string &name)
{
    const auto m = trng::TrngMechanism::byName(name);
    if (!m)
        throw std::out_of_range("unknown TRNG mechanism '" + name +
                                "' (known: drange, quac)");
    cfg.fillMechanism = *m;
    return *this;
}

SimulationBuilder &
SimulationBuilder::noFillMechanism()
{
    cfg.fillMechanism.reset();
    return *this;
}

SimulationBuilder &
SimulationBuilder::timings(const dram::DramTimings &t)
{
    cfg.timings = t;
    return *this;
}

SimulationBuilder &
SimulationBuilder::geometry(const dram::DramGeometry &g)
{
    cfg.geometry = g;
    return *this;
}

SimulationBuilder &
SimulationBuilder::bufferEntries(unsigned entries)
{
    cfg.bufferEntries = entries;
    return *this;
}

SimulationBuilder &
SimulationBuilder::bufferPartitions(unsigned partitions)
{
    cfg.bufferPartitions = partitions;
    return *this;
}

SimulationBuilder &
SimulationBuilder::lowUtilThreshold(unsigned occupancy)
{
    cfg.lowUtilThreshold = occupancy;
    return *this;
}

SimulationBuilder &
SimulationBuilder::powerDownThreshold(Cycle cycles)
{
    cfg.powerDownThreshold = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::instrBudget(std::uint64_t instructions)
{
    cfg.instrBudget = instructions;
    return *this;
}

SimulationBuilder &
SimulationBuilder::maxBusCycles(Cycle cycles)
{
    cfg.maxBusCycles = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::priorities(std::vector<int> per_core)
{
    cfg.priorities = std::move(per_core);
    return *this;
}

SimulationBuilder &
SimulationBuilder::seed(std::uint64_t s)
{
    cfg.seed = s;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceEnabled(bool on)
{
    cfg.service.enabled = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceArrival(std::string registry_key)
{
    if (!service::ArrivalRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown arrival process '" +
                                registry_key + "' (register it first)");
    cfg.service.arrival = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceOfferedMbps(double mbps)
{
    cfg.service.offeredMbps = mbps;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceClients(unsigned clients)
{
    cfg.service.clients = clients;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceSloTarget(Cycle cycles)
{
    cfg.service.sloTargetCycles = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceDuration(Cycle cycles)
{
    cfg.service.durationCycles = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceShedPolicy(std::string registry_key)
{
    if (!service::ShedRegistry::instance().contains(registry_key))
        throw std::out_of_range("unknown shed policy '" + registry_key +
                                "' (register it first)");
    cfg.service.shed = std::move(registry_key);
    return *this;
}

SimulationBuilder &
SimulationBuilder::serviceShedLimit(std::uint64_t limit)
{
    cfg.service.shedLimit = limit;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultModels(const std::string &models_csv)
{
    std::size_t pos = 0;
    while (pos <= models_csv.size() && !models_csv.empty()) {
        const std::size_t comma = models_csv.find(',', pos);
        const std::string key = models_csv.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!key.empty() &&
            !fault::FaultRegistry::instance().contains(key))
            throw std::out_of_range("unknown fault model '" + key +
                                    "' (register it first)");
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    cfg.fault.models = models_csv;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultSeed(std::uint64_t s)
{
    cfg.fault.seed = s;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultBitflipRate(double rate)
{
    cfg.fault.bitflipRate = rate;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultCells(unsigned cells_per_channel)
{
    cfg.fault.cellsPerChannel = cells_per_channel;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultWeakCells(unsigned cells)
{
    cfg.fault.weakCells = cells;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultWeakSeverity(unsigned severity)
{
    cfg.fault.weakSeverity = severity;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultDriftInterval(std::uint64_t uses)
{
    cfg.fault.driftInterval = uses;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultStuckRows(unsigned rows)
{
    cfg.fault.stuckRows = rows;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultSpares(unsigned cells)
{
    cfg.fault.spareCells = cells;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultMonitor(bool on)
{
    cfg.fault.monitor = on;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultBlacklistThreshold(unsigned failures)
{
    cfg.fault.blacklistThreshold = failures;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultRetryLimit(unsigned rounds)
{
    cfg.fault.retryLimit = rounds;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultOutagePeriod(Cycle cycles)
{
    cfg.fault.outagePeriod = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultOutageDuration(Cycle cycles)
{
    cfg.fault.outageDuration = cycles;
    return *this;
}

SimulationBuilder &
SimulationBuilder::faultOutageScope(std::string scope)
{
    if (scope != "channel" && scope != "rank")
        throw std::out_of_range("unknown outage scope '" + scope +
                                "' (known: channel, rank)");
    cfg.fault.outageScope = std::move(scope);
    return *this;
}

SimulationBuilder &
SimulationBuilder::applyText(const std::string &text)
{
    applyConfigText(cfg, text);
    return *this;
}

std::string
SimulationBuilder::toText() const
{
    return serializeConfig(cfg);
}

} // namespace dstrange::sim
