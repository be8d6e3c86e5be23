#include "sim/lockstep.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/env_util.h"
#include "fault/fault_plane.h"

namespace dstrange::sim {

bool
lockstepEnabled()
{
    return envFlag("DS_LOCKSTEP", false);
}

namespace {

void
putF(std::ostringstream &out, const char *key, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    out << key << '=' << buf << '\n';
}

} // namespace

std::string
systemFingerprint(const System &sys)
{
    std::ostringstream out;
    out << "bus_cycles=" << sys.busCycles() << '\n'
        << "backend=" << sys.config().backend << '\n';
    if (const trace::TraceReplaySource *rs = sys.replaySource())
        out << "replay.records=" << rs->replayedCount() << '\n'
            << "replay.finished=" << rs->finished() << '\n';

    for (unsigned i = 0; i < sys.numCores(); ++i) {
        const cpu::CoreStats &s = sys.coreStats(i);
        out << "core" << i << ".instr_retired=" << s.instrRetired << '\n'
            << "core" << i << ".finish_cycle=" << s.finishCycle << '\n'
            << "core" << i << ".mem_stall=" << s.memStallCycles << '\n'
            << "core" << i << ".rng_stall=" << s.rngStallCycles << '\n'
            << "core" << i << ".reads=" << s.reads << '\n'
            << "core" << i << ".writes=" << s.writes << '\n'
            << "core" << i << ".rng_requests=" << s.rngRequests << '\n'
            << "core" << i << ".finished=" << s.finished << '\n';
    }

    const mem::MemoryController &mc = sys.mc();
    const mem::McStats &m = mc.stats();
    out << "mc.read_requests=" << m.readRequests << '\n'
        << "mc.write_requests=" << m.writeRequests << '\n'
        << "mc.rng_requests=" << m.rngRequests << '\n'
        << "mc.rng_from_buffer=" << m.rngServedFromBuffer << '\n'
        << "mc.rng_from_staging=" << m.rngServedFromStaging << '\n'
        << "mc.rng_jobs_completed=" << m.rngJobsCompleted << '\n'
        << "mc.reads_completed=" << m.readsCompleted << '\n'
        << "mc.sum_read_latency=" << m.sumReadLatency << '\n'
        << "mc.sum_rng_latency=" << m.sumRngLatency << '\n'
        << "mc.pending_rng_jobs=" << mc.pendingRngJobs() << '\n'
        << "mc.rng_occupied=" << mc.rngOccupiedCycles() << '\n';
    putF(out, "mc.staging_bits", mc.stagingLevel());
    if (const strange::BufferSet *buf = mc.buffer()) {
        putF(out, "mc.buffer_level", buf->levelBits());
        out << "mc.buffer_served=" << buf->servedCount() << '\n';
    }
    if (const mem::RngAwarePolicy *pol = mc.policy())
        out << "mc.max_stall=" << pol->maxStallObserved() << '\n';
    if (auto ps = mc.predictorStats()) {
        out << "pred.predictions=" << ps->predictions << '\n'
            << "pred.correct=" << ps->correct << '\n'
            << "pred.false_pos=" << ps->falsePositives << '\n'
            << "pred.false_neg=" << ps->falseNegatives << '\n';
    }

    if (const fault::FaultPlane *fp = mc.faultInjection())
        out << fp->fingerprint();

    if (const service::OpenLoopService *svc = sys.service()) {
        const service::ServiceStats &ss = svc->stats();
        out << "svc.offered=" << ss.offered << '\n'
            << "svc.shed=" << ss.shed << '\n'
            << "svc.issued=" << ss.issued << '\n'
            << "svc.completed=" << ss.completed << '\n'
            << "svc.over_slo=" << ss.overSlo << '\n'
            << "svc.served_buffer=" << ss.servedBuffer << '\n'
            << "svc.served_staging=" << ss.servedStaging << '\n'
            << "svc.served_engine=" << ss.servedEngine << '\n'
            << "svc.max_backlog=" << ss.maxBacklog << '\n'
            << "svc.last_completion=" << ss.lastCompletion << '\n'
            << "svc.backlog=" << svc->backlogDepth() << '\n'
            << "svc.latency_fp=" << ss.latency.fingerprint() << '\n';
    }

    for (unsigned ch = 0; ch < mc.numChannels(); ++ch) {
        const dram::ChannelEnergyCounters &c =
            mc.channel(ch).energyCounters();
        out << "ch" << ch << ".act=" << c.nAct << '\n'
            << "ch" << ch << ".pre=" << c.nPre << '\n'
            << "ch" << ch << ".rd=" << c.nRd << '\n'
            << "ch" << ch << ".wr=" << c.nWr << '\n'
            << "ch" << ch << ".ref=" << c.nRef << '\n'
            << "ch" << ch << ".rng_rounds=" << c.rngRounds << '\n'
            << "ch" << ch << ".cyc_active=" << c.cyclesActive << '\n'
            << "ch" << ch << ".cyc_pre=" << c.cyclesPrecharged << '\n'
            << "ch" << ch << ".cyc_pd=" << c.cyclesPoweredDown << '\n'
            << "ch" << ch << ".read_q=" << mc.readQueueSize(ch) << '\n'
            << "ch" << ch << ".write_q=" << mc.writeQueueSize(ch) << '\n';
        const trng::RngEngine &eng = mc.engine(ch);
        putF(out, ("ch" + std::to_string(ch) + ".bits").c_str(),
             eng.totalBits());
        out << "ch" << ch << ".occupied=" << eng.totalOccupiedCycles()
            << '\n'
            << "ch" << ch << ".parked=" << eng.totalParkedCycles() << '\n'
            << "ch" << ch << ".aborts=" << eng.totalAborts() << '\n';
        // Idle-period distribution: count plus a positional hash, so a
        // shifted or altered period length cannot cancel out.
        const auto &periods = mc.idlePeriods(ch);
        std::uint64_t h = 1469598103934665603ull;
        for (std::uint32_t len : periods) {
            h ^= len;
            h *= 1099511628211ull;
        }
        out << "ch" << ch << ".idle_periods=" << periods.size() << '\n'
            << "ch" << ch << ".idle_hash=" << h << '\n';
    }
    return out.str();
}

void
verifyLockstep(const System &fast_forwarded, const System &stepped)
{
    const std::string a = systemFingerprint(fast_forwarded);
    const std::string b = systemFingerprint(stepped);
    if (a == b)
        return;

    // Name the first differing statistic for the failure message.
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    while (std::getline(sa, la) && std::getline(sb, lb)) {
        if (la != lb) {
            throw std::runtime_error(
                "DS_LOCKSTEP mismatch: fast-forward '" + la +
                "' vs step-1 '" + lb + "'");
        }
    }
    throw std::runtime_error(
        "DS_LOCKSTEP mismatch: fingerprints differ in length");
}

std::unique_ptr<System>
runSystem(const SimConfig &cfg, const TraceFactory &make_traces)
{
    auto sys = std::make_unique<System>(cfg, make_traces());
    const bool lockstep = lockstepEnabled();
    if (lockstep)
        sys->setFastForward(true);
    sys->run();
    if (lockstep) {
        System ref(cfg, make_traces());
        ref.setFastForward(false);
        ref.run();
        verifyLockstep(*sys, ref);
    }
    return sys;
}

} // namespace dstrange::sim
