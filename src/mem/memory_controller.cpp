#include "mem/memory_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "fault/fault_plane.h"
#include "mem/scheduler_registry.h"

namespace dstrange::mem {

FillMode
fillModeFromName(const std::string &name)
{
    if (name == "none")
        return FillMode::None;
    if (name == "greedy-oracle")
        return FillMode::GreedyOracle;
    if (name == "engine")
        return FillMode::Engine;
    throw std::out_of_range(
        "unknown fill mode '" + name +
        "' (known: none, greedy-oracle, engine)");
}

FillMode
McConfig::fillMode() const
{
    return buffering ? fillModeFromName(fillPolicy) : FillMode::None;
}

Cycle
McConfig::periodThreshold() const
{
    const trng::TrngMechanism &m = fillMechanism.value_or(mechanism);
    return std::max<Cycle>(40, m.switchInLatency + m.roundLatency +
                                   m.switchOutLatency);
}

dram::TimingTable
McConfig::timingTable() const
{
    dram::requireChannelModel(backend);
    // Derived even for the fixed-latency row: tCK and the currents still
    // feed the energy model, so the timings must be consistent.
    const dram::TimingTable ddr = dram::TimingTable::ddr(timings);
    if (backend == "fixed-latency")
        return dram::TimingTable::fixedLatency(
            backendReadLatency, backendWriteLatency, backendGap);
    return ddr;
}

strange::RlIdlenessPredictor::Config
McConfig::rlConfig() const
{
    strange::RlIdlenessPredictor::Config rl;
    if (predictorKind() == strange::PredictorKind::Rl)
        rl.seed = seed * 7919 + 17;
    return rl;
}

MemoryController::MemoryController(const McConfig &config, unsigned ports)
    : cfg(config), fillMode(config.fillMode()),
      lowUtilBound(config.lowUtilBound()),
      periodThreshold(config.periodThreshold()),
      mapper(config.geometry, config.addressMapping),
      mech(config.mechanism),
      fillMech(config.fillMechanism.value_or(config.mechanism)),
      writeSched(config.geometry.channels,
                 config.geometry.banksPerChannel(), /*cap=*/0)
{
    const dram::DramGeometry &geometry = cfg.geometry;
    const dram::TimingTable table = cfg.timingTable();

    const std::vector<fault::FaultKind> faults =
        fault::parseFaultModels(cfg.fault.models);
    // Engines hold their channel by reference: size the vector first.
    chans.reserve(geometry.channels);
    for (unsigned ch = 0; ch < geometry.channels; ++ch) {
        dram::DramChannel &chan = chans.emplace_back(table, geometry);
        chan.setPowerDownPolicy(cfg.powerDownThreshold);
        if (fault::hasOutageModel(cfg.fault, faults)) {
            const fault::OutageWindow w = fault::outageWindow(
                cfg.fault, ch, geometry.ranksPerChannel);
            chan.setBlackout(w.period, w.duration, w.phase, w.rank);
        }
        engines.push_back(
            std::make_unique<trng::RngEngine>(mech, fillMech, chan));
    }

    if (fault::hasCellModels(faults))
        faultPlane = std::make_unique<fault::FaultPlane>(
            cfg.fault, geometry.channels);

    perChan.resize(geometry.channels);
    for (unsigned ch = 0; ch < geometry.channels; ++ch) {
        ChannelState &cs = perChan[ch];
        cs.readQ = std::make_unique<RequestQueue>(kReadQueueCap);
        cs.writeQ = std::make_unique<RequestQueue>(kWriteQueueCap);
        // Completion lists never outgrow the queues feeding them by
        // much; pre-sizing keeps the per-cycle loop allocation-free.
        cs.inflightReads.reserve(kReadQueueCap + 8);
        cs.inflightDone.reserve(kReadQueueCap + 8);
        // Channels start empty, i.e. idle from cycle 0; the first fill
        // prediction is made lazily by manageEngine().
        cs.idleActive = true;
    }
    predictors.resize(geometry.channels);
    if (fillMode == FillMode::Engine) {
        const strange::PredictorKind kind = cfg.predictorKind();
        for (unsigned ch = 0; ch < geometry.channels; ++ch) {
            if (kind == strange::PredictorKind::Simple) {
                predictors[ch].emplace<strange::SimpleIdlenessPredictor>(
                    strange::SimpleIdlenessPredictor::Config{
                        kPredictorEntries, periodThreshold});
            } else if (kind == strange::PredictorKind::Rl) {
                strange::RlIdlenessPredictor::Config rl = cfg.rlConfig();
                rl.periodThreshold = periodThreshold;
                rl.seed += ch; // Independent exploration per channel.
                predictors[ch].emplace<strange::RlIdlenessPredictor>(rl);
            }
        }
    }

    const SchedulerContext sctx{geometry.channels,
                                geometry.banksPerChannel(), ports, cfg};
    readSched = SchedulerRegistry::instance().make(cfg.scheduler, sctx);

    if (cfg.rngAwareQueueing)
        rngPolicy = std::make_unique<RngAwarePolicy>(
            geometry.channels, ports, RngAwarePolicy::Config{});

    if (cfg.bufferCapacity() > 0) {
        buf = std::make_unique<strange::BufferSet>(cfg.bufferCapacity(),
                                                   cfg.bufferPartitions);
    }

    pendingBufferServes.reserve(4 * static_cast<std::size_t>(ports));
    pendingBufferServeDone.reserve(4 * static_cast<std::size_t>(ports));

    choiceNow.assign(geometry.channels, QueueChoice::None);
    dueNow.assign(geometry.channels, kDue);
    dueList.reserve(geometry.channels);
}

MemoryController::~MemoryController() = default;

void
MemoryController::setCompletionCallback(CompletionCallback cb)
{
    onComplete = std::move(cb);
}

void
MemoryController::setPriority(CoreId core, int priority)
{
    if (!rngPolicy)
        return;
    // Priorities feed every channel's arbitration and stall counters.
    catchUpAll(clock);
    rngPolicy->setPriority(core, priority);
    dirtyAllWakes();
}

void
MemoryController::setFastPath(bool on)
{
    sync();
    fastPath = on;
    dirtyAllWakes();
}

bool
MemoryController::acceptsRng(CoreId core) const
{
    return (buf && buf->canServe64(core)) || stagingBits >= 64.0 ||
           rngJobs.size() < kRngQueueCap;
}

unsigned
MemoryController::occupancy(const ChannelState &cs) const
{
    return static_cast<unsigned>(cs.readQ->size() + cs.writeQ->size());
}

bool
MemoryController::enqueue(Request req, Cycle now)
{
    req.arrival = now;
    const bool accepted = enqueueAccept(req, now);
    // The sink sees exactly the accepted-request stream: rejected
    // requests are retried by the issuer and recorded on the cycle the
    // retry succeeds, which is the cycle that shaped controller state.
    if (accepted && traceSink)
        traceSink(req, now);
    return accepted;
}

bool
MemoryController::enqueueAccept(Request &req, Cycle now)
{
    if (req.type == ReqType::Rng) {
        if (rngPolicy && !rngPolicy->isRngApp(req.core)) {
            // The flag feeds every channel's arbitration.
            catchUpAll(clock);
            rngPolicy->markRngApp(req.core);
            dirtyAllWakes();
        }
        if (buf && buf->canServe64(req.core)) {
            const unsigned gate = fillGate();
            buf->serve64(req.core);
            if (fillGate() != gate)
                dirtyAllWakes();
            statistics.rngRequests++;
            statistics.rngServedFromBuffer++;
            statistics.sumRngLatency += kBufferServeLatency;
            RngJob job{req.core, now, nextSeq++, req.token, 64.0,
                       ServePath::Buffer};
            pendingBufferServes.push_back(job);
            pendingBufferServeDone.push_back(now + kBufferServeLatency);
            return true;
        }
        if (stagingBits >= 64.0) {
            // Leftover bits of an earlier demand round cover the request.
            stagingBits -= 64.0;
            statistics.rngRequests++;
            statistics.rngServedFromStaging++;
            statistics.sumRngLatency += kBufferServeLatency;
            RngJob job{req.core, now, nextSeq++, req.token, 64.0,
                       ServePath::Staging};
            pendingBufferServes.push_back(job);
            pendingBufferServeDone.push_back(now + kBufferServeLatency);
            return true;
        }
        if (rngJobs.size() >= kRngQueueCap)
            return false;
        // Channels read only whether jobs wait and, under RNG-aware
        // arbitration with mixed priorities, the front job and the top
        // job priority.
        const bool visible =
            rngJobs.empty() ||
            (rngPolicy && !rngPolicy->uniformPriority() &&
             rngPolicy->priority(req.core) > topJobPriority());
        if (visible)
            catchUpAll(clock);
        statistics.rngRequests++;
        RngJob job{req.core, now, nextSeq++, req.token, 0.0};
        // Start the job with whatever partial bits are staged.
        job.bitsCollected = stagingBits;
        stagingBits = 0.0;
        rngJobs.push_back(job);
        if (visible)
            dirtyAllWakes();
        return true;
    }

    req.coord = mapper.decode(req.addr);
    ChannelState &cs = perChan[req.coord.channel];
    RequestQueue &q =
        req.type == ReqType::Write ? *cs.writeQ : *cs.readQ;
    if (q.full())
        return false;
    catchUp(req.coord.channel, clock);
    cs.wakeDirty = true;
    req.seq = nextSeq++;
    q.push(req);
    if (req.type == ReqType::Read)
        statistics.readRequests++;
    else
        statistics.writeRequests++;

    // The arrival ends any idle/quiet period; the predictor trains with
    // the *previous* last-accessed address, then the address updates.
    updateIdleState(req.coord.channel, now);
    cs.lastAddr = req.addr;
    return true;
}

void
MemoryController::updateIdleState(unsigned ch, Cycle now)
{
    ChannelState &cs = perChan[ch];
    const unsigned occ = occupancy(cs);

    const bool idle_now = occ == 0;
    if (idle_now && !cs.idleActive) {
        cs.idleActive = true;
        cs.idleStart = now;
        cs.predictionCached = false;
        cs.predictedLong = false;
    } else if (!idle_now && cs.idleActive) {
        // The period ends at the first arrival: record its length for
        // the Fig. 5/18 distributions and train the predictor with the
        // previous last-accessed address (Section 5.1.2).
        cs.idleActive = false;
        const Cycle len = now - cs.idleStart;
        if (len > 0 && cs.idleLengths.size() < kMaxIdleSamples)
            cs.idleLengths.push_back(static_cast<std::uint32_t>(len));
        std::visit([&](auto &p) { p.periodEnded(cs.lastAddr, len); },
                   predictors[ch]);
    }

}

int
MemoryController::topJobPriority() const
{
    int top = rngPolicy->priority(rngJobs.front().core);
    for (const RngJob &job : rngJobs)
        top = std::max(top, rngPolicy->priority(job.core));
    return top;
}

unsigned
MemoryController::fillGate() const
{
    if (fillMode != FillMode::Engine || !buf)
        return 0;
    return (buf->full() ? 1u : 0u) |
           (buf->levelBits() < 0.5 * buf->capacityBits() ? 2u : 0u);
}

void
MemoryController::sharedInputsChanged()
{
    dirtyAllWakes();
    joinPending = true;
}

void
MemoryController::routeBits(double bits, Cycle now)
{
    const unsigned gate = fillGate();
    while (bits > 0.0 && !rngJobs.empty()) {
        RngJob &job = rngJobs.front();
        const double need = 64.0 - job.bitsCollected;
        const double take = std::min(need, bits);
        job.bitsCollected += take;
        bits -= take;
        if (job.done()) {
            statistics.rngJobsCompleted++;
            statistics.sumRngLatency += now - job.arrival;
            if (onComplete)
                onComplete(job.core, job.token, ReqType::Rng, job.path);
            if (rngJobs.size() == 1 ||
                (rngPolicy && !rngPolicy->uniformPriority())) {
                // An empty queue, or a new front job under mixed
                // priorities, changes every channel's arbitration; the
                // stall counters settle under the old state first.
                catchUpAll(now);
                sharedInputsChanged();
            }
            rngJobs.pop_front();
        }
    }
    if (bits > 0.0 && buf)
        bits -= buf->deposit(bits);
    if (bits > 0.0) {
        stagingBits = std::min(stagingBits + bits,
                               std::max(mech.bitsPerRound,
                                        fillMech.bitsPerRound));
    }
    if (fillGate() != gate)
        sharedInputsChanged();
}

bool
MemoryController::fillMember(unsigned ch) const
{
    return engines[ch]->active() && !engines[ch]->parked() &&
           !perChan[ch].demandSession;
}

bool
MemoryController::fillSetShared() const
{
    return fillMode == FillMode::Engine && buf &&
           cfg.fillChannelLimit != 0;
}

bool
MemoryController::fillSessionActive() const
{
    if (cfg.fillChannelLimit == 0)
        return false; // Unlimited concurrent fill channels.
    unsigned active = 0;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        if (fillMember(ch) && ++active >= cfg.fillChannelLimit)
            return true;
    }
    return false;
}

void
MemoryController::manageEngine(unsigned ch, Cycle now)
{
    trng::RngEngine &eng = *engines[ch];
    ChannelState &cs = perChan[ch];
    dram::DramChannel &chan = chans[ch];

    const unsigned occ = occupancy(cs);
    const bool want_demand =
        !rngJobs.empty() && choiceNow[ch] == QueueChoice::Rng;
    const bool fill_capable =
        fillMode == FillMode::Engine && buf && !buf->full();

    if (eng.idle()) {
        cs.lowUtilSession = false;
        cs.demandSession = false;
        if (chan.refreshBusy(now))
            return;
        if (want_demand) {
            eng.start(now, trng::RngEngine::SessionKind::Demand);
            cs.demandSession = true;
            return;
        }
        if (!fill_capable || fillSessionActive())
            return; // Fill uses one selected channel at a time (5.1.1).
        if (occ == 0 && cs.idleActive) {
            // Predict once per idle period; sessions may restart within
            // the same period while the prediction holds.
            if (!cs.predictionCached) {
                cs.predictedLong = std::visit(
                    [&](auto &p) { return p.predictLong(cs.lastAddr); },
                    predictors[ch]);
                cs.predictionCached = true;
            }
            if (cs.predictedLong)
                eng.start(now, trng::RngEngine::SessionKind::Fill);
        } else if (lowUtilBound > 0 && occ < lowUtilBound &&
                   now >= cs.lowUtilNextAllowed &&
                   buf->levelBits() < 0.5 * buf->capacityBits()) {
            // Low-utilization extension: short generation bursts while
            // the queue stays below the threshold and the buffer is
            // running low, gated by the trained predictor and
            // rate-limited so the few queued requests are stalled only
            // briefly between bursts (Section 5.1.2: "the predictor
            // stalls only a small number of requests").
            cs.lowUtilNextAllowed = now + 6 * periodThreshold;
            const bool fill_now = std::visit(
                [&](const auto &p) { return p.peekLong(cs.lastAddr); },
                predictors[ch]);
            if (fill_now) {
                eng.start(now, trng::RngEngine::SessionKind::Fill);
                cs.lowUtilSession = true;
            }
        }
        return;
    }

    // Engine active: keep generating for pending demand, or keep filling
    // while the channel is strictly idle; otherwise wind down after the
    // current round (rounds cannot abort mid-flight because non-standard
    // timing parameters are in effect). Refinements:
    //  - A fill session still swapping timing parameters when a request
    //    arrives aborts outright — the mispredicted session yields
    //    nothing (low-utilization sessions start with requests queued,
    //    so they are exempt and commit to one round).
    //  - A demand session with no regular work waiting parks in RNG mode
    //    so the RNG application's next request (typically a handful of
    //    cycles away) resumes generation without another switch-in.
    const bool continue_fill = fill_capable && occ == 0;
    if (want_demand || continue_fill) {
        eng.cancelStop();
        if (eng.parked()) {
            // A hybrid engine parked in demand mode cannot fill without
            // re-switching mechanisms; wind it down instead.
            if (want_demand ||
                eng.canResumeAs(trng::RngEngine::SessionKind::Fill)) {
                eng.resume(now);
            } else {
                eng.requestStop();
            }
        }
        if (want_demand)
            cs.demandSession = true;
    } else if (cfg.enableFillAbort && eng.switchingIn() &&
               !cs.lowUtilSession && !cs.demandSession) {
        eng.abortSwitchIn(now);
    } else if (cfg.rngAwareQueueing && cfg.enableParking &&
               cs.demandSession && occ == 0 && !chan.refreshBusy(now)) {
        // Only the RNG-aware designs batch: they keep the channel in RNG
        // mode awaiting the next request burst (Section 2: interleaving
        // RNG and regular requests costs a timing-parameter swap each
        // way). The RNG-oblivious baseline switches back immediately.
        eng.requestPark();
    } else {
        eng.requestStop();
    }
}

void
MemoryController::serveChannel(unsigned ch, Cycle now)
{
    ChannelState &cs = perChan[ch];
    dram::DramChannel &chan = chans[ch];

    if (engines[ch]->active() || chan.refreshBusy(now) ||
        chan.rngBusy(now)) {
        return;
    }

    // A powered-down rank must wake before serving queued work.
    if (chan.poweredDown()) {
        if (!cs.readQ->empty() || !cs.writeQ->empty())
            chan.requestWake(now);
        return;
    }
    // Partially powered-down channel (some ranks asleep, some awake):
    // wake the sleeping ranks whenever work is queued so a request
    // targeting one of them cannot stall indefinitely, then keep serving
    // the awake ranks this cycle. Unreachable with one rank, where
    // any-powered-down implies all-powered-down.
    if (chan.anyRankPoweredDown() &&
        (!cs.readQ->empty() || !cs.writeQ->empty()))
        chan.requestWake(now);

    // Write-drain policy: drain on the high watermark or opportunistically
    // when no reads wait; stop once the low watermark is reached and reads
    // are waiting again.
    const bool reads_waiting = !cs.readQ->empty();
    if (!cs.writeDraining &&
        (cs.writeQ->size() >= kWriteDrainHigh ||
         (!reads_waiting && !cs.writeQ->empty()))) {
        cs.writeDraining = true;
    }
    if (cs.writeDraining &&
        (cs.writeQ->empty() ||
         (cs.writeQ->size() <= kWriteDrainLow && reads_waiting))) {
        cs.writeDraining = false;
    }

    RequestQueue *queue = nullptr;
    Scheduler *sched = nullptr;
    if (cs.writeDraining) {
        queue = cs.writeQ.get();
        sched = &writeSched;
    } else {
        if (!reads_waiting)
            return;
        // When the RNG queue is chosen for this channel, regular reads
        // wait; the engine is being started by manageEngine(). In the
        // RNG-oblivious configuration any pending RNG job stalls all
        // regular traffic (Section 3 baseline).
        if (!rngJobs.empty() && choiceNow[ch] == QueueChoice::Rng)
            return;
        queue = cs.readQ.get();
        sched = readSched.get();
    }

    const SchedContext ctx{*queue, chan, ch, now};
    int pick = kUnknownPick;
    if (fastPath) {
        pick = sched->forcedPick(ctx);
#ifndef NDEBUG
        assert((pick == kUnknownPick || pick == sched->pick(ctx)) &&
               "forcedPick() must agree with pick()");
#endif
    }
    if (pick == kUnknownPick)
        pick = sched->pick(ctx);
    if (pick < 0)
        return;

    Request &req = queue->at(static_cast<std::size_t>(pick));
    const dram::DramCmd cmd = nextCommandFor(req, chan);
    const Cycle done = chan.issue(
        cmd, req.coord.bank, now, static_cast<std::int64_t>(req.coord.row));

    if (cmd == dram::DramCmd::Rd) {
        statistics.readsCompleted++;
        statistics.sumReadLatency += done - req.arrival;
        cs.inflightReads.push_back(req);
        cs.inflightDone.push_back(done);
        sched->onColumnIssued(req, ch);
        if (rngPolicy)
            rngPolicy->noteServed(ch, QueueChoice::Regular);
        queue->erase(static_cast<std::size_t>(pick));
        updateIdleState(ch, now);
    } else if (cmd == dram::DramCmd::Wr) {
        sched->onColumnIssued(req, ch);
        queue->erase(static_cast<std::size_t>(pick));
        updateIdleState(ch, now);
    }
    // ACT/PRE only advance bank state; the request stays queued.
}

void
MemoryController::catchUp(unsigned ch, Cycle to)
{
    ChannelState &cs = perChan[ch];
    if (cs.synced >= to)
        return;
    // Residency sampling happens before the engine tick each cycle, so
    // batch it first (the engine extends the fences afterwards).
    chans[ch].fastForwardState(cs.synced, to);
    engines[ch]->fastForward(cs.synced, to);
    if (rngPolicy)
        rngPolicy->fastForward(ch, *cs.readQ, rngJobs, to - cs.synced);
    cs.synced = to;
}

void
MemoryController::catchUpAll(Cycle to)
{
    for (unsigned ch = 0; ch < chans.size(); ++ch)
        catchUp(ch, to);
}

void
MemoryController::sync()
{
    catchUpAll(clock);
}

void
MemoryController::dirtyAllWakes()
{
    for (ChannelState &cs : perChan)
        cs.wakeDirty = true;
}

void
MemoryController::joinTick(unsigned ch, Cycle now)
{
    catchUp(ch, now);
    chans[ch].tickRefresh(now);
    chans[ch].sampleState(now);
    if (dueNow[ch] == kPhaseEnd) {
        // endProducerPhase() already ran this cycle's phase end.
        engines[ch]->fastForward(now, now + 1);
    } else {
        [[maybe_unused]] const double bits = engines[ch]->tick(now);
        assert(bits == 0.0 && "a channel that was not due produced bits");
    }
    dueNow[ch] = kDue;
}

void
MemoryController::joinFrom(unsigned first, Cycle now, bool choose)
{
    // dueList stays in channel order: keep the due channels below
    // `first`, then every channel from `first` on.
    while (!dueList.empty() && dueList.back() >= first)
        dueList.pop_back();
    for (unsigned ch = first; ch < chans.size(); ++ch) {
        if (dueNow[ch] != kDue) {
            joinTick(ch, now);
            if (choose)
                choiceNow[ch] = chooseQueue(ch);
        }
        dueList.push_back(ch);
    }
}

void
MemoryController::tick(Cycle now)
{
    readSched->tick(now);

    // Which channels run their phases this cycle, in channel order. A
    // channel that is not due would only do per-cycle bookkeeping,
    // which it defers to its next catchUp(). Off the fast path every
    // channel is due.
    dueList.clear();
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        std::uint8_t due = kDue;
        if (fastPath) {
            refreshWake(ch);
            const ChannelState &cs = perChan[ch];
            due = tickWake(ch) <= now ? kDue
                  : cs.producing &&
                          engines[ch]->phaseEndCycle() - 1 <= now
                      ? kPhaseEnd
                      : kIdle;
        }
        dueNow[ch] = due;
        if (due == kDue)
            dueList.push_back(ch);
    }

    // 1. Refresh housekeeping and residency sampling, then deliver
    //    completed reads and buffer-served RNG requests. (One channel's
    //    housekeeping never affects another's delivery.)
    for (const unsigned ch : dueList) {
        catchUp(ch, now);
        chans[ch].tickRefresh(now);
        chans[ch].sampleState(now);
        ChannelState &cs = perChan[ch];
        while (!cs.inflightDone.empty() && cs.inflightDone.front() <= now) {
            const Request &req = cs.inflightReads.front();
            if (onComplete)
                onComplete(req.core, req.token, ReqType::Read,
                           ServePath::Dram);
            cs.inflightReads.pop_front();
            cs.inflightDone.pop_front();
        }
    }
    while (!pendingBufferServeDone.empty() &&
           pendingBufferServeDone.front() <= now) {
        const RngJob &job = pendingBufferServes.front();
        if (onComplete)
            onComplete(job.core, job.token, ReqType::Rng, job.path);
        pendingBufferServes.pop_front();
        pendingBufferServeDone.pop_front();
    }

    // 2. Advance RNG-mode engines; route any bits a finished round
    //    yields. With fault injection active, each round is audited by
    //    the fault plane first: a failing round's bits are discarded
    //    (and the health monitor reacts), which also withholds the
    //    round's noteServed — fault pressure surfaces as RNG stall.
    //    A producer with nothing else due only ends its phase. A new
    //    front job, a buffer crossing an engine-fill gate, or a change
    //    to the fill-session set alters every channel's inputs, so all
    //    of them then run the rest of this cycle.
    joinPending = false;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        if (dueNow[ch] == kPhaseEnd) {
            endProducerPhase(ch, now);
            continue;
        }
        if (dueNow[ch] == kIdle)
            continue;
        const bool member = fillMember(ch);
        const double bits = engines[ch]->tick(now);
        if (bits > 0.0) {
            if (!faultPlane ||
                faultPlane->onRound(ch, !rngJobs.empty())) {
                routeBits(bits, now);
                if (rngPolicy)
                    rngPolicy->noteServed(ch, QueueChoice::Rng);
            }
        }
        if (fillSetShared() && fillMember(ch) != member)
            sharedInputsChanged();
    }
    if (joinPending)
        joinFrom(0, now, /*choose=*/false);

    // 3. Greedy-oracle fill: once a contiguous idle stretch reaches the
    //    Period Threshold, deposit one round's bits at zero cost, then
    //    one more round per round-latency of continued idleness. Like
    //    DR-STRaNGe's engine fill, the oracle uses one selected channel
    //    at a time (the lowest-numbered idle one).
    if (fillMode == FillMode::GreedyOracle && buf) {
        bool selected = false;
        for (unsigned ch = 0; ch < chans.size(); ++ch) {
            ChannelState &cs = perChan[ch];
            const bool eligible = occupancy(cs) == 0 &&
                                  engines[ch]->idle() &&
                                  !chans[ch].refreshBusy(now);
            if (!eligible) {
                cs.greedyIdleCredit = 0;
            } else if (!selected) {
                selected = true;
                cs.greedyIdleCredit++;
                if (cs.greedyIdleCredit >= periodThreshold &&
                    (cs.greedyIdleCredit - periodThreshold) %
                            fillMech.roundLatency ==
                        0 &&
                    !buf->full())
                    buf->deposit(fillMech.bitsPerRound);
            }
            // Other idle channels keep their accrued credit paused.
        }
    }

    // 4. Arbitrate queues, start/stop RNG mode, then issue regular DRAM
    //    commands. A change to the fill-session set is seen by the
    //    engine management of every later channel this same cycle.
    for (const unsigned ch : dueList)
        choiceNow[ch] = chooseQueue(ch);
    for (std::size_t i = 0; i < dueList.size(); ++i) {
        const unsigned ch = dueList[i];
        const bool member = fillMember(ch);
        manageEngine(ch, now);
        if (fillSetShared() && fillMember(ch) != member) {
            dirtyAllWakes();
            joinFrom(ch + 1, now, /*choose=*/true);
        }
    }
    for (const unsigned ch : dueList)
        serveChannel(ch, now);

    for (const unsigned ch : dueList) {
        ChannelState &cs = perChan[ch];
        cs.synced = now + 1;
        // Due only for a read delivery, with no shared change this
        // cycle: the base wake stands.
        if (fastPath && !cs.wakeDirty && cs.baseWake > now &&
            !(cs.regularPrio && cs.producing))
            cs.producing = isProducer(*engines[ch]);
        else
            cs.wakeDirty = true;
    }
    channelTickCount += dueList.size();
    clock = now + 1;
}

QueueChoice
MemoryController::chooseQueue(unsigned ch)
{
    // RNG-oblivious: pending RNG work preempts every channel (the same
    // pure arbitration the fast-forward horizon previews).
    if (!cfg.rngAwareQueueing)
        return peekChoice(ch);
    return rngPolicy->choose(ch, *perChan[ch].readQ, rngJobs);
}

QueueChoice
MemoryController::peekChoice(unsigned ch) const
{
    if (!cfg.rngAwareQueueing) {
        return !rngJobs.empty()          ? QueueChoice::Rng
               : !perChan[ch].readQ->empty() ? QueueChoice::Regular
                                             : QueueChoice::None;
    }
    return rngPolicy->peek(ch, *perChan[ch].readQ, rngJobs);
}

Cycle
MemoryController::manageEngineEventCycle(unsigned ch, Cycle now,
                                         QueueChoice choice) const
{
    const ChannelState &cs = perChan[ch];
    const trng::RngEngine &eng = *engines[ch];
    const dram::DramChannel &chan = chans[ch];
    const unsigned occ = occupancy(cs);
    const bool want_demand =
        !rngJobs.empty() && choice == QueueChoice::Rng;
    const bool fill_capable =
        fillMode == FillMode::Engine && buf && !buf->full();

    if (eng.idle()) {
        if (cs.lowUtilSession || cs.demandSession)
            return now; // The session flags are cleared this cycle.
        if (chan.refreshBusy(now))
            return kNoEvent; // Blocked; refresh edges are channel events.
        if (want_demand)
            return now; // A demand session starts this cycle.
        if (!fill_capable || fillSessionActive())
            return kNoEvent;
        if (occ == 0 && cs.idleActive) {
            if (!cs.predictionCached)
                return now; // predictLong() scores a prediction.
            return cs.predictedLong ? now : kNoEvent;
        }
        // Low-utilization territory: the trigger mutates its rate
        // limiter whenever it fires; its earliest firing cycle is the
        // rate limiter itself (every other condition is static over a
        // quiescent span).
        if (lowUtilBound > 0 && occ < lowUtilBound) {
            if (buf->levelBits() >= 0.5 * buf->capacityBits())
                return kNoEvent;
            return std::max(now, cs.lowUtilNextAllowed);
        }
        return kNoEvent;
    }

    const bool continue_fill = fill_capable && occ == 0;
    if (want_demand || continue_fill) {
        if (!eng.windNone())
            return now; // cancelStop() clears the pending wind.
        if (eng.parked())
            return now; // resume()/requestStop() this cycle.
        if (want_demand && !cs.demandSession)
            return now;
        return kNoEvent;
    }
    if (cfg.enableFillAbort && eng.switchingIn() && !cs.lowUtilSession &&
        !cs.demandSession)
        return now; // abortSwitchIn() fires this cycle.
    if (cfg.rngAwareQueueing && cfg.enableParking && cs.demandSession &&
        occ == 0 && !chan.refreshBusy(now)) {
        // requestPark() is a no-op only when already requested.
        return eng.parkRequested() ? kNoEvent : now;
    }
    return eng.stopRequested() ? kNoEvent : now; // requestStop() likewise.
}

Cycle
MemoryController::nextIssueCycle(const RequestQueue &queue, unsigned ch,
                                 Cycle now) const
{
    // Work-conserving schedulers issue on the first cycle any request's
    // next command is legal; with nothing issuable before that, queue
    // and bank state are static and pick() stays kNoPick.
    const dram::DramChannel &chan = chans[ch];
    Cycle earliest = kNoEvent;
    for (const Request &req : queue.all()) {
        const dram::DramCmd cmd = nextCommandFor(req, chan);
        earliest = std::min(earliest,
                            chan.earliestIssueCycle(cmd, req.coord.bank));
        if (earliest <= now)
            return now;
    }
    return earliest;
}

Cycle
MemoryController::serveChannelEventCycle(unsigned ch, Cycle now,
                                         QueueChoice choice) const
{
    const ChannelState &cs = perChan[ch];
    const dram::DramChannel &chan = chans[ch];

    // serveChannel() early-outs before touching any state; the engine,
    // refresh, and RNG-fence edges are tracked as their own events.
    if (engines[ch]->active() || chan.refreshBusy(now) ||
        chan.rngBusy(now)) {
        return kNoEvent;
    }
    if (chan.poweredDown()) {
        return cs.readQ->empty() && cs.writeQ->empty() ? kNoEvent
                                                       : now; // Wakes.
    }
    // Partially powered-down with queued work: serveChannel() issues a
    // wake this cycle (never taken with one rank).
    if (chan.anyRankPoweredDown() &&
        !(cs.readQ->empty() && cs.writeQ->empty()))
        return now;

    const bool reads_waiting = !cs.readQ->empty();
    if (!cs.writeDraining &&
        (cs.writeQ->size() >= kWriteDrainHigh ||
         (!reads_waiting && !cs.writeQ->empty())))
        return now; // Write drain starts this cycle.
    if (cs.writeDraining &&
        (cs.writeQ->empty() ||
         (cs.writeQ->size() <= kWriteDrainLow && reads_waiting)))
        return now; // Write drain stops this cycle.
    if (cs.writeDraining)
        return nextIssueCycle(*cs.writeQ, ch, now);
    if (!reads_waiting)
        return kNoEvent;
    // Reads wait while the RNG queue owns the channel.
    if (!rngJobs.empty() && choice == QueueChoice::Rng)
        return kNoEvent;
    return nextIssueCycle(*cs.readQ, ch, now);
}

Cycle
MemoryController::greedyNextEventCycle(Cycle now) const
{
    Cycle ev = kNoEvent;
    bool selected = false;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const ChannelState &cs = perChan[ch];
        const bool eligible = occupancy(cs) == 0 && engines[ch]->idle() &&
                              !chans[ch].refreshBusy(now);
        if (!eligible) {
            if (cs.greedyIdleCredit != 0)
                return now; // The credit resets this cycle.
        } else if (!selected) {
            selected = true;
            if (!buf->full()) {
                // Credit at the tick of cycle T is credit + (T - now) + 1;
                // a deposit fires when it reaches periodThreshold plus a
                // multiple of the fill round latency.
                const Cycle thr = periodThreshold;
                const Cycle rl = fillMech.roundLatency;
                const Cycle c1 = cs.greedyIdleCredit + 1;
                Cycle v = thr;
                if (c1 >= thr) {
                    const Cycle rem = (c1 - thr) % rl;
                    v = rem == 0 ? c1 : c1 + (rl - rem);
                }
                ev = std::min(ev, now + (v - c1));
            }
        }
        // Non-selected eligible channels keep their credit paused.
    }
    return ev;
}

namespace {

/** Index of the earliest producer whose next round lands before
 *  @p limit (ties go to the lower channel, the tick order), or
 *  producers.size() when none does. */
std::size_t
earliestBefore(std::span<const MemoryController::Producer> producers,
               Cycle limit)
{
    std::size_t best = producers.size();
    for (std::size_t i = 0; i < producers.size(); ++i) {
        if (producers[i].next < limit &&
            (best == producers.size() ||
             producers[i].next < producers[best].next))
            best = i;
    }
    return best;
}

} // namespace

void
MemoryController::collectProducers() const
{
    producerScratch.clear();
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        const trng::RngEngine &eng = *engines[ch];
        // A generating engine with no pending stop/park (and, per the
        // stability checks, no management change coming) completes a
        // round every roundLatency cycles; a switching-in engine's
        // first round lands one switch phase later. A stopping engine
        // completes exactly one more round before switching out.
        if (!isProducer(eng))
            continue;
        const bool stopping = eng.stopRequested();
        const trng::TrngMechanism &m = eng.mechanism();
        Producer p;
        p.period = m.roundLatency;
        p.bits = m.bitsPerRound;
        p.ch = ch;
        p.oneShot = stopping;
        const Cycle end = eng.phaseEndCycle();
        p.next = (eng.switchingIn() ? end + m.roundLatency : end) - 1;
        producerScratch.push_back(p);
    }
}

Cycle
MemoryController::thresholdCycle(std::span<const Producer> producers,
                                 double need, Cycle bound)
{
    const double target = need - 1e-9 * 64.0;
    const auto delivered = [&](Cycle t) {
        double sum = 0.0;
        for (const Producer &p : producers) {
            if (t < p.next)
                continue;
            const Cycle rounds = p.oneShot ? 1 : (t - p.next) / p.period + 1;
            sum += p.bits * static_cast<double>(rounds);
        }
        return sum;
    };

    // Search [first completion, hi): hi is one past the tick where a
    // periodic producer alone reaches the target, its ceil(target /
    // bits) + 1-th round (exact in a double below 2^53).
    Cycle lo = kNoEvent;
    Cycle cap = kNoEvent;
    for (const Producer &p : producers) {
        lo = std::min(lo, p.next);
        if (p.oneShot || p.bits <= 0.0)
            continue;
        const double rounds = std::max(0.0, std::ceil(target / p.bits));
        const double end = static_cast<double>(p.next) +
                           rounds * static_cast<double>(p.period);
        if (end < 0x1p53)
            cap = std::min(cap, static_cast<Cycle>(end) + 1);
    }
    const Cycle hi = std::min(bound, cap);
    if (lo >= hi || delivered(hi - 1) < target)
        return kNoEvent;
    Cycle first = hi - 1; // Invariant: delivered(first) >= target.
    while (lo < first) {
        const Cycle mid = lo + (first - lo) / 2;
        if (delivered(mid) >= target)
            first = mid;
        else
            lo = mid + 1;
    }
    return first;
}

Cycle
MemoryController::productionEventCycle(Cycle bound) const
{
    if (producerScratch.empty())
        return kNoEvent;

    // Bits are taken by the front job first, then by the buffer.
    Cycle event = kNoEvent;
    if (!rngJobs.empty()) {
        event = thresholdCycle(producerScratch,
                               64.0 - rngJobs.front().bitsCollected, bound);
    } else if (buf) {
        // The deposit that fills the buffer flips fill_capable and is
        // therefore an event. The buffer's own partition arithmetic may
        // differ from whole-round sums in the last ulps, so trigger one
        // round early and let normal ticks handle the exact crossing.
        double max_bits = 0.0;
        for (const Producer &p : producerScratch)
            max_bits = std::max(max_bits, p.bits);
        event = thresholdCycle(
            producerScratch,
            buf->capacityBits() - buf->levelBits() - max_bits, bound);
    }
    if (!faultPlane)
        return event;

    // A round whose audit fails delivers nothing and mutates the
    // health monitor — always a span-ending event. Peek the rounds
    // before the threshold event in tick order; the peeked-and-passed
    // rounds are exactly what fastForward() later commits.
    const Cycle limit = std::min(event, bound);
    if (limit == kNoEvent) {
        // Nothing else ends the span: stop at the first round rather
        // than peek an unbounded stream.
        return producerScratch[earliestBefore(producerScratch, kNoEvent)]
            .next;
    }
    faultPlane->beginPeek();
    for (std::size_t i; (i = earliestBefore(producerScratch, limit)) <
                        producerScratch.size();) {
        Producer &p = producerScratch[i];
        if (!faultPlane->peekRound(p.ch))
            return p.next;
        p.next = p.oneShot ? kNoEvent : p.next + p.period;
    }
    return event;
}

MemoryController::Wake
MemoryController::computeWake(unsigned ch) const
{
    // Evaluated at `synced`, the first cycle whose bookkeeping the
    // channel has not applied: its residency branch, engine counters
    // and stall counters all stand as of that cycle. A wake at or below
    // the current cycle means "due now".
    const ChannelState &cs = perChan[ch];
    const trng::RngEngine &eng = *engines[ch];
    const Cycle at = cs.synced;
    const Wake due{at, false, false};

    Cycle ev = chans[ch].nextEventCycle(at, eng.active());
    if (ev <= at)
        return due;

    Wake w;
    QueueChoice choice;
    if (cfg.rngAwareQueueing) {
        // One queue scan yields the choice, the stall-limit flip event,
        // and the counter-direction flag together.
        const RngAwarePolicy::Arbitration arb =
            rngPolicy->arbitration(ch, *cs.readQ, rngJobs, at);
        choice = arb.choice;
        ev = std::min(ev, arb.flipAt);
        w.regularPrio = arb.regularPrioritized;
    } else {
        choice = peekChoice(ch);
    }
    ev = std::min(ev, manageEngineEventCycle(ch, at, choice));
    ev = std::min(ev, serveChannelEventCycle(ch, at, choice));
    if (ev <= at)
        return due;

    // Steadily-generating engines advance through whole rounds inside
    // a span, and a stopping engine through its final round (their
    // completions are batched; the switch-out end is the bounding
    // event). Any other engine phase boundary ends the span. A tick
    // ends a producer's phases through endProducerPhase().
    w.producing = isProducer(eng);
    if (!w.producing)
        ev = std::min(ev, eng.nextEventCycle(at));
    else if (eng.stopRequested())
        ev = std::min(ev, eng.phaseEndCycle() +
                              eng.mechanism().switchOutLatency - 1);
    if (ev <= at)
        return due;
    w.base = ev;
    return w;
}

Cycle
MemoryController::tickWake(unsigned ch) const
{
    const ChannelState &cs = perChan[ch];
    Cycle wake = cs.baseWake;
    if (!cs.inflightDone.empty())
        wake = std::min(wake, cs.inflightDone.front());
    // A round completion resets the RNG stall counter, which charges
    // while regular traffic is prioritized.
    if (cs.producing && cs.regularPrio)
        wake = std::min(wake, engines[ch]->phaseEndCycle() - 1);
    return wake;
}

void
MemoryController::endProducerPhase(unsigned ch, Cycle now)
{
    // The engine tick at a phase end, minus its per-cycle bookkeeping
    // (which stays deferred: the engine keeps generating).
    trng::RngEngine &eng = *engines[ch];
    const bool round_end = eng.inRound();
    if (eng.stopRequested())
        eng.fastForwardFinalRound();
    else
        eng.fastForwardPhases(1);
    if (round_end &&
        (!faultPlane || faultPlane->onRound(ch, !rngJobs.empty()))) {
        routeBits(eng.mechanism().bitsPerRound, now);
        if (rngPolicy)
            rngPolicy->noteServed(ch, QueueChoice::Rng);
    }
    perChan[ch].producing = isProducer(eng);
}

bool
MemoryController::isProducer(const trng::RngEngine &eng)
{
    return ((eng.inRound() || eng.switchingIn()) && eng.windNone()) ||
           (eng.inRound() && eng.stopRequested());
}

void
MemoryController::refreshWake(unsigned ch)
{
    ChannelState &cs = perChan[ch];
    if (!cs.wakeDirty) {
#ifndef NDEBUG
        // A clean base wake that is not yet due must equal a
        // from-scratch recomputation: every change to the channel's
        // inputs should have dirtied it. (A due one may have been
        // overtaken by a catch-up, which only costs an extra tick.)
        if (cs.baseWake > cs.synced) {
            const Wake w = computeWake(ch);
            assert(w.base == cs.baseWake && w.producing == cs.producing &&
                   w.regularPrio == cs.regularPrio &&
                   "stale cached wake cycle");
        }
#endif
        return;
    }
    const Wake w = computeWake(ch);
    cs.baseWake = w.base;
    cs.producing = w.producing;
    cs.regularPrio = w.regularPrio;
    cs.wakeDirty = false;
    ++recomputeCount;
}

Cycle
MemoryController::nextEventCycle(Cycle now)
{
    // Every dirty wake is recomputed here, even once the min is known
    // to be `now`, so the tick that follows runs only due channels.
    Cycle ev = kNoEvent;
    bool producing = false;
    bool regular_prio = false;
    for (unsigned ch = 0; ch < chans.size(); ++ch) {
        refreshWake(ch);
        const ChannelState &cs = perChan[ch];
        // Read deliveries end a span; producer phase ends are batched.
        ev = std::min(ev, cs.baseWake);
        if (!cs.inflightDone.empty())
            ev = std::min(ev, cs.inflightDone.front());
        producing = producing || cs.producing;
        regular_prio = regular_prio || cs.regularPrio;
    }

    // Intra-queue scheduler housekeeping (BLISS clearing interval; a
    // custom scheduler without a nextEventCycle() override reports
    // per-cycle work and disables skipping).
    ev = std::min(ev, readSched->nextEventCycle(now));
    if (!pendingBufferServeDone.empty())
        ev = std::min(ev, pendingBufferServeDone.front());
    // A one-cycle span is not worth a skip: report it as `now` without
    // deriving the global horizons.
    if (ev <= now + 1)
        return now;

    if (producing) {
        collectProducers();
        if (regular_prio) {
            // Every round completion resets the RNG stall counter;
            // while regular traffic is prioritized that counter is
            // live, so the span must stop at the first completion.
            for (const Producer &p : producerScratch)
                ev = std::min(ev, p.next);
        }
        ev = std::min(ev, productionEventCycle(ev));
        if (ev <= now)
            return now;
    }

    if (fillMode == FillMode::GreedyOracle && buf)
        ev = std::min(ev, greedyNextEventCycle(now));

    return ev;
}

void
MemoryController::fastForward(Cycle from, Cycle to)
{
    assert(to > from);
    const Cycle span = to - from;
    // Per-channel bookkeeping stays deferred across the span: the
    // replayed phase ends below keep every engine generating, so the
    // residency branch, the engine's cycle counter and the charging
    // stall counter are the same before and after them.

    // Replay the span's engine phase completions in exact per-cycle
    // order (time, then channel index — the tick loop's order), routing
    // each completed round's bits through the normal path. The horizon
    // guarantees none of these completes the front job or fills the
    // buffer.
    collectProducers();
    if (!producerScratch.empty()) {
        // Switching-in engines also complete their (bit-less) switch
        // phase inside the span; start their stream at that transition.
        for (Producer &p : producerScratch) {
            if (engines[p.ch]->switchingIn())
                p.next = engines[p.ch]->phaseEndCycle() - 1;
        }
        for (std::size_t i;
             (i = earliestBefore(producerScratch, to)) <
             producerScratch.size();) {
            Producer &p = producerScratch[i];
            trng::RngEngine &eng = *engines[p.ch];
            const bool round_end = eng.inRound();

            if (p.oneShot)
                eng.fastForwardFinalRound();
            else
                eng.fastForwardPhases(1);
            if (round_end) {
                // The horizon only spans peeked-and-passed rounds, so
                // the commit mirrors the tick path's pass branch.
                if (faultPlane)
                    faultPlane->commitRound(p.ch);
#ifndef NDEBUG
                const std::size_t jobs_before = rngJobs.size();
#endif
                routeBits(p.bits, p.next);
                assert(rngJobs.size() == jobs_before &&
                       "fast-forwarded round must not complete a job");
                if (rngPolicy)
                    rngPolicy->noteServed(p.ch, QueueChoice::Rng);
            }
            p.next = p.oneShot ? kNoEvent : p.next + p.period;
        }
        // Only the producers' phase ends moved, which their base wakes
        // exclude; a stopping one's switch-out end is already in it.
        for (const Producer &p : producerScratch)
            perChan[p.ch].producing = isProducer(*engines[p.ch]);
    }

    if (fillMode == FillMode::GreedyOracle && buf) {
        for (unsigned ch = 0; ch < chans.size(); ++ch) {
            ChannelState &cs = perChan[ch];
            const bool eligible = occupancy(cs) == 0 &&
                                  engines[ch]->idle() &&
                                  !chans[ch].refreshBusy(from);
            if (eligible) {
                // Only the selected (first eligible) channel accrues.
                cs.greedyIdleCredit += span;
                break;
            }
        }
    }
    clock = to;
}

std::optional<strange::PredictorStats>
MemoryController::predictorStats() const
{
    strange::PredictorStats agg;
    bool any = false;
    for (const Predictor &p : predictors) {
        if (std::holds_alternative<strange::NoIdlenessPredictor>(p))
            continue;
        any = true;
        const strange::PredictorStats &s =
            std::visit([](const auto &q) -> const strange::PredictorStats & {
                return q.stats();
            }, p);
        agg.predictions += s.predictions;
        agg.correct += s.correct;
        agg.falsePositives += s.falsePositives;
        agg.falseNegatives += s.falseNegatives;
    }
    if (!any)
        return std::nullopt;
    return agg;
}

Cycle
MemoryController::rngOccupiedCycles() const
{
    Cycle total = 0;
    for (const auto &eng : engines)
        total += eng->totalOccupiedCycles();
    return total;
}

std::optional<fault::FaultReport>
MemoryController::faultReport() const
{
    if (faultPlane)
        return faultPlane->report();
    if (!cfg.fault.enabled())
        return std::nullopt;
    return fault::FaultReport::headerFrom(cfg.fault);
}

bool
MemoryController::hasWorkForPort(CoreId first) const
{
    for (const RngJob &j : rngJobs)
        if (j.core >= first)
            return true;
    for (const RngJob &j : pendingBufferServes)
        if (j.core >= first)
            return true;
    for (const ChannelState &cs : perChan) {
        for (const Request &r : cs.inflightReads)
            if (r.core >= first)
                return true;
        for (const Request &r : cs.readQ->all())
            if (r.core >= first)
                return true;
        for (const Request &r : cs.writeQ->all())
            if (r.core >= first)
                return true;
    }
    return false;
}

bool
MemoryController::busy() const
{
    if (!rngJobs.empty() || !pendingBufferServes.empty())
        return true;
    for (const ChannelState &cs : perChan) {
        if (!cs.readQ->empty() || !cs.writeQ->empty() ||
            !cs.inflightReads.empty()) {
            return true;
        }
    }
    for (const auto &eng : engines)
        if (eng->active())
            return true;
    return false;
}

} // namespace dstrange::mem
