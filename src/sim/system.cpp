#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/env_util.h"
#include "trace/trace_reader.h"

namespace dstrange::sim {

System::System(const SimConfig &config,
               std::vector<std::unique_ptr<cpu::TraceSource>> traces)
    : cfg(config), traceOwners(std::move(traces)),
      entropySource(mix64(config.seed) ^ 0xdead)
{
    // A system needs at least one request source: a traced core, the
    // open-loop service port, or a replay tape standing in for both.
    assert(!traceOwners.empty() || cfg.service.enabled ||
           !cfg.traceReplay.empty());

    // In replay mode the tape dictates the port topology; the cores and
    // the service driver of the recorded run are not instantiated — the
    // tape re-issues their accepted requests at the recorded cycles.
    unsigned n_ports = static_cast<unsigned>(traceOwners.size()) +
                       (cfg.service.enabled ? 1u : 0u);
    if (!cfg.traceReplay.empty()) {
        replay = std::make_unique<trace::TraceReplaySource>(
            trace::loadTrace(cfg.traceReplay));
        n_ports = replay->tape().numPorts();
    }

    // The service layer issues on one extra controller port past the
    // last core, so its requests arbitrate like any application's.
    controller = std::make_unique<mem::MemoryController>(cfg, n_ports);
    setFastForward(envFlag("DS_FAST_FORWARD", true));

    if (!replay) {
        cpu::Core::Config core_cfg;
        core_cfg.instrBudget = cfg.instrBudget;
        for (unsigned i = 0; i < traceOwners.size(); ++i) {
            cores.push_back(std::make_unique<cpu::Core>(
                static_cast<CoreId>(i), core_cfg, *traceOwners[i],
                *controller));
        }

        if (cfg.service.enabled) {
            svc = std::make_unique<service::OpenLoopService>(
                cfg.service, static_cast<CoreId>(cores.size()),
                *controller, cfg.seed);
        }
    }

    // In replay mode no issuer waits on completions, so the callback
    // finds neither a core nor the service driver and does nothing.
    controller->setCompletionCallback(
        [this](CoreId core, std::uint64_t token, mem::ReqType,
               mem::ServePath path) {
            if (core < cores.size()) {
                cores[core]->onCompletion(token);
                coreCompletionPending = true;
            } else if (svc) {
                svc->onCompletion(token, now, path);
            }
        });

    if (replay) {
        const auto &ports = replay->tape().header.ports;
        for (unsigned i = 0; i < ports.size(); ++i)
            if (ports[i].hasPriority)
                controller->setPriority(static_cast<CoreId>(i),
                                        ports[i].priority);
    } else {
        for (unsigned i = 0; i < cfg.priorities.size() && i < cores.size();
             ++i)
            controller->setPriority(static_cast<CoreId>(i),
                                    cfg.priorities[i]);
    }

    if (!cfg.traceRecord.empty()) {
        // The record port field is one byte; no simulated topology comes
        // close, but fail loudly rather than wrap silently.
        if (n_ports > 255)
            throw std::runtime_error(
                "trace recording supports at most 255 ports");
        trace::TraceHeader header;
        if (replay) {
            // Re-recording a replay reproduces the original header (and
            // with matching bounds, a byte-identical tape).
            header = replay->tape().header;
        } else {
            for (unsigned i = 0; i < n_ports; ++i) {
                trace::TracePortInfo p;
                p.hasPriority =
                    i < cfg.priorities.size() && i < cores.size();
                p.priority = p.hasPriority ? cfg.priorities[i] : 0;
                header.ports.push_back(p);
            }
            header.servicePort =
                svc ? static_cast<std::int32_t>(n_ports) - 1 : -1;
        }
        recorder =
            std::make_unique<trace::TraceWriter>(cfg.traceRecord, header);
        std::vector<std::int32_t> port_priority;
        for (const trace::TracePortInfo &p : header.ports)
            port_priority.push_back(p.priority);
        controller->setTraceSink(
            [this, port_priority](const mem::Request &req, Cycle at) {
                trace::TraceRecord rec;
                rec.cycle = at;
                rec.addr = req.addr;
                rec.type = trace::reqTypeToByte(req.type);
                rec.port = static_cast<std::uint8_t>(req.core);
                rec.priority = port_priority[req.core];
                recorder->append(rec);
            });
    }
}

bool
System::allFinished() const
{
    for (const auto &core : cores)
        if (!core->finished())
            return false;
    return true;
}

Cycle
System::nextEventCycle() const
{
    // Core horizons are cheap; check them before the controller's
    // deeper analysis so busy-core cycles bail out early.
    Cycle horizon = kNoEvent;
    for (const auto &core : cores) {
        horizon = std::min(horizon, core->nextEventCycle(now));
        if (horizon <= now)
            return now;
    }
    if (svc) {
        horizon = std::min(horizon, svc->nextEventCycle(now));
        if (horizon <= now)
            return now;
    }
    if (replay) {
        // The head record's arrival cycle is the tape's only event; a
        // skip must never jump past a pending enqueue.
        horizon = std::min(horizon, replay->nextEventCycle());
        if (horizon <= now)
            return now;
    }
    horizon = std::min(horizon, controller->nextEventCycle(now));
    return horizon <= now ? now : horizon;
}

Cycle
System::drainBound(Cycle end) const
{
    // Every core must be quiescent past the current cycle. A core's
    // horizon is the first cycle its tick does anything beyond the
    // bookkeeping fastForward() batches — in particular it cannot issue
    // a request before then — so until the earliest core horizon the
    // controller is the only component doing per-cycle work. kNoEvent
    // cores wake only through a completion (watched via
    // coreCompletionPending); future-event cores bound the drain.
    Cycle bound = end;
    for (const auto &core : cores) {
        bound = std::min(bound, core->nextEventCycle(now));
        if (bound <= now)
            return now;
    }

    // The service and replay layers do not tick inside the drain; bound
    // the drain by their next event so skipping their no-op ticks is
    // exact. Neither can have an event appear earlier mid-drain: their
    // state only changes through their own ticks and (for the service)
    // completions, which the in-flight check below excludes.
    if (svc)
        bound = std::min(bound, svc->nextEventCycle(now));
    if (replay)
        bound = std::min(bound, replay->nextEventCycle());
    if (bound <= now)
        return now;

    // RNG completions are delivered from *inside* the controller tick
    // (routeBits), not through a queue front the bound could cover; a
    // service-destined one would mutate service state mid-drain unseen.
    // Refuse while any service work is in flight — no new service work
    // can appear during the drain, since the service only issues in its
    // own tick and the cores are blocked. A backlog refuses too: when
    // it waits on a full RNG queue it resumes as soon as a job of any
    // port completes, which the service would miss mid-drain.
    if (svc && (svc->backlogDepth() > 0 ||
                controller->hasWorkForPort(
                    static_cast<CoreId>(cores.size()))))
        return now;
    return bound;
}

void
System::tickCores()
{
    if (!ffEnabled) {
        for (auto &core : cores)
            core->tickBusCycle(now);
        return;
    }
    // A core reporting kNoEvent *after* the controller tick (so
    // same-cycle completions are visible) only does stall bookkeeping
    // this cycle; the one-cycle fastForward applies it bit-identically
    // without the five per-CPU-cycle ticks.
    for (auto &core : cores) {
        if (core->nextEventCycle(now) == kNoEvent)
            core->fastForward(now, now + 1);
        else
            core->tickBusCycle(now);
    }
}

void
System::advanceUntil(Cycle end, bool stop_when_finished)
{
    // Each iteration takes one of three actions: a span skip, a
    // controller-only tick (while draining), or a full tick. Every
    // iteration probes: the controller's horizon is a min over cached
    // per-channel wake cycles, so a probe costs little even in dense
    // phases.
    //
    // Controller-only drain: when a probe finds no system-wide span but
    // the controller is the only dense component — the command-bound
    // phases of heavy workloads spend most of their cycles here — it
    // ticks alone through [now, drain_end). Meanwhile the cores' state
    // lags at core_from and the service's at drain_from; both catch up
    // analytically when the drain ends.
    bool draining = false;
    Cycle drain_end = 0;
    Cycle drain_from = 0;
    Cycle core_from = 0;
    for (;;) {
        if (draining && now >= drain_end) {
            for (auto &core : cores)
                if (now > core_from)
                    core->fastForward(core_from, now);
            if (svc && now > drain_from)
                svc->fastForward(drain_from, now);
            draining = false;
        }
        if (now >= end)
            break;
        if (!draining && stop_when_finished && allFinished() &&
            (!svc || svc->drained()))
            break;
        if (ffEnabled) {
            // While draining, the cores and the service are quiescent
            // through drain_end, so the controller's (much cheaper)
            // horizon alone bounds a skip — enough to jump intra-burst
            // timing gaps.
            const Cycle to =
                draining
                    ? std::min(controller->nextEventCycle(now), drain_end)
                    : std::min(nextEventCycle(), end);
            if (to > now + 1) {
                // Every ticking component is quiescent through
                // [now, to): batch-apply the span's bookkeeping and jump.
                controller->fastForward(now, to);
                if (!draining) {
                    for (auto &core : cores)
                        core->fastForward(now, to);
                    if (svc)
                        svc->fastForward(now, to);
                }
                ffCounters.skips++;
                ffCounters.skippedCycles += to - now;
                now = to;
                continue;
            }
            if (!draining) {
                drain_end = drainBound(end);
                if (drain_end > now) {
                    draining = true;
                    drain_from = core_from = now;
                    coreCompletionPending = false;
                }
            }
        }

        if (draining) {
            // Bring the lagging cores' bookkeeping up to `now` before the
            // tick: a completion this cycle may wake one, and its wake
            // tick must start from consistent state.
            for (auto &core : cores)
                if (now > core_from)
                    core->fastForward(core_from, now);
            core_from = now;
            controller->tick(now);
            if (coreCompletionPending) {
                coreCompletionPending = false;
                // A completion only moves a core's horizon earlier; the
                // drain continues under the tightened bound unless a
                // core became runnable this very cycle.
                for (const auto &core : cores)
                    drain_end =
                        std::min(drain_end, core->nextEventCycle(now));
            }
            if (now < drain_end) {
                ffCounters.drainTicks++;
                ++now;
                continue;
            }
            // A core woke: finish the cycle as a full tick would. The
            // service/replay ticks it skips are no-ops below the bound
            // (and replay runs without cores, so it never wakes one).
            drain_end = core_from = now + 1;
        } else {
            // The service port issues before the controller tick, so an
            // arrival at cycle t can be buffer-served with its
            // completion scheduled from t — one fixed order keeps runs
            // bit-identical. Replay preserves both enqueue phases:
            // recorded service-port requests land pre-tick, recorded
            // core requests post-tick.
            if (svc)
                svc->tick(now);
            if (replay)
                replay->tickService(now, *controller);
            controller->tick(now);
        }
        tickCores();
        if (replay)
            replay->tickCores(now, *controller);
        ffCounters.steppedCycles++;
        ++now;
    }
    // Channels that were not due defer their bookkeeping; settle it
    // before anyone reads statistics.
    controller->sync();
    ffCounters.channelTicks = controller->channelTicks();
    ffCounters.horizonRecomputes = controller->horizonRecomputes();
}

void
System::step(Cycle cycles)
{
    advanceUntil(now + cycles, /*stop_when_finished=*/false);
}

void
System::run()
{
    if (replay) {
        // The recorded run stopped at endCycle; advancing to exactly
        // that cycle reproduces every controller-side metric. The
        // all-finished early exit must stay off: with no cores, every
        // budget is vacuously retired at cycle 0.
        advanceUntil(std::min(cfg.maxBusCycles, replay->endCycle()),
                     /*stop_when_finished=*/false);
    } else {
        advanceUntil(cfg.maxBusCycles, /*stop_when_finished=*/true);
    }
    if (recorder)
        recorder->finalize(now);
}

} // namespace dstrange::sim
