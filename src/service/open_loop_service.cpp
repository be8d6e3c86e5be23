#include "service/open_loop_service.h"

#include <algorithm>

#include "common/rng.h"

namespace dstrange::service {

namespace {

ArrivalParams
arrivalParams(const ServiceConfig &cfg, std::uint64_t seed)
{
    ArrivalParams params;
    params.meanGapCycles = OpenLoopService::meanGapCycles(cfg.offeredMbps);
    params.clients = cfg.clients;
    params.burstFactor = cfg.burstFactor;
    params.periodCycles = cfg.periodCycles;
    params.seed = mix64(seed ^ 0x5e21c0deull);
    return params;
}

std::uint64_t
shedLimitOf(const ServiceConfig &cfg)
{
    if (cfg.shedLimit != 0)
        return cfg.shedLimit;
    // Auto limit: the arrivals that fit inside one SLO window at the
    // offered rate — a deeper backlog guarantees the newcomer misses
    // the SLO, so shedding it loses no goodput.
    const double per_window = static_cast<double>(cfg.sloTargetCycles) /
                              OpenLoopService::meanGapCycles(cfg.offeredMbps);
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(per_window));
}

} // namespace

OpenLoopService::OpenLoopService(const ServiceConfig &config, CoreId port,
                                 mem::MemoryController &controller,
                                 std::uint64_t seed)
    : cfg(config), portId(port), mc(controller),
      arrival(cfg.arrival, arrivalParams(cfg, seed)),
      resolvedShedLimit(shedLimitOf(cfg)),
      // Distinct salt: shedding never correlates with arrival randomness.
      shedPolicy(cfg.shed, {mix64(seed ^ 0x5ed9a7c3ull), resolvedShedLimit})
{
}

void
OpenLoopService::tick(Cycle now)
{
    // 1. Generate every arrival due at or before this cycle. Arrival
    // streams are monotone, so the first arrival at or past the window
    // close ends generation for good.
    if (!doneGenerating) {
        if (now >= cfg.durationCycles) {
            doneGenerating = true;
        } else {
            for (;;) {
                const Cycle a = arrival.peek();
                if (a == kNoEvent || a > now)
                    break;
                if (a >= cfg.durationCycles) {
                    doneGenerating = true;
                    break;
                }
                arrival.pop();
                statistics.offered++;
                // Admission control: a shed arrival is counted offered
                // but never queued (its closed-loop slot, if any, is
                // released immediately). Decisions depend only on the
                // seeded policy, the arrival ordinal, and the backlog
                // depth — all deterministic at generation ticks, which
                // are span-ending events already.
                if (shedPolicy.admit(arrivalIndex++, backlog.size())) {
                    backlog.push_back(a);
                } else {
                    statistics.shed++;
                    arrival.onCompletion(now);
                }
            }
        }
    }

    // 2. Drain the backlog into the controller, oldest first. A false
    // return means the RNG queue is full: stop and retry next cycle
    // (the request keeps its logical arrival time, so queueing delay
    // counts against the latency SLO).
    while (!backlog.empty()) {
        mem::Request req;
        req.type = mem::ReqType::Rng;
        req.core = portId;
        req.token = nextToken;
        if (!mc.enqueue(req, now))
            break;
        inflight.emplace(nextToken, backlog.front());
        ++nextToken;
        backlog.pop_front();
        statistics.issued++;
    }
    statistics.maxBacklog =
        std::max(statistics.maxBacklog,
                 static_cast<std::uint64_t>(backlog.size()));
}

Cycle
OpenLoopService::nextEventCycle(Cycle now) const
{
    // A backlog retries every cycle the controller can accept. While it
    // cannot, the RNG queue is full (its capacity is at least one) and
    // every retry is a no-op: engine bits go to the front job, so
    // acceptance changes only when that job completes or a greedy
    // deposit lands — controller events that end any span.
    if (!backlog.empty() && mc.acceptsRng(portId))
        return now;
    if (doneGenerating)
        return kNoEvent;
    // The window close is always an event — the tick there flips
    // doneGenerating, which the stop condition reads — so the horizon
    // never extends past it even when the next arrival (or kNoEvent,
    // e.g. closed-loop with all clients in flight) lies beyond.
    const Cycle horizon = std::min(arrival.peek(), cfg.durationCycles);
    return horizon <= now ? now : horizon;
}

void
OpenLoopService::fastForward(Cycle from, Cycle to)
{
    (void)from;
    (void)to;
}

void
OpenLoopService::onCompletion(std::uint64_t token, Cycle now,
                              mem::ServePath path)
{
    const auto it = inflight.find(token);
    if (it == inflight.end())
        return;
    const Cycle latency = now - it->second;
    inflight.erase(it);

    statistics.completed++;
    statistics.lastCompletion = now;
    statistics.latency.record(latency);
    if (latency > cfg.sloTargetCycles)
        statistics.overSlo++;
    switch (path) {
      case mem::ServePath::Buffer:
        statistics.servedBuffer++;
        break;
      case mem::ServePath::Staging:
        statistics.servedStaging++;
        break;
      default:
        statistics.servedEngine++;
        break;
    }
    arrival.onCompletion(now);
}

bool
OpenLoopService::drained() const
{
    return doneGenerating && backlog.empty() && inflight.empty();
}

} // namespace dstrange::service
