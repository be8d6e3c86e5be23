/**
 * @file
 * Component microbenchmarks (google-benchmark): per-operation costs of
 * the simulator's hot paths — address decode, scheduler pick, predictor
 * ops, RNG engine ticks, buffer ops, trace generation, and a whole
 * simulated bus cycle.
 */

#include <benchmark/benchmark.h>

#include "drstrange.h"
#include "mem/bliss.h"
#include "mem/fr_fcfs.h"

using namespace dstrange;

static void
BM_AddressDecode(benchmark::State &state)
{
    const dram::AddressMapping mapper{dram::DramGeometry{}};
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.decode(addr));
        addr += 64 * 37;
    }
}
BENCHMARK(BM_AddressDecode);

static void
BM_FrFcfsPick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    mem::RequestQueue q(32);
    Xoshiro256ss gen(1);
    for (unsigned i = 0; i < 32; ++i) {
        mem::Request r;
        r.type = mem::ReqType::Read;
        r.coord = dram::DramCoord{0, static_cast<unsigned>(gen.nextBelow(8)),
                                  static_cast<unsigned>(gen.nextBelow(64)),
                                  0};
        r.seq = i;
        q.push(r);
    }
    mem::FrFcfsScheduler sched(1, 8, 16);
    Cycle now = 1000;
    for (auto _ : state) {
        const mem::SchedContext ctx{q, chan, 0, now++};
        benchmark::DoNotOptimize(sched.pick(ctx));
    }
}
BENCHMARK(BM_FrFcfsPick);

static void
BM_BlissPick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    mem::RequestQueue q(32);
    Xoshiro256ss gen(2);
    for (unsigned i = 0; i < 32; ++i) {
        mem::Request r;
        r.type = mem::ReqType::Read;
        r.coord = dram::DramCoord{0, static_cast<unsigned>(gen.nextBelow(8)),
                                  static_cast<unsigned>(gen.nextBelow(64)),
                                  0};
        r.core = static_cast<CoreId>(i % 4);
        r.seq = i;
        q.push(r);
    }
    mem::BlissScheduler sched(1, 4, 4, 10000);
    Cycle now = 1000;
    for (auto _ : state) {
        const mem::SchedContext ctx{q, chan, 0, now++};
        benchmark::DoNotOptimize(sched.pick(ctx));
    }
}
BENCHMARK(BM_BlissPick);

static void
BM_SimplePredictorCycle(benchmark::State &state)
{
    strange::SimpleIdlenessPredictor pred(
        strange::SimpleIdlenessPredictor::Config{});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predictLong(addr));
        pred.periodEnded(addr, addr % 80);
        addr += 64;
    }
}
BENCHMARK(BM_SimplePredictorCycle);

static void
BM_RlPredictorCycle(benchmark::State &state)
{
    strange::RlIdlenessPredictor pred(
        strange::RlIdlenessPredictor::Config{});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predictLong(addr));
        pred.periodEnded(addr, addr % 80);
        addr += 64;
    }
}
BENCHMARK(BM_RlPredictorCycle);

static void
BM_RngEngineTick(benchmark::State &state)
{
    dram::DramTimings t;
    dram::DramGeometry g;
    dram::DramChannel chan(t, g);
    trng::RngEngine eng(trng::TrngMechanism::dRange(), chan);
    Cycle now = 0;
    eng.start(now);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eng.tick(now++));
    }
}
BENCHMARK(BM_RngEngineTick);

static void
BM_BufferDepositServe(benchmark::State &state)
{
    strange::RandomNumberBuffer buf(16);
    for (auto _ : state) {
        buf.deposit(8.0);
        if (buf.canServe64())
            buf.serve64();
    }
}
BENCHMARK(BM_BufferDepositServe);

static void
BM_SyntheticTraceNext(benchmark::State &state)
{
    workloads::SyntheticTrace trace(workloads::appByName("mcf"),
                                    dram::DramGeometry{}, 0, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace.next());
}
BENCHMARK(BM_SyntheticTraceNext);

static void
BM_EntropyWord(benchmark::State &state)
{
    trng::EntropySource src(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(src.next64());
}
BENCHMARK(BM_EntropyWord);

static void
BM_SystemBusCycle(benchmark::State &state)
{
    sim::SimConfig cfg;
    sim::DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 1u << 30;
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), cfg.geometry, 0, 1));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        5120.0, cfg.geometry, 2));
    sim::System sys(cfg, std::move(traces));
    for (auto _ : state)
        sys.step(1);
}
BENCHMARK(BM_SystemBusCycle);

BENCHMARK_MAIN();
