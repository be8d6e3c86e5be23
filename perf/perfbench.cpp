/**
 * @file
 * Benchmark program for the DR-STRaNGe simulator library. It reaches
 * the simulator only through public headers, so everything under src/
 * can change and still be measured by this unchanged file.
 *
 *   perfbench e2e WORKLOAD [--seed N] [--scale D] [--reps R]
 *                 [--seconds S]
 *   perfbench traced WORKLOAD [--seed N] [--scale D] [--seconds S]
 *                 --trace-out FILE --tape-dir DIR
 *
 * Both modes print one JSON document on stdout, which perf/run.py turns
 * into the scoreboard. `e2e` times whole sweep passes with no spans.
 * `traced` runs every cell live, live while recording its request tape,
 * replayed from that tape, and in probed chunks, and from the differences
 * derives where the host time goes (the per-layer metrics).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/simulation_builder.h"
#include "common/json_writer.h"
#include "sim/energy_model.h"
#include "sim/lockstep.h"
#include "sim/sweep_runner.h"
#include "workloads/app_profile.h"
#include "workloads/mixes.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

namespace {

using namespace dstrange;
using Clock = std::chrono::steady_clock;
using Result = sim::Runner::WorkloadResult;

double
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/** Mean of the samples between the first and third quartile: as robust
 *  as the median, but not stuck on whole nanoseconds. */
double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

/** Peak resident set of this process image. (getrusage's ru_maxrss
 *  would also count the parent's pages from before exec.) */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------- the cells

/** One cell: config-text overrides applied over SimConfig{} (the
 *  canonical text the CLI and the caches use) plus its workload. */
struct Cell
{
    std::string name;
    std::string text;
    workloads::WorkloadSpec spec;
};

/**
 * The cell table of every workload. @p seed sets SimConfig::seed (every
 * trace and entropy stream) and fault.seed; @p scale divides every run
 * length (1 = full size). perf/README.md says why each workload exists.
 */
std::vector<Cell>
cellsOf(const std::string &workload, std::uint64_t seed, unsigned scale)
{
    const std::string seeded = " seed=" + std::to_string(seed);
    const auto budget = [&](std::uint64_t full) {
        return " budget=" + std::to_string(full / scale);
    };
    std::vector<Cell> cells;
    const auto add = [&](std::string name, const std::string &text,
                         workloads::WorkloadSpec spec) {
        cells.push_back({std::move(name), text + seeded, std::move(spec)});
    };

    if (workload == "dual-5gbps") {
        auto mixes = workloads::dualCorePlottedMixes(5120.0);
        mixes.resize(6);
        for (const auto &mix : mixes)
            for (const std::string design :
                 {"oblivious", "greedy", "drstrange"})
                add(mix.name + "/" + design,
                    "design=" + design + budget(3'000'000), mix);
    } else if (workload == "trng-ladder") {
        for (const std::string mech : {"drange", "quac"})
            for (const int mbps : {640, 2560, 10240})
                for (const std::string design : {"oblivious", "drstrange"}) {
                    workloads::WorkloadSpec spec;
                    spec.name = mech + "-rng" + std::to_string(mbps);
                    spec.rngThroughputMbps = mbps;
                    add(spec.name + "/" + design,
                        "design=" + design + " mechanism=" + mech +
                            budget(10'000'000),
                        spec);
                }
    } else if (workload == "multicore-8") {
        // The application draw stays fixed: redrawing it per seed moves
        // the simulated work by ~12%, which would swamp the host-time
        // comparison the benchmark exists for.
        for (const char category : {'M', 'H'}) {
            auto group = workloads::multiCoreCategoryGroup(8, category, 1);
            group.resize(2);
            for (const auto &spec : group) {
                add(spec.name + "/drstrange",
                    "design=drstrange" + budget(500'000), spec);
                add(spec.name + "/bliss-2rank",
                    "design=bliss geometry.ranks=2 "
                    "mapping=row-bank-col-rank-ch" +
                        budget(500'000),
                    spec);
            }
        }
    } else if (workload == "service-faults") {
        for (const int mbps : {2560, 10240})
            for (const std::string design : {"oblivious", "drstrange"}) {
                workloads::WorkloadSpec spec;
                spec.name = "svc-poisson-" + std::to_string(mbps);
                spec.rngThroughputMbps = 0.0;
                const std::string text =
                    "design=" + design +
                    " service.enabled=1 service.offered-mbps=" +
                    std::to_string(mbps) + " service.duration=" +
                    std::to_string(400'000 / scale) + " service.slo=500";
                const std::string name = spec.name + "/" + design;
                add(name + "/clean", text, spec);
                add(name + "/faulty",
                    text + " fault.models=bitflip,weak-cell,stuck-row "
                           "fault.monitor=1 fault.seed=" +
                        std::to_string(seed),
                    spec);
            }
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return cells;
}

sim::SimConfig
configOf(const Cell &cell)
{
    return sim::SimulationBuilder().applyText(cell.text).config();
}

/** The traces sim::Runner gives @p spec's cores: one synthetic trace
 *  per application, then the RNG benchmark on the last core. */
std::vector<std::unique_ptr<cpu::TraceSource>>
tracesOf(const sim::SimConfig &cfg, const workloads::WorkloadSpec &spec)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    for (unsigned i = 0; i < spec.apps.size(); ++i)
        traces.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::appByName(spec.apps[i]), cfg.geometry, i, cfg.seed));
    if (spec.rngThroughputMbps > 0.0)
        traces.push_back(std::make_unique<workloads::RngBenchmark>(
            spec.rngThroughputMbps, cfg.geometry, cfg.seed + traces.size()));
    return traces;
}

// ----------------------------------------------------------- the outputs

std::string
hexfloat(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
fnv64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The controller-side outputs of a finished System, in the shape
 *  sim::Runner reports them (no per-core slowdowns: those need the
 *  alone baselines only the Runner computes). */
Result
resultOf(const sim::System &sys)
{
    Result r;
    r.busCycles = sys.busCycles();
    r.mcStats = sys.mc().stats();
    for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch)
        r.energyNj += sim::channelEnergy(sys.config().timings,
                                         sys.mc().channel(ch).energyCounters())
                          .total();
    if (const service::OpenLoopService *svc = sys.service())
        r.service = service::SloReport::from(svc->config(), svc->stats());
    if (const fault::FaultPlane *fp = sys.mc().faultInjection())
        r.fault = fp->report();
    return r;
}

/** Digest of the outputs both the Runner path and a directly built
 *  System produce, so the two can be checked against each other. */
std::string
outDigest(const Result &r)
{
    const mem::McStats &m = r.mcStats;
    std::ostringstream o;
    o << "bus_cycles=" << r.busCycles << " reads=" << m.readRequests
      << " writes=" << m.writeRequests << " rng=" << m.rngRequests
      << " rng_buffer=" << m.rngServedFromBuffer
      << " rng_staging=" << m.rngServedFromStaging
      << " rng_jobs=" << m.rngJobsCompleted
      << " reads_done=" << m.readsCompleted
      << " read_latency=" << m.sumReadLatency
      << " rng_latency=" << m.sumRngLatency
      << " energy_nj=" << hexfloat(r.energyNj);
    if (r.service)
        o << " svc.completed=" << r.service->completed
          << " svc.over_slo=" << r.service->overSlo
          << " svc.p99=" << r.service->p99
          << " svc.max=" << r.service->maxLatency;
    if (r.fault)
        o << " fault.passed=" << r.fault->roundsAudited
          << " fault.discarded=" << r.fault->roundsDiscarded
          << " fault.corrupted=" << r.fault->corruptedBits
          << " fault.blacklisted=" << r.fault->blacklisted;
    return fnv64(o.str());
}

/** The paper's headline outputs of a Runner result, exact (hexfloat),
 *  for the golden file. */
std::vector<std::pair<std::string, std::string>>
headlineOf(const Result &r)
{
    std::vector<std::pair<std::string, std::string>> h = {
        {"weighted_speedup", hexfloat(r.weightedSpeedupNonRng)},
        {"unfairness", hexfloat(r.unfairnessIndex)},
        {"rng_slowdown", hexfloat(r.rngSlowdown())},
        {"nonrng_slowdown", hexfloat(r.avgNonRngSlowdown())},
        {"buffer_serve_rate", hexfloat(r.bufferServeRate)},
        {"energy_nj", hexfloat(r.energyNj)},
        {"bus_cycles", std::to_string(r.busCycles)},
    };
    if (r.service) {
        h.emplace_back("svc_p99", std::to_string(r.service->p99));
        h.emplace_back("svc_goodput_rps", hexfloat(r.service->goodputRps));
    }
    if (r.fault)
        h.emplace_back("fault_discarded",
                       std::to_string(r.fault->roundsDiscarded));
    return h;
}

/** The statistic lines a replay must reproduce: everything but the
 *  cores and the open-loop service, which a replay does not run. */
std::string
controllerLines(const std::string &fingerprint)
{
    std::istringstream in(fingerprint);
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("core", 0) != 0 && line.rfind("svc.", 0) != 0 &&
            line.rfind("replay.", 0) != 0)
            out += line + '\n';
    return out;
}

std::vector<sim::SweepRunner::Cell>
sweepGrid(const std::vector<Cell> &cells)
{
    std::vector<sim::SweepRunner::Cell> grid;
    for (const Cell &c : cells) {
        sim::SweepRunner::Cell g;
        g.config = configOf(c);
        g.spec = c.spec;
        grid.push_back(std::move(g));
    }
    return grid;
}

// -------------------------------------------------------------- options

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    unsigned scale = 1;
    unsigned reps = 7;        ///< e2e timed passes when seconds == 0.
    double seconds = 0.0;     ///< Time budget replacing reps / rounds.
    std::string traceOut;
    std::string tapeDir;
};

Options
parseOptions(int argc, char **argv)
{
    if (argc < 3)
        throw std::invalid_argument(
            "usage: perfbench e2e|traced WORKLOAD [options]");
    Options opt;
    opt.mode = argv[1];
    opt.workload = argv[2];
    for (int i = 3; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--scale")
            opt.scale = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--reps")
            opt.reps = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace-out")
            opt.traceOut = value;
        else if (flag == "--tape-dir")
            opt.tapeDir = value;
        else
            throw std::invalid_argument("unknown option " + flag);
    }
    if (opt.scale == 0 || opt.reps == 0)
        throw std::invalid_argument("--scale and --reps must be positive");
    return opt;
}

/** A cell's output digest and the first error seen (both modes). */
struct CellCheck
{
    std::string digest;
    std::string error;

    /** Record @p digest, failing the cell if an earlier pass differed. */
    void
    expect(const std::string &d, const char *what)
    {
        if (digest.empty())
            digest = d;
        else if (d != digest && error.empty())
            error = std::string(what) + " gave different outputs";
    }
};

// ------------------------------------------------------------ e2e mode

int
runE2e(const Options &opt)
{
    const std::vector<Cell> cells = cellsOf(opt.workload, opt.seed, opt.scale);

    // setup_s: the cell table turned into constructed, unrun Systems —
    // config-text parsing, design apply, trace sources and controllers.
    // 25 samples precede every pass, so they see the same machine
    // conditions as the passes rather than those of one moment.
    std::vector<double> setup;
    const auto measureSetup = [&] {
        for (unsigned k = 0; k < 25; ++k) {
            std::vector<std::unique_ptr<sim::System>> built;
            const auto t0 = Clock::now();
            for (const Cell &c : cells) {
                const sim::SimConfig cfg = configOf(c);
                built.push_back(std::make_unique<sim::System>(
                    cfg, tracesOf(cfg, c.spec)));
            }
            setup.push_back(nsBetween(t0, Clock::now()) * 1e-9);
        }
    };

    // One discarded warm-up pass, then timed passes: each a fresh serial
    // SweepRunner with a cold in-memory alone cache and no ResultStore.
    const std::vector<sim::SweepRunner::Cell> grid = sweepGrid(cells);
    std::vector<CellCheck> checks(cells.size());
    std::vector<Result> first(cells.size());
    std::vector<double> wall;
    std::vector<std::uint64_t> busCycles;
    const auto pass = [&] {
        measureSetup();
        sim::SweepRunner runner(sim::SimConfig{}, 1, nullptr);
        const auto t0 = Clock::now();
        const std::vector<sim::SweepRunner::CellResult> results =
            runner.run(grid);
        const double seconds = nsBetween(t0, Clock::now()) * 1e-9;
        std::uint64_t cycles = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &r = results[i];
            if (!r.ok) {
                if (checks[i].error.empty())
                    checks[i].error = r.error;
                continue;
            }
            cycles += r.result.busCycles;
            if (checks[i].digest.empty())
                first[i] = r.result;
            checks[i].expect(outDigest(r.result), "repeated passes");
        }
        return std::make_pair(seconds, cycles);
    };
    pass();
    const auto measuring = Clock::now();
    while (opt.seconds > 0.0
               ? wall.size() < 3 ||
                     nsBetween(measuring, Clock::now()) * 1e-9 < opt.seconds
               : wall.size() < opt.reps) {
        const auto [seconds, cycles] = pass();
        wall.push_back(seconds);
        busCycles.push_back(cycles);
    }

    JsonWriter w;
    w.beginObject()
        .key("mode").value("e2e")
        .key("workload").value(opt.workload)
        .key("seed").value(static_cast<std::uint64_t>(opt.seed))
        .key("scale").value(static_cast<std::uint64_t>(opt.scale));
    w.key("setup_s").beginArray();
    for (const double s : setup)
        w.valueExact(s);
    w.endArray().key("wall_s").beginArray();
    for (const double s : wall)
        w.valueExact(s);
    w.endArray().key("bus_cycles").beginArray();
    for (const std::uint64_t c : busCycles)
        w.value(c);
    w.endArray();
    w.key("peak_rss_mb").valueExact(peakRssMb());
    w.key("cells").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        w.beginObject()
            .key("name").value(cells[i].name)
            .key("text").value(cells[i].text)
            .key("error").value(checks[i].error)
            .key("out_digest").value(checks[i].digest);
        w.key("headline").beginObject();
        if (!checks[i].digest.empty())
            for (const auto &[k, v] : headlineOf(first[i]))
                w.key(k).value(v);
        w.endObject().endObject();
    }
    w.endArray().endObject();
    std::cout << w.str() << '\n';
    return 0;
}

// ---------------------------------------------------------- traced mode

/** Chrome trace-event spans, kept in memory and written at the end. */
class SpanLog
{
  public:
    /** Time @p fn as a complete event and return its nanoseconds. */
    template <typename Fn>
    double
    span(const std::string &name, const std::string &cell, Fn &&fn)
    {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        add(name, cell, t0, t1, "");
        return nsBetween(t0, t1);
    }

    /** @p args is the inside of a JSON object ("" = none). */
    void
    add(const std::string &name, const std::string &cell,
        Clock::time_point from, Clock::time_point to, std::string args)
    {
        if (!cell.empty())
            args = "\"cell\":\"" + cell + "\"" +
                   (args.empty() ? "" : "," + args);
        events.push_back({name, nsBetween(origin, from) * 1e-3,
                          nsBetween(from, to) * 1e-3, std::move(args)});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Event &e = events[i];
            char head[160];
            std::snprintf(head, sizeof head,
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                          "\"dur\":%.3f",
                          e.tsUs, e.durUs);
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << e.name << "\","
                << head << ",\"args\":{" << e.args << "}}";
        }
        out << "\n]}\n";
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    struct Event
    {
        std::string name;
        double tsUs;
        double durUs;
        std::string args;
    };
    Clock::time_point origin = Clock::now();
    std::vector<Event> events;
};

/** Everything the traced run learns about one cell. */
struct CellTrace
{
    CellCheck check;       ///< Live, recorded and probed fingerprints.
    CellCheck outputs;     ///< Live vs sweep-pass output digests.
    bool replayOk = true;  ///< Replay reproduced the controller stats.
    std::vector<double> liveNs, recordNs, replayNs;
    sim::System::FfStats ff{};
    Cycle busCycles = 0;
    std::uint64_t records = 0;   ///< Requests the replay re-issued.
    std::uint64_t completed = 0; ///< Service requests completed.
    std::uint64_t audits = 0;    ///< Fault-plane round audits.
    bool hasCores = false;
    bool faulty = false;

    double live() const { return median(liveNs); }
    double replay() const { return median(replayNs); }
    double replayOverLive() const { return replay() / live(); }
    /** The live - replay split is meaningful only when the replay
     *  reproduced the run and cost less than it. */
    bool
    splitValid() const
    {
        return check.error.empty() && replayOk && replayOverLive() <= 1.0;
    }
};

/** Host time of TraceSource::next() over every distinct trace. */
std::optional<double>
traceNsPerOp(const std::vector<Cell> &cells)
{
    constexpr unsigned kOps = 1'000'000;
    std::set<std::string> seen;
    double ns = 0.0;
    std::uint64_t ops = 0, sink = 0;
    for (const Cell &c : cells) {
        const sim::SimConfig cfg = configOf(c);
        for (auto &trace : tracesOf(cfg, c.spec)) {
            // Traces differ by name (application), seed and geometry;
            // core slots of one application share a generator shape.
            const std::string key =
                trace->name() + "|" + std::to_string(cfg.seed) + "|" +
                std::to_string(cfg.geometry.ranksPerChannel);
            if (!seen.insert(key).second)
                continue;
            const auto t0 = Clock::now();
            for (unsigned i = 0; i < kOps; ++i)
                sink += trace->next().addr;
            ns += nsBetween(t0, Clock::now());
            ops += kOps;
        }
    }
    volatile std::uint64_t observed = sink; // Keeps next() calls live.
    (void)observed;
    if (ops == 0)
        return std::nullopt;
    return ns / static_cast<double>(ops);
}

void
traceCell(const Cell &cell, const std::string &tape, SpanLog &log,
          CellTrace &t, std::vector<double> &simProbeNs,
          std::vector<double> &memProbeNs, std::uint64_t &wastedProbes)
{
    sim::SimConfig cfg;
    std::unique_ptr<sim::System> sys;
    log.span("setup", cell.name, [&] {
        cfg = configOf(cell);
        sys = std::make_unique<sim::System>(cfg, tracesOf(cfg, cell.spec));
    });
    t.liveNs.push_back(log.span("live", cell.name, [&] { sys->run(); }));
    const std::string fp = sim::systemFingerprint(*sys);
    t.check.expect(fnv64(fp), "live passes");
    t.outputs.expect(outDigest(resultOf(*sys)), "live and sweep runs");
    t.ff = sys->ffStats();
    t.busCycles = sys->busCycles();
    t.hasCores = sys->numCores() > 0;
    if (const service::OpenLoopService *svc = sys->service())
        t.completed = svc->stats().completed;
    if (const fault::FaultPlane *plane = sys->mc().faultInjection()) {
        t.faulty = true;
        t.audits = plane->stats().roundsAudited +
                   plane->stats().roundsDiscarded;
    }
    sys.reset();

    sim::SimConfig record = cfg;
    record.traceRecord = tape;
    sim::System recorder(record, tracesOf(cfg, cell.spec));
    t.recordNs.push_back(
        log.span("record", cell.name, [&] { recorder.run(); }));
    t.check.expect(fnv64(sim::systemFingerprint(recorder)), "recording");

    sim::SimConfig replay = cfg;
    replay.traceReplay = tape;
    sim::System replayer(replay, {});
    t.replayNs.push_back(
        log.span("replay", cell.name, [&] { replayer.run(); }));
    t.records = replayer.replaySource()->replayedCount();
    t.replayOk = t.replayOk &&
                 controllerLines(sim::systemFingerprint(replayer)) ==
                     controllerLines(fp);
    std::filesystem::remove(tape);

    // Probe pass: the same run in 997-cycle chunks, timing both horizon
    // probes at every chunk boundary. Samples are aggregated, not logged.
    sim::System probed(cfg, tracesOf(cfg, cell.spec));
    const std::size_t before = simProbeNs.size();
    std::uint64_t wasted = 0;
    const auto t0 = Clock::now();
    while (probed.busCycles() < t.busCycles) {
        const Cycle now = probed.busCycles();
        const auto a = Clock::now();
        const Cycle horizon = probed.nextEventCycle();
        const auto b = Clock::now();
        probed.mc().nextEventCycle(now);
        const auto c = Clock::now();
        simProbeNs.push_back(nsBetween(a, b));
        memProbeNs.push_back(nsBetween(b, c));
        wasted += horizon == now;
        probed.step(std::min<Cycle>(997, t.busCycles - now));
    }
    const std::size_t probes = simProbeNs.size() - before;
    wastedProbes += wasted;
    std::vector<double> mine(simProbeNs.begin() + before, simProbeNs.end());
    std::ostringstream args;
    args << "\"probes\":" << probes << ",\"wasted\":" << wasted
         << ",\"probe_ns\":" << interquartileMean(std::move(mine));
    log.add("probe-pass", cell.name, t0, Clock::now(), args.str());
    t.check.expect(fnv64(sim::systemFingerprint(probed)), "chunked stepping");
}

/** Write one per-layer metric; a metric that does not apply to the
 *  workload (std::nullopt) is written without a value. */
void
metric(JsonWriter &w, const std::string &name, std::optional<double> v,
       const char *unit)
{
    w.key(name).beginObject().key("unit").value(unit);
    if (v)
        w.key("value").valueExact(*v);
    w.endObject();
}

int
runTraced(const Options &opt)
{
    const std::vector<Cell> cells = cellsOf(opt.workload, opt.seed, opt.scale);
    const std::vector<sim::SweepRunner::Cell> grid = sweepGrid(cells);
    std::filesystem::create_directories(opt.tapeDir);

    SpanLog log;
    std::vector<CellTrace> traces(cells.size());
    std::vector<double> simProbeNs, memProbeNs, aloneFrac, overheadFrac;
    std::uint64_t wastedProbes = 0;
    std::optional<double> traceNs;
    const auto start = Clock::now();
    unsigned rounds = 0;
    do {
        const auto roundStart = Clock::now();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto t0 = Clock::now();
            try {
                traceCell(cells[i],
                          (std::filesystem::path(opt.tapeDir) /
                           ("cell-" + std::to_string(i) + ".trc"))
                              .string(),
                          log, traces[i], simProbeNs, memProbeNs,
                          wastedProbes);
            } catch (const std::exception &e) {
                if (traces[i].check.error.empty())
                    traces[i].check.error = e.what();
            }
            log.add(cells[i].name, "", t0, Clock::now(), "");
        }

        // Two passes on one serial SweepRunner: the cold pass computes
        // the alone baselines, the warm pass finds them cached and so
        // repeats the untraced live runs.
        sim::SweepRunner runner(sim::SimConfig{}, 1, nullptr);
        std::vector<sim::SweepRunner::CellResult> results;
        const double cold = log.span("sweep-cold", "",
                                     [&] { results = runner.run(grid); });
        const double warm = log.span("sweep-warm", "",
                                     [&] { results = runner.run(grid); });
        double live = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            live += traces[i].liveNs.empty() ? 0.0 : traces[i].liveNs.back();
            if (results[i].ok)
                traces[i].outputs.expect(outDigest(results[i].result),
                                         "live and sweep runs");
            else if (traces[i].check.error.empty())
                traces[i].check.error = results[i].error;
        }
        aloneFrac.push_back(1.0 - warm / cold);
        overheadFrac.push_back(live / warm - 1.0);

        if (rounds == 0)
            log.span("trace-gen", "", [&] { traceNs = traceNsPerOp(cells); });
        log.add(opt.workload, "", roundStart, Clock::now(), "");
        ++rounds;
    } while (nsBetween(start, Clock::now()) * 1e-9 < opt.seconds);
    if (!opt.traceOut.empty())
        log.write(opt.traceOut);

    // Per-layer aggregates: ratios of sums over the cells each applies to.
    double live = 0, replay = 0, bus = 0, validReplay = 0, validBus = 0,
           validRecords = 0, coreBus = 0, coreDiff = 0, svcDiff = 0,
           svcCompleted = 0, faultDiff = 0, audits = 0;
    sim::System::FfStats ff{};
    std::uint64_t records = 0, completed = 0;
    std::map<std::string, const CellTrace *> clean;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellTrace &t = traces[i];
        if (!t.check.error.empty() || t.liveNs.empty())
            continue;
        live += t.live();
        replay += t.replay();
        bus += static_cast<double>(t.busCycles);
        ff.steppedCycles += t.ff.steppedCycles;
        ff.skippedCycles += t.ff.skippedCycles;
        ff.skips += t.ff.skips;
        ff.drainTicks += t.ff.drainTicks;
        records += t.records;
        completed += t.completed;
        if (t.faulty)
            audits += static_cast<double>(t.audits);
        if (t.splitValid()) {
            validReplay += t.replay();
            validBus += static_cast<double>(t.busCycles);
            validRecords += static_cast<double>(t.records);
            if (t.hasCores) {
                coreDiff += t.live() - t.replay();
                coreBus += static_cast<double>(t.busCycles);
            } else if (!t.faulty) {
                svcDiff += t.live() - t.replay();
                svcCompleted += static_cast<double>(t.completed);
            }
        }
        if (!t.faulty)
            clean[cells[i].name.substr(0, cells[i].name.rfind('/'))] = &t;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellTrace &t = traces[i];
        const auto pair =
            clean.find(cells[i].name.substr(0, cells[i].name.rfind('/')));
        if (t.faulty && t.check.error.empty() && pair != clean.end())
            faultDiff += t.live() - pair->second->live();
    }
    const auto ratio = [](double num, double den) -> std::optional<double> {
        if (den <= 0.0)
            return std::nullopt;
        return num / den;
    };

    JsonWriter w;
    w.beginObject()
        .key("mode").value("traced")
        .key("workload").value(opt.workload)
        .key("seed").value(static_cast<std::uint64_t>(opt.seed))
        .key("scale").value(static_cast<std::uint64_t>(opt.scale))
        .key("rounds").value(static_cast<std::uint64_t>(rounds));
    w.key("layers").beginObject();
    metric(w, "sim.ns_per_cycle", ratio(live, bus), "ns/cycle");
    metric(w, "sim.stepped_cycles", double(ff.steppedCycles), "count");
    metric(w, "sim.skipped_cycles", double(ff.skippedCycles), "count");
    metric(w, "sim.skips", double(ff.skips), "count");
    metric(w, "sim.drain_ticks", double(ff.drainTicks), "count");
    metric(w, "sim.skip_frac", ratio(double(ff.skippedCycles), bus), "ratio");
    metric(w, "sim.probe_ns", interquartileMean(simProbeNs), "ns");
    metric(w, "sim.probe_now_frac",
           ratio(double(wastedProbes), double(simProbeNs.size())), "ratio");
    metric(w, "sim.alone_frac", median(aloneFrac), "ratio");
    metric(w, "mem.ns_per_cycle", ratio(validReplay, validBus), "ns/cycle");
    metric(w, "mem.ns_per_request", ratio(validReplay, validRecords), "ns/req");
    metric(w, "mem.probe_ns", interquartileMean(memProbeNs), "ns");
    metric(w, "mem.requests", double(records), "count");
    metric(w, "mem.replay_over_live", ratio(replay, live), "ratio");
    metric(w, "cpu.ns_per_cycle", ratio(coreDiff, coreBus), "ns/cycle");
    metric(w, "workloads.ns_per_op", traceNs, "ns/op");
    metric(w, "service.ns_per_request", ratio(svcDiff, svcCompleted), "ns/req");
    metric(w, "service.requests", double(completed), "count");
    metric(w, "fault.ns_per_audit", ratio(faultDiff, audits), "ns/audit");
    metric(w, "fault.audits", audits, "count");
    metric(w, "trace.overhead_frac", median(overheadFrac), "ratio");
    w.endObject();
    w.key("peak_rss_mb").valueExact(peakRssMb());
    w.key("cells").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellTrace &t = traces[i];
        const std::string error =
            !t.check.error.empty() ? t.check.error : t.outputs.error;
        w.beginObject()
            .key("name").value(cells[i].name)
            .key("error").value(error)
            .key("fp_digest").value(t.check.digest)
            .key("out_digest").value(t.outputs.digest)
            .key("bus_cycles").value(static_cast<std::uint64_t>(t.busCycles))
            .key("stepped_cycles").value(t.ff.steppedCycles)
            .key("skipped_cycles").value(t.ff.skippedCycles)
            .key("drain_ticks").value(t.ff.drainTicks)
            .key("replay_ok").value(t.replayOk)
            .key("split_valid").value(error.empty() && t.splitValid());
        if (error.empty())
            w.key("live_ns").valueExact(t.live())
                .key("replay_ns").valueExact(t.replay())
                .key("record_ns").valueExact(median(t.recordNs))
                .key("replay_over_live").valueExact(t.replayOverLive());
        w.endObject();
    }
    w.endArray().endObject();
    std::cout << w.str() << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseOptions(argc, argv);
        if (opt.mode == "e2e")
            return runE2e(opt);
        if (opt.mode == "traced")
            return runTraced(opt);
        throw std::invalid_argument("unknown mode '" + opt.mode + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
