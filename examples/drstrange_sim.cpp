/**
 * @file
 * Full command-line simulator front-end: configure a workload mix,
 * system design, TRNG mechanism and controller parameters through
 * canonical config text (sim/config_text.h), run the simulation, and
 * print human-readable or JSON results.
 *
 * Usage:
 *   drstrange_sim [options]
 *     --design NAME       any sim::DesignRegistry key (oblivious|greedy|
 *                         drstrange|drstrange-rl|drstrange-nopred|
 *                         drstrange-nolowutil|rng-aware|frfcfs|bliss|
 *                         ...user-registered)           [design]
 *     --apps a,b,c        non-RNG applications (default soplex)
 *     --trace FILE        add a core driven by a trace file (repeatable)
 *     --rng-mbps N        RNG app required throughput (default 5120; 0=off)
 *     --mechanism NAME    drange|quac (default drange)  [mechanism]
 *     --hybrid-fill NAME  fill mechanism (hybrid design) [fill-mechanism]
 *     --buffer N          buffer entries (default 16)   [buffer-entries]
 *     --partitions N      buffer partitions (0 = shared)
 *                                                    [buffer-partitions]
 *     --powerdown N       idle cycles before power-down (default 0)
 *                                                       [powerdown]
 *     --budget N          instructions per core (default 200000) [budget]
 *     --priorities a,b,.. per-core OS priorities        [priorities]
 *     --seed N            master seed (default 1)       [seed]
 *     --set key=value     set any config-text knob (repeatable; see
 *                         sim/config_text.h for the grammar), e.g.
 *                         geometry.ranks=2, mapping=row-bank-col-rank-ch,
 *                         timings.trtrs=2,
 *                         service.enabled=1, service.arrival=bursty,
 *                         service.offered-mbps=2560, service.slo=500
 *     --print-config      print the canonical config text and exit
 *     --json              machine-readable output
 *
 * A flag marked [key] is a fixed alias of `--set key=VALUE`: its value
 * goes through the same config-text parser and checks, and must be one
 * token (no whitespace, no '='). The aliases and every --set are
 * gathered, in argv order, into one config text that is applied once,
 * so `--design drstrange --set predictor=rl` overrides the preset's
 * predictor while `--set predictor=rl --design drstrange` does not, and
 * timings may move together across several --set flags. A rejected
 * token is reported with the flag that carried it; timings rejected as
 * a whole are reported with --set, the only flag that reaches them.
 * --record-trace and --replay-trace set their paths after the text.
 *
 * The run goes through sim::runSystem(), so with DS_LOCKSTEP=1 it is
 * repeated cycle by cycle and every statistic must match bit for bit.
 */

#include <cctype>
#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/json_writer.h"
#include "dram/address_mapper.h"
#include "dram/dram_timings.h"
#include "drstrange.h"
#include "mem/scheduler_registry.h"
#include "fault/fault_model.h"
#include "fault/fault_plane.h"
#include "service/arrival_process.h"
#include "service/shed_policy.h"
#include "sim/lockstep.h"
#include "workloads/trace_file.h"

using namespace dstrange;

namespace {

/** Convenience flags that are fixed aliases of a config-text key. */
constexpr std::pair<std::string_view, const char *> kFlagAliases[] = {
    {"--design", "design"},
    {"--mechanism", "mechanism"},
    {"--hybrid-fill", "fill-mechanism"},
    {"--buffer", "buffer-entries"},
    {"--partitions", "buffer-partitions"},
    {"--powerdown", "powerdown"},
    {"--budget", "budget"},
    {"--priorities", "priorities"},
    {"--seed", "seed"},
};

/** The config-text key @p flag aliases, or nullptr. */
const char *
aliasedKey(std::string_view flag)
{
    for (const auto &[name, key] : kFlagAliases)
        if (name == flag)
            return key;
    return nullptr;
}

/** The single config-text token `key=value` an alias flag stands for;
 *  whitespace or '=' in @p value would smuggle in a second token. */
std::string
aliasToken(const char *key, const std::string &value)
{
    for (const char c : value)
        if (c == '=' || std::isspace(static_cast<unsigned char>(c)))
            throw std::invalid_argument(
                "value '" + value +
                "' must be one token (no whitespace or '=')");
    std::string token = key;
    token += '=';
    token += value;
    return token;
}

/** --rng-mbps value: a finite, non-negative number, nothing trailing. */
double
parseMbps(const std::string &value)
{
    double v = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0)
        throw std::invalid_argument("expected a finite non-negative "
                                    "number, got '" + value + "'");
    return v;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream iss(csv);
    std::string item;
    while (std::getline(iss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Display name of the registered design whose preset leaves @p cfg
 * unchanged ("custom" when overrides left no preset matching), so the
 * reported label stays correct however the knobs were reached
 * (--design, --set design=..., --set scheduler=...).
 */
std::string
designLabelFor(const sim::SimConfig &cfg)
{
    const auto &registry = sim::DesignRegistry::instance();
    const std::string text = sim::serializeConfig(cfg);
    for (const std::string &key : registry.keys()) {
        sim::SimConfig probe = cfg;
        registry.apply(key, probe);
        if (sim::serializeConfig(probe) == text)
            return registry.displayName(key);
    }
    return "custom";
}

template <typename Keys>
void
printKeys(const char *label, const Keys &keys)
{
    std::cout << label << ":";
    for (const auto &k : keys)
        std::cout << " " << k;
    std::cout << "\n";
}

/** Enumerate the keys of every policy axis (--list). */
void
listRegistries()
{
    printKeys("designs", sim::DesignRegistry::instance().keys());
    printKeys("schedulers", mem::SchedulerRegistry::instance().keys());
    printKeys("predictors", strange::kPredictors);
    printKeys("mappings", dram::kMappings);
    printKeys("arrivals", service::kArrivals);
    printKeys("backends", dram::kChannelModels);
    printKeys("fault-models", fault::kFaultModels);
    printKeys("shed-policies", service::kShedPolicies);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::SimConfig cfg = sim::parseConfig("design=drstrange budget=200000");
    std::vector<std::string> apps;
    std::vector<std::string> trace_files;
    double rng_mbps = 5120.0;
    bool rng_given = false;
    bool json = false;
    bool print_config = false;
    // Every config flag's text in argv order, and the flag that carried
    // each of its tokens.
    std::string config_text;
    std::vector<std::string> token_flags;
    const auto gather = [&](const std::string &flag,
                            const std::string &text) {
        std::istringstream iss(text);
        for (std::string token; iss >> token;) {
            config_text += token;
            config_text += ' ';
            token_flags.push_back(flag);
        }
    };
    std::optional<std::string> record_trace, replay_trace;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_arg = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " requires an argument\n";
                std::exit(1);
            }
            return argv[++i];
        };
        try {
            if (const char *key = aliasedKey(arg)) {
                gather(arg, aliasToken(key, next_arg(arg.c_str())));
            } else if (arg == "--apps") {
                apps = splitCsv(next_arg("--apps"));
            } else if (arg == "--trace") {
                trace_files.push_back(next_arg("--trace"));
            } else if (arg == "--rng-mbps") {
                rng_mbps = parseMbps(next_arg("--rng-mbps"));
                rng_given = true;
            } else if (arg == "--set") {
                gather(arg, next_arg("--set"));
            } else if (arg == "--record-trace") {
                record_trace = next_arg("--record-trace");
            } else if (arg == "--replay-trace") {
                replay_trace = next_arg("--replay-trace");
            } else if (arg == "--list") {
                listRegistries();
                return 0;
            } else if (arg == "--print-config") {
                print_config = true;
            } else if (arg == "--json") {
                json = true;
            } else if (arg == "--help" || arg == "-h") {
                std::cout
                    << "usage: drstrange_sim [options]\n"
                       "  --design NAME       any sim::DesignRegistry"
                       " key (oblivious|greedy|\n"
                       "                      drstrange|drstrange-rl|"
                       "drstrange-nopred|\n"
                       "                      drstrange-nolowutil|"
                       "rng-aware|frfcfs|bliss|...)  [design]\n"
                       "  --apps a,b,c        non-RNG applications"
                       " (default soplex)\n"
                       "  --trace FILE        add a core driven by a"
                       " trace file (repeatable)\n"
                       "  --rng-mbps N        RNG app required"
                       " throughput (default 5120; 0=off)\n"
                       "  --mechanism NAME    drange|quac (default"
                       " drange)  [mechanism]\n"
                       "  --hybrid-fill NAME  fill mechanism (hybrid"
                       " design)  [fill-mechanism]\n"
                       "  --buffer N          buffer entries (default"
                       " 16)  [buffer-entries]\n"
                       "  --partitions N      buffer partitions (0 ="
                       " shared)  [buffer-partitions]\n"
                       "  --powerdown N       idle cycles before"
                       " power-down (default 0)  [powerdown]\n"
                       "  --budget N          instructions per core"
                       " (default 200000)  [budget]\n"
                       "  --priorities a,b    per-core OS priorities"
                       "  [priorities]\n"
                       "  --seed N            master seed (default 1)"
                       "  [seed]\n"
                       "  --set key=value     set any config-text knob"
                       " (repeatable; see\n"
                       "                      docs/configuration.md for"
                       " the grammar), e.g.\n"
                       "                      geometry.ranks=2"
                       " mapping=row-bank-col-rank-ch\n"
                       "                      timings.trtrs=2\n"
                       "                      service.enabled=1"
                       " service.arrival=bursty\n"
                       "                      service.offered-mbps=2560"
                       " service.clients=1024\n"
                       "                      service.burst=4"
                       " service.period=20000\n"
                       "                      service.slo=500"
                       " service.duration=100000\n"
                       "                      service.shed=shed-tail"
                       " fault.models=bitflip,weak-cell\n"
                       "                      fault.bitflip-rate=0.05"
                       " fault.monitor=1\n"
                       "  --record-trace FILE record every accepted"
                       " controller request to a\n"
                       "                      binary trace (replayable"
                       " with --replay-trace)\n"
                       "  --replay-trace FILE replay a recorded trace"
                       " instead of simulating\n"
                       "                      cores (controller metrics"
                       " reproduce exactly)\n"
                       "  --list              list every policy key"
                       " (designs, schedulers,\n"
                       "                      predictors, mappings,"
                       " arrivals, backends,\n"
                       "                      fault-models,"
                       " shed-policies)\n"
                       "  --print-config      print the canonical"
                       " config text and exit\n"
                       "  --json              machine-readable output\n"
                       "A flag marked [key] is an alias of --set"
                       " key=VALUE: same parser, same\n"
                       "checks; VALUE must be one token (no whitespace"
                       " or '=').\n";
                return 0;
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                return 1;
            }
        } catch (const std::exception &e) {
            std::cerr << arg << ": " << e.what() << "\n";
            return 1;
        }
    }
    try {
        sim::applyConfigText(cfg, config_text);
    } catch (const sim::ConfigTokenError &e) {
        std::cerr << token_flags[e.index] << ": " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "--set: " << e.what() << "\n";
        return 1;
    }
    if (record_trace)
        cfg.traceRecord = *record_trace;
    if (replay_trace)
        cfg.traceReplay = *replay_trace;
    if (print_config) {
        std::cout << sim::serializeConfig(cfg) << "\n";
        return 0;
    }
    // In replay mode the tape stands in for every request source: no
    // cores, no RNG benchmark, no service driver get built.
    const bool replay_mode = !cfg.traceReplay.empty();
    if (replay_mode) {
        apps.clear();
        trace_files.clear();
        rng_mbps = 0.0;
    }
    // With the open-loop service enabled and no workload asked for
    // explicitly, run service-only: the service layer is the workload.
    const bool service_only = cfg.service.enabled && apps.empty() &&
                              trace_files.empty() && !rng_given;
    if (service_only)
        rng_mbps = 0.0;
    else if (!replay_mode && apps.empty() && trace_files.empty())
        apps = {"soplex"};

    // Check every request source once up front: runSystem() builds
    // them per run (twice under DS_LOCKSTEP).
    const std::string design_label = designLabelFor(cfg);
    for (const std::string &app : apps) {
        try {
            workloads::appByName(app);
        } catch (const std::out_of_range &) {
            std::cerr << "unknown application: " << app << "\n";
            return 1;
        }
    }
    for (const std::string &path : trace_files) {
        try {
            static_cast<void>(workloads::TraceFileSource(path));
        } catch (const std::exception &e) {
            std::cerr << "trace load failed: " << e.what() << "\n";
            return 1;
        }
    }
    const bool has_rng = rng_mbps > 0.0;
    const auto make_traces = [&] {
        std::vector<std::unique_ptr<cpu::TraceSource>> traces;
        for (const std::string &app : apps)
            traces.push_back(std::make_unique<workloads::SyntheticTrace>(
                workloads::appByName(app), cfg.geometry,
                static_cast<CoreId>(traces.size()), cfg.seed));
        for (const std::string &path : trace_files)
            traces.push_back(
                std::make_unique<workloads::TraceFileSource>(path));
        if (has_rng)
            traces.push_back(std::make_unique<workloads::RngBenchmark>(
                rng_mbps, cfg.geometry, cfg.seed + traces.size()));
        return traces;
    };
    const std::unique_ptr<sim::System> run = sim::runSystem(cfg, make_traces);
    const sim::System &sys = *run;

    double energy_nj = 0.0;
    for (unsigned ch = 0; ch < sys.mc().numChannels(); ++ch) {
        energy_nj += sim::channelEnergy(
                         cfg.timings, sys.mc().channel(ch).energyCounters())
                         .total();
    }
    const auto &mcs = sys.mc().stats();

    if (json) {
        JsonWriter w;
        w.beginObject();
        w.key("design").value(design_label);
        w.key("mechanism").value(cfg.mechanism.name);
        w.key("config").value(sim::serializeConfig(cfg));
        w.key("busCycles").value(sys.busCycles());
        w.key("energy_nJ").value(energy_nj);
        w.key("bufferServeRate").value(mcs.bufferServeRate());
        if (auto ps = sys.mc().predictorStats())
            w.key("predictorAccuracy").value(ps->accuracy());
        if (const trace::TraceReplaySource *rs = sys.replaySource())
            w.key("replayedRecords").value(rs->replayedCount());
        if (const service::OpenLoopService *svc = sys.service()) {
            w.key("service");
            service::SloReport::from(svc->config(), svc->stats())
                .writeJson(w);
        }
        if (const auto rep = sys.mc().faultReport()) {
            w.key("fault");
            rep->writeJson(w);
        }
        w.key("cores").beginArray();
        for (unsigned i = 0; i < sys.numCores(); ++i) {
            const auto &s = sys.coreStats(i);
            w.beginObject();
            w.key("app").value(sys.traceName(i));
            w.key("instructions").value(s.instrRetired);
            w.key("cpuCycles").value(s.finishCycle);
            w.key("ipc").value(s.ipc());
            w.key("mcpi").value(s.mcpi());
            w.key("rngRequests").value(s.rngRequests);
            w.key("finished").value(s.finished);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::cout << w.str() << "\n";
        return 0;
    }

    std::cout << "design: " << design_label
              << "  mechanism: " << cfg.mechanism.name;
    if (cfg.fillMechanism)
        std::cout << " (fill: " << cfg.fillMechanism->name << ")";
    std::cout << "\nbus cycles: " << sys.busCycles()
              << "  energy: " << energy_nj / 1000.0 << " uJ"
              << "  buffer serve rate: " << mcs.bufferServeRate() << "\n";
    if (const trace::TraceReplaySource *rs = sys.replaySource())
        std::cout << "replayed records: " << rs->replayedCount() << "/"
                  << rs->tape().records.size() << "\n";
    std::cout << "\n";

    TablePrinter t;
    t.setHeader({"core", "app", "instr", "cpu cycles", "IPC", "MCPI",
                 "rng reqs"});
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        const auto &s = sys.coreStats(i);
        t.addRow({std::to_string(i), sys.traceName(i),
                  std::to_string(s.instrRetired),
                  std::to_string(s.finishCycle),
                  TablePrinter::num(s.ipc()), TablePrinter::num(s.mcpi()),
                  std::to_string(s.rngRequests)});
    }
    t.print(std::cout);

    if (const auto rep = sys.mc().faultReport()) {
        std::cout << "\nfault injection (" << rep->models << ", monitor "
                  << (rep->monitor ? "on" : "off") << "):\n"
                  << "  rounds  passed: " << rep->roundsAudited
                  << "  discarded: " << rep->roundsDiscarded << " (stuck "
                  << rep->discardsStuck << ", weak " << rep->discardsWeak
                  << ", other " << rep->discardsOther << ")\n"
                  << "  silent corrupted bits: " << rep->corruptedBits
                  << "\n  cells  blacklisted: " << rep->blacklisted
                  << "  remapped: " << rep->remapped
                  << "  forced: " << rep->forcedBlacklists
                  << "  spares exhausted: " << rep->blacklistExhausted
                  << "\n";
    }

    if (const service::OpenLoopService *svc = sys.service()) {
        const service::SloReport rep =
            service::SloReport::from(svc->config(), svc->stats());
        std::cout << "\nservice (" << rep.arrival << ", "
                  << rep.offeredMbps << " Mb/s offered, "
                  << rep.shedPolicy << "):\n"
                  << "  completed: " << rep.completed << "/"
                  << rep.offered << "  shed: " << rep.shed << " ("
                  << TablePrinter::num(rep.pctShed) << "%)  goodput: "
                  << TablePrinter::num(rep.goodputRps) << " req/s\n"
                  << "  latency cycles  p50: " << rep.p50
                  << "  p99: " << rep.p99 << "  p999: " << rep.p999
                  << "  max: " << rep.maxLatency << "\n"
                  << "  over SLO (>" << rep.sloTargetCycles
                  << "): " << TablePrinter::num(rep.pctOverSlo)
                  << "%  saturated: " << (rep.saturated ? "yes" : "no")
                  << "\n";
    }
    return 0;
}
