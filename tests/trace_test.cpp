/**
 * @file
 * Tests for the binary request-trace subsystem: record→load round
 * trips (including randomized record streams and every port/priority
 * shape), hard-error handling for truncated, torn, and corrupted
 * files, crash-safety of the tmp+rename write path, and full-system
 * replay bit-identity against live runs across design presets.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "api/simulation_builder.h"
#include "common/json_writer.h"
#include "fault/fault_plane.h"
#include "sim/config_text.h"
#include "sim/design_registry.h"
#include "sim/lockstep.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

using namespace dstrange;

namespace fs = std::filesystem;

namespace {

/** Self-cleaning unique temporary directory (gtest's TempDir root). */
class TempDir
{
  public:
    TempDir()
    {
        // gtest_discover_tests runs every case as its own process of
        // this binary, so a per-process counter alone collides across
        // parallel ctest jobs — qualify the name with the PID.
        static int counter = 0;
#ifdef _WIN32
        const int pid = _getpid();
#else
        const int pid = ::getpid();
#endif
        path = fs::path(::testing::TempDir()) /
               ("drstrange-trace-" + std::to_string(pid) + "-" +
                std::to_string(++counter));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
    std::string file(const std::string &leaf) const
    {
        return (path / leaf).string();
    }

  private:
    fs::path path;
};

trace::TraceHeader
dualPortHeader()
{
    trace::TraceHeader header;
    header.ports.resize(2);
    header.ports[0].priority = 3;
    header.ports[0].hasPriority = true;
    header.servicePort = -1;
    return header;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

} // namespace

// ---------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------

TEST(TraceFormat, EmptyTraceRoundTrips)
{
    TempDir dir;
    const std::string path = dir.file("empty.bin");
    trace::TraceWriter w(path, dualPortHeader());
    w.finalize(1234);

    const trace::TraceTape tape = trace::loadTrace(path);
    EXPECT_EQ(tape.numPorts(), 2u);
    EXPECT_TRUE(tape.records.empty());
    EXPECT_EQ(tape.endCycle, 1234u);
    EXPECT_EQ(tape.header.servicePort, -1);
    EXPECT_EQ(tape.header.ports[0].priority, 3);
    EXPECT_TRUE(tape.header.ports[0].hasPriority);
    EXPECT_FALSE(tape.header.ports[1].hasPriority);
}

TEST(TraceFormat, RandomStreamsRoundTripExactly)
{
    TempDir dir;
    std::mt19937_64 rng(7);
    for (int iter = 0; iter < 20; ++iter) {
        const unsigned n_ports = 1 + static_cast<unsigned>(rng() % 5);
        trace::TraceHeader header;
        header.ports.resize(n_ports);
        for (auto &p : header.ports) {
            p.hasPriority = rng() % 2 == 0;
            p.priority = p.hasPriority
                             ? static_cast<std::int32_t>(rng() % 17) - 8
                             : 0;
        }
        header.servicePort =
            rng() % 2 == 0 ? static_cast<std::int32_t>(n_ports) - 1 : -1;

        std::vector<trace::TraceRecord> recs(rng() % 200);
        Cycle cycle = 0;
        for (auto &rec : recs) {
            cycle += rng() % 5; // Monotonic, duplicates allowed.
            rec.cycle = cycle;
            rec.addr = rng();
            rec.type = static_cast<std::uint8_t>(rng() % 3);
            rec.port = static_cast<std::uint8_t>(rng() % n_ports);
            rec.priority = static_cast<std::int32_t>(rng() % 9) - 4;
        }

        const std::string path =
            dir.file("rt" + std::to_string(iter) + ".bin");
        trace::TraceWriter w(path, header);
        for (const auto &rec : recs)
            w.append(rec);
        w.finalize(cycle + 1);
        EXPECT_EQ(w.recordCount(), recs.size());

        const trace::TraceTape tape = trace::loadTrace(path);
        ASSERT_EQ(tape.records.size(), recs.size());
        EXPECT_EQ(tape.endCycle, cycle + 1);
        ASSERT_EQ(tape.numPorts(), n_ports);
        EXPECT_EQ(tape.header.servicePort, header.servicePort);
        for (unsigned p = 0; p < n_ports; ++p) {
            EXPECT_EQ(tape.header.ports[p].priority,
                      header.ports[p].priority);
            EXPECT_EQ(tape.header.ports[p].hasPriority,
                      header.ports[p].hasPriority);
        }
        for (std::size_t i = 0; i < recs.size(); ++i) {
            EXPECT_EQ(tape.records[i].cycle, recs[i].cycle);
            EXPECT_EQ(tape.records[i].addr, recs[i].addr);
            EXPECT_EQ(tape.records[i].type, recs[i].type);
            EXPECT_EQ(tape.records[i].port, recs[i].port);
            EXPECT_EQ(tape.records[i].priority, recs[i].priority);
        }
    }
}

// ---------------------------------------------------------------------
// Hard errors — a damaged tape must never load partially.
// ---------------------------------------------------------------------

namespace {

/** A small valid finalized trace to damage. */
std::string
makeValidTrace(const TempDir &dir, const std::string &leaf)
{
    const std::string path = dir.file(leaf);
    trace::TraceWriter w(path, dualPortHeader());
    for (Cycle c = 0; c < 10; ++c) {
        trace::TraceRecord rec;
        rec.cycle = c * 3;
        rec.addr = 0x1000 + c;
        rec.type = static_cast<std::uint8_t>(c % 3);
        rec.port = static_cast<std::uint8_t>(c % 2);
        rec.priority = 0;
        w.append(rec);
    }
    w.finalize(100);
    return path;
}

} // namespace

TEST(TraceFormat, MissingFileIsHardError)
{
    EXPECT_THROW(trace::loadTrace("/no/such/trace.bin"),
                 std::runtime_error);
}

TEST(TraceFormat, WrongMagicIsHardError)
{
    TempDir dir;
    const std::string path = makeValidTrace(dir, "t.bin");
    std::string data = readFile(path);
    data[0] = 'X';
    writeFile(path, data);
    EXPECT_THROW(trace::loadTrace(path), std::runtime_error);
}

TEST(TraceFormat, UnsupportedVersionIsHardError)
{
    TempDir dir;
    const std::string path = makeValidTrace(dir, "t.bin");
    std::string data = readFile(path);
    data[4] = 99;
    writeFile(path, data);
    try {
        trace::loadTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(TraceFormat, TruncationIsHardError)
{
    TempDir dir;
    const std::string path = makeValidTrace(dir, "t.bin");
    const std::string data = readFile(path);
    // Every possible truncation point must fail loudly, whether it
    // tears the header, a record, or the footer.
    for (std::size_t len : {std::size_t{3}, std::size_t{10},
                            data.size() / 2, data.size() - 1}) {
        writeFile(path, data.substr(0, len));
        EXPECT_THROW(trace::loadTrace(path), std::runtime_error)
            << "truncated to " << len << " bytes";
    }
}

TEST(TraceFormat, MissingFooterIsHardError)
{
    TempDir dir;
    const std::string path = dir.file("unfinalized.bin");
    {
        trace::TraceWriter w(path, dualPortHeader());
        trace::TraceRecord rec;
        rec.cycle = 1;
        rec.addr = 2;
        rec.type = 0;
        rec.port = 0;
        rec.priority = 0;
        w.append(rec);
        // No finalize(): the destructor removes the tmp file, so the
        // target path never appears — crash-safety by construction.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(TraceFormat, CorruptRecordByteFailsTheFingerprint)
{
    TempDir dir;
    const std::string path = makeValidTrace(dir, "t.bin");
    std::string data = readFile(path);
    // Flip one bit inside the record region (past the 2-port header).
    const std::size_t header_size =
        trace::kHeaderFixedBytes + 2 * trace::kPortEntryBytes;
    data[header_size + 5] ^= 0x40;
    writeFile(path, data);
    try {
        trace::loadTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos);
    }
}

TEST(TraceFormat, RecordCountMismatchIsHardError)
{
    TempDir dir;
    const std::string path = makeValidTrace(dir, "t.bin");
    std::string data = readFile(path);
    // Remove exactly one record, keeping the footer: the byte layout
    // stays record-aligned, so the count check must catch it.
    const std::size_t foot = data.size() - trace::kFooterBytes;
    const std::string damaged =
        data.substr(0, foot - trace::kRecordBytes) + data.substr(foot);
    writeFile(path, damaged);
    try {
        trace::loadTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("count"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Full-system record → replay bit-identity.
// ---------------------------------------------------------------------

namespace {

std::vector<std::unique_ptr<cpu::TraceSource>>
dualCoreTraces(const sim::SimConfig &cfg)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    traces.push_back(std::make_unique<workloads::SyntheticTrace>(
        workloads::appByName("soplex"), cfg.geometry, 0, cfg.seed));
    traces.push_back(std::make_unique<workloads::RngBenchmark>(
        2560.0, cfg.geometry, cfg.seed + 1));
    return traces;
}

/** The controller-side slice of the lockstep fingerprint: everything
 *  from the "mc." line on, minus "svc." lines (neither cores nor the
 *  service front-end exist in a replay run — only their request
 *  streams do). */
std::string
mcFingerprint(const sim::System &sys)
{
    const std::string full = sim::systemFingerprint(sys);
    const std::size_t pos = full.find("mc.");
    std::istringstream in(pos == std::string::npos ? full
                                                   : full.substr(pos));
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("svc.", 0) != 0)
            out << line << '\n';
    return out.str();
}

} // namespace

TEST(TraceReplay, ReplayIsBitIdenticalAcrossPresets)
{
    TempDir dir;
    for (const std::string design : {"oblivious", "drstrange"}) {
        sim::SimConfig cfg = sim::SimulationBuilder().design(design).config();
        cfg.instrBudget = 5000;
        const std::string path =
            dir.file(design + ".bin");

        cfg.traceRecord = path;
        sim::System live(cfg, dualCoreTraces(cfg));
        live.run();
        ASSERT_TRUE(fs::exists(path));

        cfg.traceRecord.clear();
        cfg.traceReplay = path;
        sim::System replay(cfg, {});
        replay.run();

        EXPECT_EQ(replay.busCycles(), live.busCycles())
            << design;
        EXPECT_EQ(mcFingerprint(replay), mcFingerprint(live))
            << design;
        ASSERT_NE(replay.replaySource(), nullptr);
        EXPECT_TRUE(replay.replaySource()->finished());
    }
}

TEST(TraceReplay, ServicePortRecordsReplayBitIdentically)
{
    TempDir dir;
    sim::SimConfig cfg;
    sim::DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 5000;
    cfg.service.enabled = true;
    cfg.service.offeredMbps = 1280.0;
    cfg.service.durationCycles = 20000;
    const std::string path = dir.file("svc.bin");

    cfg.traceRecord = path;
    sim::System live(cfg, dualCoreTraces(cfg));
    live.run();

    const trace::TraceTape tape = trace::loadTrace(path);
    EXPECT_EQ(tape.numPorts(), 3u);
    EXPECT_EQ(tape.header.servicePort, 2);

    cfg.traceRecord.clear();
    cfg.traceReplay = path;
    sim::System replay(cfg, {});
    replay.run();
    EXPECT_EQ(replay.busCycles(), live.busCycles());
    EXPECT_EQ(mcFingerprint(replay), mcFingerprint(live));
}

TEST(TraceReplay, ReplayPreservesRecordedPriorities)
{
    TempDir dir;
    sim::SimConfig cfg;
    sim::DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 5000;
    cfg.priorities = {4, 1};
    const std::string path = dir.file("prio.bin");

    cfg.traceRecord = path;
    sim::System live(cfg, dualCoreTraces(cfg));
    live.run();

    const trace::TraceTape tape = trace::loadTrace(path);
    ASSERT_EQ(tape.numPorts(), 2u);
    EXPECT_TRUE(tape.header.ports[0].hasPriority);
    EXPECT_EQ(tape.header.ports[0].priority, 4);
    EXPECT_EQ(tape.header.ports[1].priority, 1);

    cfg.traceRecord.clear();
    cfg.traceReplay = path;
    cfg.priorities.clear(); // Replay takes priorities from the tape.
    sim::System replay(cfg, {});
    replay.run();
    EXPECT_EQ(mcFingerprint(replay), mcFingerprint(live));
}

TEST(TraceReplay, RerecordingAReplayReproducesTheTapeByteForByte)
{
    TempDir dir;
    sim::SimConfig cfg;
    sim::DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 5000;
    const std::string first = dir.file("first.bin");
    const std::string second = dir.file("second.bin");

    cfg.traceRecord = first;
    sim::System live(cfg, dualCoreTraces(cfg));
    live.run();

    cfg.traceRecord = second;
    cfg.traceReplay = first;
    sim::System replay(cfg, {});
    replay.run();
    EXPECT_EQ(readFile(first), readFile(second));
}

TEST(TraceReplay, RunnerReplayPathSkipsBaselines)
{
    TempDir dir;
    sim::SimConfig cfg;
    sim::DesignRegistry::instance().apply("drstrange", cfg);
    cfg.instrBudget = 5000;
    const std::string path = dir.file("runner.bin");

    workloads::WorkloadSpec spec;
    spec.name = "soplex+rng";
    spec.apps = {"soplex"};
    spec.rngThroughputMbps = 2560.0;

    cfg.traceRecord = path;
    sim::Runner live_runner(cfg, nullptr);
    const auto live = live_runner.run(cfg, spec);

    cfg.traceRecord.clear();
    cfg.traceReplay = path;
    sim::Runner replay_runner(cfg, nullptr);
    const auto replayed = replay_runner.run(cfg, spec);

    EXPECT_TRUE(replayed.cores.empty());
    EXPECT_EQ(replayed.busCycles, live.busCycles);
    EXPECT_EQ(replayed.energyNj, live.energyNj);
    EXPECT_EQ(replayed.bufferServeRate, live.bufferServeRate);
}

TEST(TraceReplay, RunnerReplayKeepsTheFaultReport)
{
    TempDir dir;
    sim::SimConfig cfg = sim::parseConfig(
        "design=drstrange budget=5000 fault.models=bitflip,weak-cell "
        "fault.monitor=1 fault.seed=3");
    const std::string path = dir.file("fault.bin");

    workloads::WorkloadSpec spec;
    spec.name = "soplex+rng";
    spec.apps = {"soplex"};
    spec.rngThroughputMbps = 2560.0;

    cfg.traceRecord = path;
    const auto live = sim::Runner(cfg, nullptr).run(cfg, spec);
    cfg.traceRecord.clear();
    cfg.traceReplay = path;
    const auto replayed = sim::Runner(cfg, nullptr).run(cfg, spec);

    const auto json = [](const fault::FaultReport &rep) {
        JsonWriter w;
        rep.writeJson(w);
        return w.str();
    };
    ASSERT_TRUE(live.fault.has_value());
    ASSERT_TRUE(replayed.fault.has_value());
    EXPECT_GT(live.fault->roundsAudited + live.fault->roundsDiscarded, 0u);
    EXPECT_EQ(json(*replayed.fault), json(*live.fault));
}
