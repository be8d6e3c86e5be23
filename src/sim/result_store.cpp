#include "sim/result_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "common/env_util.h"
#include "common/types.h"

#if __has_include("drstrange_source_fingerprint.h")
#include "drstrange_source_fingerprint.h"
#endif

namespace dstrange::sim {

namespace {

namespace fs = std::filesystem;

/** Bump on any change to the cache layout or to simulator numerics
 *  that existing cached baselines would misrepresent. */
constexpr const char *kSchemaVersion = "drstrange-alone-cache-v1";

/**
 * RAII advisory lock on `<dir>/.lock`. Shared for reads, exclusive for
 * writes. Advisory locking only coordinates cooperating ResultStore
 * processes — that is all the cache needs, since the files themselves
 * are only ever replaced atomically. A failure to acquire (exotic
 * filesystems without flock support) degrades to lock-free operation,
 * which is still crash-safe thanks to the rename protocol.
 */
class DirLock
{
  public:
    DirLock(const std::string &dir, bool exclusive)
    {
#ifndef _WIN32
        fd = ::open((dir + "/.lock").c_str(), O_CREAT | O_RDWR, 0666);
        if (fd >= 0 && ::flock(fd, exclusive ? LOCK_EX : LOCK_SH) != 0) {
            ::close(fd);
            fd = -1;
        }
#else
        (void)dir;
        (void)exclusive;
#endif
    }

    ~DirLock()
    {
#ifndef _WIN32
        if (fd >= 0) {
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
#endif
    }

    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

  private:
#ifndef _WIN32
    int fd = -1;
#endif
};

std::string
hexHash(const std::string &key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return buf;
}

std::optional<std::string>
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return buf.str();
}

} // namespace

ResultStore::ResultStore(std::string dir, std::string fingerprint)
    : root(std::move(dir)),
      stamp(fingerprint.empty() ? buildFingerprint()
                                : std::move(fingerprint))
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec || !fs::is_directory(root))
        throw std::runtime_error("cannot create cache directory '" +
                                 root + "': " + ec.message());
    maxBytes = envU64("DS_CACHE_MAX_MB", 0) * 1024 * 1024;
}

std::shared_ptr<ResultStore>
ResultStore::openFromEnv()
{
    const char *dir = std::getenv("DS_CACHE_DIR");
    if (!dir || *dir == '\0')
        return nullptr;
    // An unusable directory degrades to no persistence (with a
    // warning) rather than aborting every binary that links the
    // library: the cache is an optimization, and this runs inside
    // Runner's constructor where callers cannot reasonably catch.
    // Explicit construction (ResultStore(dir), passed to Runner or
    // SweepRunner) still throws, so deliberate API use keeps the hard
    // error.
    try {
        return std::make_shared<ResultStore>(dir);
    } catch (const std::exception &e) {
        std::cerr << "DS_CACHE_DIR: " << e.what()
                  << " — continuing without a persistent cache\n";
        return nullptr;
    }
}

std::string
ResultStore::buildFingerprint()
{
    std::string fp = kSchemaVersion;
    // Compiler identification: a different compiler (or major version)
    // may evaluate floating-point expressions differently, and cached
    // baselines must never cross that boundary.
#ifdef __VERSION__
    fp += "|cc:";
    fp += __VERSION__;
#endif
    // Source-tree hash, generated at build time (see
    // cmake/source_fingerprint.cmake): editing any simulator source
    // invalidates every cached baseline automatically, so stale
    // results cannot survive a behavioural change that a human forgot
    // to version-bump.
#ifdef DRSTRANGE_SOURCE_FINGERPRINT
    fp += "|src:";
    fp += DRSTRANGE_SOURCE_FINGERPRINT;
#endif
    // Engine mode: fast-forward results are lockstep-verified
    // bit-identical to step-1, but someone running DS_FAST_FORWARD=0
    // is usually *validating* that claim — serving them baselines
    // computed on the other path would defeat the exercise.
    fp += envFlag("DS_FAST_FORWARD", true) ? "|ff:1" : "|ff:0";
    return fp;
}

std::string
ResultStore::filePath(const std::string &key) const
{
    return root + "/alone-" + hexHash(key) + ".json";
}

std::optional<AloneResult>
ResultStore::loadAlone(const std::string &key) const
{
    const std::string path = filePath(key);
    std::optional<std::string> text;
    {
        DirLock lock(root, /*exclusive=*/false);
        text = readWholeFile(path);
    }
    if (text) {
        try {
            const JsonValue doc = JsonValue::parse(*text);
            if (doc.at("schema").asString() == kSchemaVersion &&
                doc.at("fingerprint").asString() == stamp &&
                doc.at("key").asString() == key) {
                AloneResult res = aloneResultFromJson(doc.at("result"));
                nHits.fetch_add(1);
                // Refresh recency so LRU eviction spares hot baselines.
                std::error_code ec;
                fs::last_write_time(
                    path, fs::file_time_type::clock::now(), ec);
                return res;
            }
        } catch (const std::exception &) {
            // Truncated, corrupt, or foreign file: fall through to a
            // miss and let the caller recompute (and overwrite it).
        }
    }
    nMisses.fetch_add(1);
    return std::nullopt;
}

bool
ResultStore::storeAlone(const std::string &key,
                        const AloneResult &result) const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value(kSchemaVersion);
    w.key("fingerprint").value(stamp);
    w.key("key").value(key);
    w.key("result");
    writeAloneResult(w, result);
    w.endObject();

    const std::string path = filePath(key);
    // Unique temp name per process so two concurrent writers never
    // interleave into one temp file; the rename publishes atomically.
    const std::string tmp =
        path + ".tmp." +
#ifndef _WIN32
        std::to_string(::getpid());
#else
        "w";
#endif

    DirLock lock(root, /*exclusive=*/true);
    sweepStaleTmp(); // First write only; under the exclusive lock.
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << w.str() << "\n";
        out.flush();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    nStores.fetch_add(1);
    if (maxBytes > 0)
        evictOverBudget(); // Still under the exclusive lock.
    return true;
}

void
ResultStore::sweepStaleTmp() const
{
    if (tmpSwept.exchange(true))
        return;
    // A crashed writer leaves `<name>.json.tmp.<pid>` behind — rename
    // never ran, so nothing references the file. Ten minutes is orders
    // of magnitude beyond any single write, which keeps live writers
    // from other processes safe even without examining their pids.
    constexpr auto kMinAge = std::chrono::minutes(10);
    const auto now = fs::file_time_type::clock::now();
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        std::error_code fec;
        const fs::file_time_type mtime = de.last_write_time(fec);
        if (fec || now - mtime < kMinAge)
            continue;
        fs::remove(de.path(), fec);
    }
}

void
ResultStore::evictOverBudget() const
{
    // Collect every cache file with its size and mtime; anything the
    // filesystem refuses to describe is simply skipped (the budget is
    // best-effort, never a correctness property).
    struct Entry
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.rfind("alone-", 0) != 0 ||
            name.find(".json") == std::string::npos)
            continue;
        std::error_code fec;
        const std::uint64_t size = de.file_size(fec);
        if (fec)
            continue;
        const fs::file_time_type mtime = de.last_write_time(fec);
        if (fec)
            continue;
        entries.push_back({de.path(), size, mtime});
        total += size;
    }
    if (total <= maxBytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    // Oldest first; removal is an atomic unlink, so a reader either
    // still sees the whole file or a clean miss — never a torn read.
    for (const Entry &e : entries) {
        if (total <= maxBytes)
            break;
        std::error_code rec;
        if (fs::remove(e.path, rec) && !rec)
            total -= e.size;
    }
}

void
writeAloneResult(JsonWriter &w, const AloneResult &result)
{
    w.beginObject();
    w.key("exec_cpu_cycles").valueExact(result.execCpuCycles);
    w.key("ipc").valueExact(result.ipc);
    w.key("mcpi").valueExact(result.mcpi);
    w.endObject();
}

AloneResult
aloneResultFromJson(const JsonValue &v)
{
    AloneResult res;
    res.execCpuCycles = v.at("exec_cpu_cycles").asDouble();
    res.ipc = v.at("ipc").asDouble();
    res.mcpi = v.at("mcpi").asDouble();
    return res;
}

void
writeWorkloadResult(JsonWriter &w, const Runner::WorkloadResult &result)
{
    w.beginObject();
    w.key("name").value(result.name);
    w.key("group").value(result.group);
    w.key("unfairness_index").valueExact(result.unfairnessIndex);
    w.key("weighted_speedup_non_rng")
        .valueExact(result.weightedSpeedupNonRng);
    w.key("buffer_serve_rate").valueExact(result.bufferServeRate);
    w.key("predictor_accuracy").valueExact(result.predictorAccuracy);
    w.key("bus_cycles").value(static_cast<std::uint64_t>(result.busCycles));
    w.key("energy_nj").valueExact(result.energyNj);
    w.key("cores").beginArray();
    for (const Runner::CoreResult &c : result.cores) {
        w.beginObject();
        w.key("app").value(c.app);
        w.key("is_rng").value(c.isRng);
        w.key("slowdown").valueExact(c.slowdown);
        w.key("mem_slowdown").valueExact(c.memSlowdown);
        w.key("ipc_shared").valueExact(c.ipcShared);
        w.key("ipc_alone").valueExact(c.ipcAlone);
        w.key("rng_stall_fraction").valueExact(c.rngStallFraction);
        w.endObject();
    }
    w.endArray();
    const mem::McStats &mc = result.mcStats;
    w.key("mc_stats").beginObject();
    w.key("read_requests").value(mc.readRequests);
    w.key("write_requests").value(mc.writeRequests);
    w.key("rng_requests").value(mc.rngRequests);
    w.key("rng_served_from_buffer").value(mc.rngServedFromBuffer);
    w.key("rng_served_from_staging").value(mc.rngServedFromStaging);
    w.key("rng_jobs_completed").value(mc.rngJobsCompleted);
    w.key("reads_completed").value(mc.readsCompleted);
    w.key("sum_read_latency").value(mc.sumReadLatency);
    w.key("sum_rng_latency").value(mc.sumRngLatency);
    w.endObject();
    w.key("idle_periods").beginArray();
    for (const std::uint32_t p : result.idlePeriods)
        w.value(static_cast<std::uint64_t>(p));
    w.endArray();
    if (result.service) {
        w.key("service");
        result.service->writeJson(w);
    }
    if (result.fault) {
        w.key("fault");
        result.fault->writeJson(w);
    }
    w.endObject();
}

Runner::WorkloadResult
workloadResultFromJson(const JsonValue &v)
{
    Runner::WorkloadResult res;
    res.name = v.at("name").asString();
    res.group = v.at("group").asString();
    res.unfairnessIndex = v.at("unfairness_index").asDouble();
    res.weightedSpeedupNonRng =
        v.at("weighted_speedup_non_rng").asDouble();
    res.bufferServeRate = v.at("buffer_serve_rate").asDouble();
    res.predictorAccuracy = v.at("predictor_accuracy").asDouble();
    res.busCycles = v.at("bus_cycles").asU64();
    res.energyNj = v.at("energy_nj").asDouble();
    for (const JsonValue &cv : v.at("cores").array()) {
        Runner::CoreResult c;
        c.app = cv.at("app").asString();
        c.isRng = cv.at("is_rng").asBool();
        c.slowdown = cv.at("slowdown").asDouble();
        c.memSlowdown = cv.at("mem_slowdown").asDouble();
        c.ipcShared = cv.at("ipc_shared").asDouble();
        c.ipcAlone = cv.at("ipc_alone").asDouble();
        c.rngStallFraction = cv.at("rng_stall_fraction").asDouble();
        res.cores.push_back(std::move(c));
    }
    const JsonValue &mc = v.at("mc_stats");
    res.mcStats.readRequests = mc.at("read_requests").asU64();
    res.mcStats.writeRequests = mc.at("write_requests").asU64();
    res.mcStats.rngRequests = mc.at("rng_requests").asU64();
    res.mcStats.rngServedFromBuffer =
        mc.at("rng_served_from_buffer").asU64();
    res.mcStats.rngServedFromStaging =
        mc.at("rng_served_from_staging").asU64();
    res.mcStats.rngJobsCompleted = mc.at("rng_jobs_completed").asU64();
    res.mcStats.readsCompleted = mc.at("reads_completed").asU64();
    res.mcStats.sumReadLatency = mc.at("sum_read_latency").asU64();
    res.mcStats.sumRngLatency = mc.at("sum_rng_latency").asU64();
    for (const JsonValue &p : v.at("idle_periods").array())
        res.idlePeriods.push_back(static_cast<std::uint32_t>(p.asU64()));
    if (const JsonValue *svc = v.find("service"))
        res.service = service::SloReport::fromJson(*svc);
    if (const JsonValue *flt = v.find("fault"))
        res.fault = fault::FaultReport::fromJson(*flt);
    return res;
}

std::string
serializeWorkloadResult(const Runner::WorkloadResult &result)
{
    JsonWriter w;
    writeWorkloadResult(w, result);
    return w.str();
}

Runner::WorkloadResult
parseWorkloadResult(const std::string &text)
{
    return workloadResultFromJson(JsonValue::parse(text));
}

} // namespace dstrange::sim
