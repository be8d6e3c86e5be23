/**
 * @file
 * On-disk persistence for simulation results. Two layers live here:
 *
 * 1. ResultStore — a crash-safe, multi-process-shared cache directory
 *    for alone-run baselines (`DS_CACHE_DIR`). sim::Runner consults it
 *    inside its in-memory alone-run cache, so repeated bench
 *    invocations (and concurrent processes pointed at one directory)
 *    stop recomputing the same single-app baselines.
 *
 * 2. Free-function JSON (de)serialization of Runner::WorkloadResult
 *    and AloneResult, reusing JsonWriter on the way out and the small
 *    JsonValue reader on the way in. Doubles use exact (shortest
 *    round-trip) formatting, so a deserialized result is bit-identical
 *    to the one serialized.
 */

#ifndef DSTRANGE_SIM_RESULT_STORE_H
#define DSTRANGE_SIM_RESULT_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "sim/metrics.h"
#include "sim/runner.h"

namespace dstrange::sim {

/**
 * Persistent alone-run cache over one directory. Each baseline lives in
 * its own JSON file named by the hash of its cache key (the trace
 * identity plus the full canonical config serialization — the same key
 * Runner's in-memory cache uses), stamped with a schema/build
 * fingerprint.
 *
 * Safety properties:
 *  - Writes are atomic (temp file + rename), so a crash mid-write can
 *    never leave a half-written file where a reader finds it.
 *  - An advisory file lock (POSIX flock on `<dir>/.lock`) serializes
 *    writers and excludes readers during the rename window, so any
 *    number of concurrent processes can share one directory.
 *  - Every file embeds its full key text and fingerprint; a hash
 *    collision, a stale fingerprint (schema bump, different compiler),
 *    or a truncated/corrupt file is treated as a miss and recomputed,
 *    never trusted.
 *
 * Hit/miss/store counters are cumulative over the store's lifetime and
 * safe to read concurrently.
 */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) a cache directory.
     * @param dir          Directory for cache files.
     * @param fingerprint  Version stamp embedded in (and required of)
     *                     every file; empty selects buildFingerprint().
     * @throws std::runtime_error when the directory cannot be created.
     */
    explicit ResultStore(std::string dir, std::string fingerprint = "");

    /** Store configured by DS_CACHE_DIR, or nullptr when unset/empty
     *  (the default: no persistence). An unusable directory also
     *  yields nullptr, with a stderr warning — the env path degrades
     *  instead of throwing out of Runner's constructor. */
    static std::shared_ptr<ResultStore> openFromEnv();

    /**
     * The default version stamp: cache schema version, the compiler
     * identification, a build-time hash of the entire src/ tree (so
     * editing any simulator source invalidates cached baselines
     * automatically), and the DS_FAST_FORWARD engine mode (so a
     * step-1 validation run never consumes fast-forward-computed
     * baselines). Old files read as misses after any change.
     */
    static std::string buildFingerprint();

    /** Cached baseline for @p key, or nullopt on any miss (absent,
     *  corrupt, wrong key, or wrong fingerprint). Never throws. A hit
     *  refreshes the file's mtime so size-bounded eviction (see
     *  setMaxBytes) approximates LRU over *uses*, not just writes. */
    std::optional<AloneResult> loadAlone(const std::string &key) const;

    /** Persist a baseline (atomic; last writer wins). Returns false on
     *  I/O failure — callers lose persistence, not correctness. When a
     *  size bound is set, the store then evicts oldest-mtime cache
     *  files until the directory fits the budget again. */
    bool storeAlone(const std::string &key,
                    const AloneResult &result) const;

    /**
     * Bound the total size of cache files in the directory (bytes;
     * 0 = unlimited, the default). The constructor seeds this from the
     * DS_CACHE_MAX_MB environment variable. Enforcement happens on
     * store, under the directory's exclusive lock, by removing the
     * least-recently-used (oldest mtime) `alone-*.json` files first;
     * concurrent readers of an evicted file simply miss and recompute.
     */
    void setMaxBytes(std::uint64_t bytes) { maxBytes = bytes; }
    std::uint64_t maxBytesBound() const { return maxBytes; }

    const std::string &dir() const { return root; }
    const std::string &fingerprint() const { return stamp; }

    /** Baselines served from disk since this store was opened. */
    std::uint64_t hits() const { return nHits.load(); }
    /** Lookups that fell through to recomputation. */
    std::uint64_t misses() const { return nMisses.load(); }
    /** Baselines written to disk. */
    std::uint64_t stores() const { return nStores.load(); }

  private:
    std::string filePath(const std::string &key) const;
    /** Delete oldest-mtime cache files until the budget is met. Must
     *  be called with the exclusive directory lock held; never throws. */
    void evictOverBudget() const;
    /**
     * Remove `*.tmp.*` droppings left behind by writers that crashed
     * between creating a temp file and renaming it. Age-gated (only
     * files older than ten minutes), so an in-flight write by a live
     * concurrent process is never touched. Runs at most once per store,
     * on the first write, under the exclusive directory lock; never
     * throws.
     */
    void sweepStaleTmp() const;

    std::string root;
    std::string stamp;
    std::uint64_t maxBytes = 0;
    mutable std::atomic<bool> tmpSwept{false};
    mutable std::atomic<std::uint64_t> nHits{0};
    mutable std::atomic<std::uint64_t> nMisses{0};
    mutable std::atomic<std::uint64_t> nStores{0};
};

/** Serialize an alone-run baseline as a JSON value (exact doubles). */
void writeAloneResult(JsonWriter &w, const AloneResult &result);

/** Parse an alone-run baseline written by writeAloneResult().
 *  @throws std::runtime_error / std::invalid_argument on malformed
 *  input. */
AloneResult aloneResultFromJson(const JsonValue &v);

/** Serialize a full workload result as a JSON value (exact doubles). */
void writeWorkloadResult(JsonWriter &w,
                         const Runner::WorkloadResult &result);

/** Parse a workload result written by writeWorkloadResult().
 *  @throws std::runtime_error / std::invalid_argument on malformed
 *  input. */
Runner::WorkloadResult workloadResultFromJson(const JsonValue &v);

/** writeWorkloadResult() as a standalone JSON document string. */
std::string serializeWorkloadResult(const Runner::WorkloadResult &result);

/** Parse a document produced by serializeWorkloadResult(). */
Runner::WorkloadResult parseWorkloadResult(const std::string &text);

} // namespace dstrange::sim

#endif // DSTRANGE_SIM_RESULT_STORE_H
