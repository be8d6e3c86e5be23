/**
 * @file
 * The memory controller: per-channel read/write queues, write-drain and
 * refresh handling, pluggable intra-queue schedulers, and the RNG service
 * machinery (oblivious on-demand generation, RNG-aware queueing, random
 * number buffering, greedy-oracle fill, and predictor-driven fill).
 *
 * All three of the paper's system designs — RNG-Oblivious baseline,
 * Greedy Idle, and DR-STRaNGe — are configurations of this one class, so
 * they share every substrate code path and differ only in policy.
 */

#ifndef DSTRANGE_MEM_MEMORY_CONTROLLER_H
#define DSTRANGE_MEM_MEMORY_CONTROLLER_H

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/pop_vector.h"
#include "dram/address_mapper.h"
#include "dram/dram_channel.h"
#include "dram/dram_timings.h"
#include "fault/fault_config.h"
#include "mem/fr_fcfs.h"
#include "mem/request.h"
#include "mem/request_queue.h"
#include "mem/rng_aware.h"
#include "mem/scheduler.h"
#include "strange/idleness_predictor.h"
#include "strange/buffer_set.h"
#include "strange/random_buffer.h"
#include "strange/rl_predictor.h"
#include "strange/simple_predictor.h"
#include "trng/rng_engine.h"
#include "trng/trng_mechanism.h"

namespace dstrange::fault {
class FaultPlane;
struct FaultReport;
}

namespace dstrange::mem {

/** How random bits are proactively generated for the buffer. */
enum class FillMode : std::uint8_t
{
    None,         ///< Never fill; generate on demand only.
    GreedyOracle, ///< Zero-overhead oracle fill (Greedy Idle design).
    Engine,       ///< Real RNG-mode fill driven by the idleness logic.
};

/**
 * Parse a fill-mode name ("none"/"greedy-oracle"/"engine") as used by
 * McConfig::fillPolicy and the config text format.
 * @throws std::out_of_range on an unknown name.
 */
FillMode fillModeFromName(const std::string &name);

/**
 * Controller sizing and scheduler tuning, fixed at the values the paper
 * evaluates (no configuration varies them).
 */
inline constexpr unsigned kReadQueueCap = 32;  ///< Per channel.
inline constexpr unsigned kWriteQueueCap = 32; ///< Per channel.
inline constexpr unsigned kRngQueueCap = 32;   ///< Shared RNG job queue.
/** Write drain starts at this write-queue occupancy... */
inline constexpr unsigned kWriteDrainHigh = 28;
/** ...and stops at this one once reads wait again. */
inline constexpr unsigned kWriteDrainLow = 8;
/** FR-FCFS-Cap: max consecutive row hits served per bank. */
inline constexpr unsigned kColumnCap = 16;
/** BLISS: an application with this many consecutive requests served
 *  is blacklisted... */
inline constexpr unsigned kBlissThreshold = 4;
/** ...and the period at which the blacklist is cleared. */
inline constexpr Cycle kBlissClearingInterval = 10000;
/** Latency of an RNG request served from the buffer or staging. */
inline constexpr Cycle kBufferServeLatency = 2;
/** Idleness-predictor table entries per channel. */
inline constexpr unsigned kPredictorEntries = 256;

/**
 * The memory system's configuration: every knob the controller, its
 * channels and the TRNG engines read, each declared once and set from
 * outside through one config-text key (sim/config_text.h).
 * sim::SimConfig derives from it and adds the run-level knobs. A
 * default-constructed McConfig selects the full DR-STRaNGe design (the
 * "drstrange" row of sim::kPaperDesigns).
 *
 * The member functions derive the values the controller acts on; the
 * controller computes each once, at construction.
 */
struct McConfig
{
    // --- Policy knobs ------------------------------------------------
    /** Intra-queue scheduler (mem::SchedulerRegistry key). */
    std::string scheduler = "fr-fcfs-cap";
    /** true: separate RNG queue + RngAwarePolicy arbitration.
     *  false: RNG-oblivious — jobs preempt all channels on arrival. */
    bool rngAwareQueueing = true;
    /** Random number buffer on/off (bufferEntries sizes it when on). */
    bool buffering = true;
    /** Buffer-fill policy when buffering: "none", "greedy-oracle", or
     *  "engine" (see FillMode). */
    std::string fillPolicy = "engine";
    /** Idleness predictor gating engine fill, one of
     *  strange::kPredictors ("none" = simple buffering, every quiet
     *  period assumed long). */
    std::string predictor = "simple";
    /** Also fill during low-utilization (not just idle) periods. */
    bool lowUtilFill = true;
    /** Address-interleaving policy, one of dram::kMappings. */
    std::string addressMapping = dram::kDefaultMapping;
    /** Per-channel timing model, one of dram::kChannelModels: "ddr4"
     *  (the cycle-level DDR3-1600 model of Table 1; the key name is
     *  historical and stays because "backend.kind=ddr4" is part of
     *  config text, run fingerprints and alone-cache keys) or
     *  "fixed-latency" (the analytical cross-check row). */
    std::string backend = "ddr4";

    // --- Modelling-refinement ablation knobs (bench/ablation_design) --
    /** RNG-aware designs park channels in RNG mode between demand
     *  bursts instead of switching out after every generation. */
    bool enableParking = true;
    /** Mispredicted fill sessions abort during switch-in instead of
     *  committing to a full round. */
    bool enableFillAbort = true;
    /** Max concurrent buffer-fill channels (0 = unlimited; the paper's
     *  Section 5.1.1 selects one channel at a time). */
    unsigned fillChannelLimit = 1;

    // --- Mechanisms and hardware parameters --------------------------
    /** Demand-generation TRNG mechanism. */
    trng::TrngMechanism mechanism = trng::TrngMechanism::dRange();
    /** Optional distinct buffer-fill mechanism (hybrid TRNG design,
     *  Section 8.7); empty = same mechanism for demand and fill. */
    std::optional<trng::TrngMechanism> fillMechanism;
    dram::DramTimings timings{};
    dram::DramGeometry geometry{};

    unsigned bufferEntries = 16; ///< Buffered 64-bit numbers.
    /** Per-application buffer partitions (Section 6 side/covert-channel
     *  countermeasure); 0/1 = one shared buffer. */
    unsigned bufferPartitions = 0;
    /** Read+write queue occupancy below which a channel counts as
     *  low-utilization (when lowUtilFill). */
    unsigned lowUtilThreshold = 4;
    /** Precharge power-down after this many idle cycles (0 = off). */
    Cycle powerDownThreshold = 0;

    /** "fixed-latency" parameters (ignored by "ddr4"): read and write
     *  data-completion latencies and the channel-wide column-to-column
     *  gap. */
    Cycle backendReadLatency = 20;
    Cycle backendWriteLatency = 20;
    Cycle backendGap = 4;

    std::uint64_t seed = 1; ///< Master seed for traces and entropy.

    /** Deterministic fault injection + health-monitor mitigation (a
     *  default-constructed config is inert). */
    fault::FaultConfig fault;

    // --- Derived values ----------------------------------------------
    /** The buffer's 64-bit entries (0 = no buffer: buffering off). */
    unsigned
    bufferCapacity() const
    {
        return buffering ? bufferEntries : 0;
    }
    /** Fill policy in effect (None without a buffer).
     *  @throws std::out_of_range on an unknown fillPolicy. */
    FillMode fillMode() const;
    /** Low-utilization occupancy bound (0 = idle-only fill). */
    unsigned
    lowUtilBound() const
    {
        return lowUtilFill ? lowUtilThreshold : 0;
    }
    /**
     * Minimum idle-period length that counts as "long": a fill session
     * cannot abort once a round starts, so it must cover a whole session
     * of the fill mechanism. For D-RaNGe this is the paper's 40-cycle
     * PeriodThreshold; QUAC-TRNG's long rounds need more room.
     */
    Cycle periodThreshold() const;
    /** @throws std::out_of_range on an unknown predictor. */
    strange::PredictorKind
    predictorKind() const
    {
        return strange::predictorKind(predictor);
    }
    /** RL predictor settings (seeded from seed under predictor "rl").
     *  @throws std::out_of_range on an unknown predictor. */
    strange::RlIdlenessPredictor::Config rlConfig() const;
    /**
     * The channels' timing table for backend.
     * @throws std::out_of_range on an unknown backend;
     *         std::invalid_argument on inconsistent timings.
     */
    dram::TimingTable timingTable() const;
};

/** Aggregate controller statistics. */
struct McStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t rngRequests = 0;
    std::uint64_t rngServedFromBuffer = 0;
    /** Requests served entirely from the mechanism's output staging
     *  register (leftover bits of earlier demand rounds). */
    std::uint64_t rngServedFromStaging = 0;
    std::uint64_t rngJobsCompleted = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t sumReadLatency = 0; ///< Bus cycles, arrival to data.
    std::uint64_t sumRngLatency = 0;  ///< Bus cycles, arrival to service.

    /** Fraction of RNG requests served from the buffer (Section 8.3). */
    double
    bufferServeRate() const
    {
        return rngRequests == 0 ? 0.0
                                : static_cast<double>(rngServedFromBuffer) /
                                      static_cast<double>(rngRequests);
    }
};

/**
 * Cycle-level memory controller over N DRAM channels with an integrated
 * DRAM-based TRNG.
 */
class MemoryController
{
  public:
    /** Callback invoked when a read or RNG request completes. The
     *  ServePath tag names how it was served (Dram for reads; Buffer /
     *  Staging / Engine for RNG requests). */
    using CompletionCallback = std::function<void(
        CoreId, std::uint64_t token, ReqType, ServePath)>;

    /** A controller over @p config with @p ports request ports (one
     *  per core, plus any service port). */
    MemoryController(const McConfig &config, unsigned ports);
    ~MemoryController(); // Out-of-line: fault::FaultPlane is incomplete.

    void setCompletionCallback(CompletionCallback cb);

    /** Set an application's OS priority (RNG-aware designs only). */
    void setPriority(CoreId core, int priority);

    /**
     * Enqueue a request. The caller must set type/addr/core/token;
     * arrival, seq and coord are filled in here.
     * @retval false the target queue is full — retry next cycle.
     */
    bool enqueue(Request req, Cycle now);

    /**
     * true when an RNG request from @p core would be accepted now: the
     * buffer or the staging register can serve 64 bits, or the RNG
     * queue has room. While it is false, enqueue() retries are no-ops.
     */
    bool acceptsRng(CoreId core) const;

    /**
     * Advance the whole memory system by one bus cycle. On the fast
     * path only channels with due work run their per-cycle phases;
     * the others defer their bookkeeping (see sync()).
     */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() could do anything beyond
     * the batchable per-cycle bookkeeping (state-residency sampling,
     * engine cycle counting, stall-counter and greedy-credit advances):
     * a completion delivery, an engine phase boundary, a refresh or
     * power-down edge, a stall-limit flip, an oracle-fill deposit, a
     * scheduler housekeeping event, or any cycle whose queue state makes
     * command issue or engine management possible. Returns @p now when
     * the current cycle itself is (or may be) such a cycle — the caller
     * must then tick normally. Never returns a cycle later than the
     * first real event, so skipping to the returned cycle is
     * bit-identical to ticking through the span.
     *
     * The per-channel part is a min over cached wake cycles; only
     * channels whose inputs changed since their last computation are
     * recomputed (and cached for the tick). A horizon of @p now + 1 is
     * reported as @p now: a one-cycle span is ticked, not skipped.
     */
    Cycle nextEventCycle(Cycle now);

    /**
     * Batch-apply the per-cycle effects of the quiescent span
     * [@p from, @p to): engine round completions and greedy-oracle
     * idle credit. The per-channel bookkeeping (state residency, engine
     * occupied/parked cycles and channel fences, RNG-aware stall
     * counters) stays deferred until the channel next runs or sync().
     * @pre nextEventCycle(from) >= to
     */
    void fastForward(Cycle from, Cycle to);

    /**
     * Apply every channel's deferred per-cycle bookkeeping (residency
     * counters, engine occupied/parked cycles and fence, RNG-aware
     * stall counters) up to the last processed cycle. Statistics and
     * fingerprints read after sync() match a step-1 run exactly.
     */
    void sync();

    /** Per-channel phase passes run by tick() (work counter). */
    std::uint64_t channelTicks() const { return channelTickCount; }
    /** Channel wake cycles computed from scratch (work counter). */
    std::uint64_t horizonRecomputes() const { return recomputeCount; }

    /**
     * Observe every successfully enqueued request with its arrival
     * cycle, after address mapping — the controller-boundary stream the
     * trace recorder captures (see trace/trace_writer.h). The stream
     * fully determines the controller's evolution for a fixed
     * configuration, which is what makes replay bit-identical.
     */
    using TraceSink = std::function<void(const Request &, Cycle)>;
    void setTraceSink(TraceSink sink) { traceSink = std::move(sink); }

    // --- Introspection -----------------------------------------------
    const McStats &stats() const { return statistics; }
    const dram::DramChannel &channel(unsigned i) const { return chans[i]; }
    /** Mutable access for verification harnesses (command observers). */
    dram::DramChannel &channelMutable(unsigned i) { return chans[i]; }
    /** One channel's TRNG engine (telemetry/lockstep fingerprinting). */
    const trng::RngEngine &engine(unsigned i) const { return *engines[i]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(chans.size());
    }
    const strange::BufferSet *buffer() const { return buf.get(); }

    /** Aggregated predictor accuracy across channels (empty if none). */
    std::optional<strange::PredictorStats> predictorStats() const;

    /** Recorded strict-idle period lengths for one channel (Fig. 5/18). */
    const std::vector<std::uint32_t> &idlePeriods(unsigned ch) const
    {
        return perChan[ch].idleLengths;
    }

    /** Total bus cycles channels spent held in RNG mode. */
    Cycle rngOccupiedCycles() const;

    /** Pending work indicator (used by drain-out loops in tests). */
    bool busy() const;

    /** RNG jobs currently queued (not yet fully generated). */
    std::size_t pendingRngJobs() const { return rngJobs.size(); }

    /** Bits currently held in the mechanism's staging register. */
    double stagingLevel() const { return stagingBits; }

    /** Read-queue occupancy of one channel (tests/telemetry). */
    std::size_t
    readQueueSize(unsigned ch) const
    {
        return perChan[ch].readQ->size();
    }

    /** Write-queue occupancy of one channel (tests/telemetry). */
    std::size_t
    writeQueueSize(unsigned ch) const
    {
        return perChan[ch].writeQ->size();
    }

    const McConfig &config() const { return cfg; }

    const RngAwarePolicy *policy() const { return rngPolicy.get(); }

    /**
     * Enable/disable the fast-path shortcuts: ticking only channels
     * whose cached wake cycle is due (the others defer their per-cycle
     * bookkeeping), plus the scheduler forcedPick() pre-check. Pure
     * shortcuts — behaviour must stay bit-identical either way, which
     * DS_LOCKSTEP and the difftest harness verify. Off by default so a
     * bare controller runs the unshortcut reference code, with every
     * channel due every cycle; sim::System::setFastForward() turns them
     * on with fast-forward.
     */
    void setFastPath(bool on);

    /**
     * true while any queued, in-flight, or RNG work belongs to a core
     * port >= @p first. System's drain loop refuses to run while the
     * service driver (whose ports start past the traced cores) has work
     * in flight, because RNG completions are delivered directly from
     * inside tick() rather than through a queue front the drain could
     * bound on.
     */
    bool hasWorkForPort(CoreId first) const;

    /** The fault-injection plane, or nullptr when no cell-fault model
     *  is configured (see fault/fault_plane.h). */
    const fault::FaultPlane *faultInjection() const
    {
        return faultPlane.get();
    }

    /**
     * The run's fault report: the plane's counters, or, when the only
     * listed model is "outage" (no plane), the models and monitor flag
     * with zero counts. Empty when no fault model is listed.
     */
    std::optional<fault::FaultReport> faultReport() const;

    /**
     * One steadily-generating engine's round-completion stream: a
     * stable (wind-free, management-quiescent) engine in Round or
     * SwitchingIn produces bitsPerRound every roundLatency cycles, the
     * first batch landing on the tick at `next`.
     */
    struct Producer
    {
        Cycle next = 0;   ///< Tick cycle of the next round completion.
        Cycle period = 0; ///< Round latency.
        double bits = 0.0;
        unsigned ch = 0;
        /** Stopping engine: exactly one more round completes, then the
         *  switch-out (whose end bounds the span) begins. */
        bool oneShot = false;
    };

    /**
     * The production horizon in closed form: the first round-completion
     * tick t < @p bound at which delivered(t) — Σ bits × rounds of
     * @p producers completed by t, a one-shot counting at most one —
     * reaches @p need (else kNoEvent). Binary search: O(P log span). A
     * slack far below one bit lets summing in another order than
     * routeBits() only make the event earlier; integer bits are exact.
     */
    static Cycle thresholdCycle(std::span<const Producer> producers,
                                double need, Cycle bound);

  private:
    struct ChannelState
    {
        std::unique_ptr<RequestQueue> readQ;
        std::unique_ptr<RequestQueue> writeQ;
        bool writeDraining = false;

        /// In-flight reads awaiting their data burst (FIFO by completion).
        PopVector<Request> inflightReads;
        PopVector<Cycle> inflightDone;

        // Idle-period tracking: drives the Fig. 5/18 distributions and
        // the idleness predictor (predicted at period start, trained at
        // the arrival that ends the period).
        bool idleActive = false;
        Cycle idleStart = 0;
        bool predictionCached = false; ///< Predicted this idle period?
        bool predictedLong = false;    ///< Cached per-period prediction.
        /** Rate limiter for the low-utilization fill trigger: earliest
         *  cycle the next low-utilization session may start. */
        Cycle lowUtilNextAllowed = 0;
        /** Current engine session was started by the low-utilization
         *  trigger (it commits to one round; it is not aborted when a
         *  request arrives). */
        bool lowUtilSession = false;
        /** Current engine session served on-demand generation; such
         *  sessions park in RNG mode awaiting the next request burst
         *  instead of eagerly switching out. */
        bool demandSession = false;
        std::vector<std::uint32_t> idleLengths;

        // Greedy-oracle fill bookkeeping.
        Cycle greedyIdleCredit = 0;

        Addr lastAddr = 0;

        // Wake cache (fast path). Valid while !wakeDirty: every input
        // of the channel's per-cycle phases is unchanged since the
        // computation, so the phases do only bookkeeping before the
        // wake (see tickWake()).
        /** Earliest event of the channel other than its next read
         *  delivery and, for a producer, its next phase end — the two
         *  that move without any other input changing. */
        Cycle baseWake = 0;
        bool producing = false;   ///< Engine is a Producer.
        bool regularPrio = false; ///< RNG stall counter charging.
        bool wakeDirty = true;    ///< Recompute before the next use.
        /** Per-cycle bookkeeping is applied for cycles < synced. */
        Cycle synced = 0;
    };

    /** A channel's cached wake state, computed from scratch. */
    struct Wake
    {
        Cycle base = 0;
        bool producing = false;
        bool regularPrio = false;
    };
    Wake computeWake(unsigned ch) const;
    /** First cycle tick() must run @p ch's phases: its base wake or
     *  next read delivery. A producer's phase ends are applied by
     *  endProducerPhase() without running the channel. */
    Cycle tickWake(unsigned ch) const;
    /** Complete a producer's phase end due this cycle, as its engine
     *  tick would, leaving the per-cycle bookkeeping deferred. */
    void endProducerPhase(unsigned ch, Cycle now);
    /** Recompute @p ch's cached wake if dirty. */
    void refreshWake(unsigned ch);
    /** @p eng completes rounds on a closed-form schedule (a Producer). */
    static bool isProducer(const trng::RngEngine &eng);
    /** Mark every channel's wake for recomputation (shared RNG state
     *  changed). */
    void dirtyAllWakes();
    /** Apply @p ch's deferred bookkeeping for cycles [synced, @p to). */
    void catchUp(unsigned ch, Cycle to);
    /** catchUp() every channel: run before any change to the inputs of
     *  the RNG-aware stall counters that all channels share. */
    void catchUpAll(Cycle to);
    /** Run a channel that was not due at the start of tick(@p now):
     *  its refresh/residency and engine steps are bookkeeping only. */
    void joinTick(unsigned ch, Cycle now);
    /** joinTick() every channel from @p first on that is not due yet
     *  (running its choose() too when @p choose), keeping dueList in
     *  channel order. */
    void joinFrom(unsigned first, Cycle now, bool choose);
    /** Highest priority among the queued RNG jobs. @pre jobs queued */
    int topJobPriority() const;
    /** The buffer state engine-fill management reads: full, and below
     *  the low-utilization trigger's half-capacity mark (0 when no
     *  channel reads it). */
    unsigned fillGate() const;
    /** Shared state that every channel's wake reads changed inside a
     *  tick: dirty all wakes and run every channel this cycle. */
    void sharedInputsChanged();
    /** @p ch's engine runs a session that counts against
     *  fillChannelLimit (see fillSessionActive()). */
    bool fillMember(unsigned ch) const;
    /** Fill-session membership feeds other channels' engine
     *  management (engine fill with a channel limit). */
    bool fillSetShared() const;

    unsigned occupancy(const ChannelState &cs) const;
    void updateIdleState(unsigned ch, Cycle now);

    /** enqueue() minus the trace-sink notification (fills in coord/seq). */
    bool enqueueAccept(Request &req, Cycle now);

    /** The queue choice the next tick would compute for @p ch. */
    QueueChoice peekChoice(unsigned ch) const;
    /** Earliest cycle >= @p now at which manageEngine(ch) changes any
     *  state (@p now = this cycle; kNoEvent = only on external input).
     *  @p choice is peekChoice(ch), computed once by the caller. */
    Cycle manageEngineEventCycle(unsigned ch, Cycle now,
                                 QueueChoice choice) const;
    /** Earliest cycle >= @p now at which serveChannel(ch) changes any
     *  state — a drain-flag transition, a wake, or the first cycle any
     *  queued request's next DRAM command can legally issue. */
    Cycle serveChannelEventCycle(unsigned ch, Cycle now,
                                 QueueChoice choice) const;
    /** First cycle >= @p now any of @p queue's requests can issue. */
    Cycle nextIssueCycle(const RequestQueue &queue, unsigned ch,
                         Cycle now) const;

    /** Next greedy-oracle deposit cycle on the selected channel, or
     *  @p now when credit bookkeeping mutates state this cycle. */
    Cycle greedyNextEventCycle(Cycle now) const;

    /** Collect the stable producers into producerScratch, in channel
     *  order (the tick order among rounds landing on one cycle). */
    void collectProducers() const;
    /**
     * First production tick below @p bound whose round completion has
     * a non-batchable effect: finishing the front RNG job, the deposit
     * one round before the buffer fills, or (with a fault plane) a
     * round whose audit fails. kNoEvent when no such tick exists below
     * @p bound (earlier completions only accumulate).
     */
    Cycle productionEventCycle(Cycle bound) const;

    /** true when some channel is running a buffer-fill session. Fill
     *  uses one selected channel at a time (Section 5.1.1: "selects a
     *  channel for RNG"); demand generation still uses all channels. */
    bool fillSessionActive() const;
    void routeBits(double bits, Cycle now);
    /** choose() for @p ch this cycle (advances its stall counters). */
    QueueChoice chooseQueue(unsigned ch);
    void serveChannel(unsigned ch, Cycle now);
    void manageEngine(unsigned ch, Cycle now);

    /** Per-channel queue choice, computed once per tick for each
     *  running channel (the policy's stall counters advance exactly
     *  once per channel per cycle; catchUp() batches the others'). */
    std::vector<QueueChoice> choiceNow;
    /** What each channel does in the current tick, and the list of the
     *  channels running their phases (kDue), in channel order. */
    enum : std::uint8_t
    {
        kIdle,     ///< Bookkeeping only; deferred.
        kDue,      ///< Runs its phases.
        kPhaseEnd, ///< A producer that only ends its engine phase.
    };
    std::vector<std::uint8_t> dueNow;
    std::vector<unsigned> dueList;
    /** Set by sharedInputsChanged(): every channel joins this tick. */
    bool joinPending = false;

    McConfig cfg;
    // Values derived from cfg once (see McConfig's member functions).
    FillMode fillMode;
    unsigned lowUtilBound;
    Cycle periodThreshold;
    dram::AddressMapping mapper;
    trng::TrngMechanism mech;     ///< Demand-generation mechanism.
    trng::TrngMechanism fillMech; ///< Fill mechanism (== mech unless hybrid).

    std::vector<dram::DramChannel> chans;
    std::vector<std::unique_ptr<trng::RngEngine>> engines;
    std::vector<ChannelState> perChan;
    /** One channel's idleness predictor, in strange::kPredictors order. */
    using Predictor = std::variant<strange::NoIdlenessPredictor,
                                   strange::RlIdlenessPredictor,
                                   strange::SimpleIdlenessPredictor>;
    /** Per channel; NoIdlenessPredictor under predictor "none" and
     *  whenever the fill mode is not Engine. */
    std::vector<Predictor> predictors;

    std::unique_ptr<Scheduler> readSched;
    FrFcfsScheduler writeSched; ///< Plain FR-FCFS for write drains.
    std::unique_ptr<RngAwarePolicy> rngPolicy;

    std::deque<RngJob> rngJobs;
    std::unique_ptr<strange::BufferSet> buf;
    /** Round auditing + health monitor; null when no cell-fault model
     *  is listed (the common case — zero overhead when off). */
    std::unique_ptr<fault::FaultPlane> faultPlane;
    /**
     * The TRNG mechanism's output staging register: bits left over from
     * demand rounds beyond the requested 64 (significant for QUAC-TRNG's
     * 512-bit rounds). Present in every design — it is part of the
     * mechanism, not of DR-STRaNGe. Capped at one round's yield.
     */
    double stagingBits = 0.0;
    /// Buffer hits completing after the fixed serve latency.
    PopVector<RngJob> pendingBufferServes;
    PopVector<Cycle> pendingBufferServeDone;

    CompletionCallback onComplete;
    TraceSink traceSink;
    std::uint64_t nextSeq = 0;
    McStats statistics;

    /** Scratch for collectProducers (avoids per-horizon allocation). */
    mutable std::vector<Producer> producerScratch;

    bool fastPath = false; ///< See setFastPath().
    /** First cycle not yet processed by tick() or fastForward(). */
    Cycle clock = 0;
    std::uint64_t channelTickCount = 0;
    std::uint64_t recomputeCount = 0;

    /** Cap on stored idle-period samples per channel (memory bound). */
    static constexpr std::size_t kMaxIdleSamples = 1u << 18;
};

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_MEMORY_CONTROLLER_H
