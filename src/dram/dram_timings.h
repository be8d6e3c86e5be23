/**
 * @file
 * DDR3-1600 timing and current parameters, and the per-scope
 * command-to-command table every channel model is derived into. All
 * timing values are in DRAM bus cycles (tCK = 1.25 ns at the 800 MHz bus
 * clock of Table 1).
 */

#ifndef DSTRANGE_DRAM_DRAM_TIMINGS_H
#define DSTRANGE_DRAM_DRAM_TIMINGS_H

#include <array>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace dstrange::dram {

/** DRAM commands issued over the channel command bus. */
enum class DramCmd : std::uint8_t
{
    Act, ///< Activate a row into the row buffer.
    Pre, ///< Precharge (close) the open row.
    Rd,  ///< Column read burst.
    Wr,  ///< Column write burst.
    Ref, ///< Rank-level refresh (issued by the channel itself).
};

/** Sentinel row id meaning "no row open". */
inline constexpr std::int64_t kNoOpenRow = -1;

/**
 * JEDEC timing constraint set for one DRAM device generation. The default
 * values model DDR3-1600K (11-11-11) with 2 Gb x8 devices, the
 * configuration the paper simulates.
 */
struct DramTimings
{
    /** Bus clock period in nanoseconds. */
    double tCKns = 1.25;

    Cycle tRCD = 11;  ///< ACT to internal read/write delay.
    Cycle tCL = 11;   ///< Read column command to first data.
    Cycle tCWL = 8;   ///< Write column command to first data.
    Cycle tRP = 11;   ///< Precharge to ACT delay.
    Cycle tRAS = 28;  ///< ACT to PRE minimum.
    Cycle tRC = 39;   ///< ACT to ACT (same bank) minimum.
    Cycle tBL = 4;    ///< Burst length on the bus (BL8, DDR).
    Cycle tCCD = 4;   ///< Column command to column command.
    Cycle tRTP = 6;   ///< Read to precharge.
    Cycle tWR = 12;   ///< Write recovery (end of write data to PRE).
    Cycle tWTR = 6;   ///< End of write data to read command.
    Cycle tRRD = 5;   ///< ACT to ACT (different banks, same rank).
    Cycle tFAW = 24;  ///< Four-activate window.
    Cycle tRFC = 128; ///< Refresh cycle time (160 ns for 2 Gb parts).
    Cycle tREFI = 6240; ///< Average refresh interval (7.8 us).
    Cycle tXP = 5;    ///< Power-down exit to first valid command.
    /** Rank-to-rank data-bus turnaround: extra gap between bursts from
     *  different ranks sharing the channel (never applies with one
     *  rank, so single-rank timing is unaffected by its value). */
    Cycle tRTRS = 2;

    /** Read command to write command turnaround on the shared bus. */
    Cycle readToWrite() const { return tCL + tBL + 2 - tCWL; }

    /** Write command to read command turnaround on the shared bus. */
    Cycle writeToRead() const { return tCWL + tBL + tWTR; }

    /**
     * IDD currents (mA) and supply voltage for the DRAMPower-style energy
     * model; typical Micron 2 Gb DDR3-1600 datasheet values.
     */
    double vdd = 1.5;
    double idd0 = 70.0;   ///< One-bank ACT-PRE current.
    double idd2n = 42.0;  ///< Precharge standby.
    double idd3n = 45.0;  ///< Active standby.
    double idd4r = 180.0; ///< Burst read.
    double idd4w = 185.0; ///< Burst write.
    double idd2p = 12.0;  ///< Precharge power-down.
    double idd5 = 215.0;  ///< Refresh.
};

/**
 * Sanity-check the constraint set: tRC >= tRAS + tRP, tRAS >= tRCD,
 * tFAW >= tRRD, tREFI > tRFC, tCK > 0, and a read-to-write turnaround
 * that does not go negative (tCWL <= tCL + tBL + 2).
 */
bool timingsAreConsistent(const DramTimings &t);

/**
 * Every inter-command constraint of one channel model, derived once.
 * Gaps are indexed [from][to] by DramCmd (Act, Pre, Rd, Wr): a command
 * issued at cycle n keeps command `to` off
 *   - the same bank until n + bank[from][to],
 *   - the same rank until n + rank[from][to] (this row also carries the
 *     channel-wide column turnarounds and the data-bus fence),
 *   - every other rank until n + channel[from][to] (the data-bus fence
 *     plus the tRTRS rank turnaround).
 * Beside the gaps the table holds the few constants that are not
 * command-to-command: burst completion, tFAW, refresh, power-down exit,
 * and two behaviour columns that tell the DDR model and the
 * fixed-latency row apart.
 */
struct TimingTable
{
    using Gaps = std::array<std::array<Cycle, 4>, 4>;

    Gaps bank{};
    Gaps rank{};
    Gaps channel{};
    Cycle readDone = 0;  ///< RD issue to the end of its data burst.
    Cycle writeDone = 0; ///< WR issue to the end of its data burst.
    /** RD/WR extra wait after RNG occupancy on a rank other than the
     *  last burst's (the bus is held until the occupancy ends). */
    std::array<Cycle, 2> afterRng{};
    Cycle tFAW = 0;  ///< Four-activate window (0: none).
    Cycle tRFC = 0;
    Cycle tREFI = 0; ///< 0: no refresh.
    Cycle tXP = 0;
    bool powerDown = false;     ///< Precharge power-down is modelled.
    bool rngClosesRows = false; ///< RNG occupancy closes every row.

    /**
     * The cycle-level DDR model (backend.kind "ddr4").
     * @throws std::invalid_argument unless timingsAreConsistent(@p t).
     */
    static TimingTable ddr(const DramTimings &t);

    /**
     * The analytical row (backend.kind "fixed-latency"): commands only
     * serialize on the command bus, column commands keep @p gap apart
     * channel-wide, data completes a fixed latency after issue, and
     * there is no refresh and no power-down.
     */
    static TimingTable fixedLatency(Cycle read_latency, Cycle write_latency,
                                    Cycle gap);
};

/** The channel models backend.kind selects, in sorted order. */
inline constexpr std::array<const char *, 2> kChannelModels{
    "ddr4", "fixed-latency"};

/**
 * @throws std::out_of_range "unknown backend '<kind>' (registered: ...)"
 *         unless @p kind names one of kChannelModels.
 */
void requireChannelModel(const std::string &kind);

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_DRAM_TIMINGS_H
