/**
 * @file
 * Physical address to DRAM coordinate translation: the memory
 * geometry, the coordinate tuple, and the address-interleaving policies
 * that "mapping=KEY" selects (all exact bijections over the geometry's
 * capacity):
 *
 *  - "row-bank-col-ch"      Row:Rank:Bank:Column:Channel — the default.
 *                           Channel interleaved at line granularity; the
 *                           rank digit sits just below the row, so with
 *                           ranksPerChannel == 1 it reproduces the
 *                           historical mapping bit-identically.
 *  - "row-bank-col-rank-ch" Rank-interleaved: consecutive lines on one
 *                           channel alternate ranks, overlapping bank
 *                           timing across ranks at the cost of tRTRS
 *                           data-bus turnarounds.
 *  - "permute-bank"         "row-bank-col-ch" with the in-rank bank
 *                           index XOR-permuted by the low row bits
 *                           (Zhang/Zhang/Torrellas-style conflict
 *                           scrambling). Requires power-of-two
 *                           banksPerRank.
 */

#ifndef DSTRANGE_DRAM_ADDRESS_MAPPER_H
#define DSTRANGE_DRAM_ADDRESS_MAPPER_H

#include <array>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace dstrange::dram {

/** Geometry of the simulated main memory (Table 1 defaults). */
struct DramGeometry
{
    unsigned channels = 4;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    unsigned rowsPerBank = 65536;
    unsigned rowBytes = 8192;

    /** Cache lines per row. */
    unsigned colsPerRow() const { return rowBytes / kLineBytes; }

    /** Bank state-machine slots per channel (across all ranks). */
    unsigned banksPerChannel() const { return ranksPerChannel * banksPerRank; }

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(channels) * ranksPerChannel *
               banksPerRank * rowsPerBank * rowBytes;
    }
};

/**
 * DRAM coordinates of one cache-line request. `bank` is the flat
 * rank-major bank slot within the channel (range banksPerChannel()), so
 * queue and scheduler code indexes banks without rank arithmetic; `rank`
 * is redundantly `bank / banksPerRank` for rank-aware consumers.
 */
struct DramCoord
{
    unsigned channel = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned col = 0;
    unsigned rank = 0;

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && bank == o.bank && row == o.row &&
               col == o.col && rank == o.rank;
    }
};

/** The address-interleaving policies mapping= selects, in sorted order. */
inline constexpr std::array<const char *, 3> kMappings{
    "permute-bank", "row-bank-col-ch", "row-bank-col-rank-ch"};

/** Key of the default policy. */
inline constexpr const char *kDefaultMapping = "row-bank-col-ch";

/**
 * @throws std::out_of_range "unknown mapping '<key>' (registered: ...)"
 *         unless @p key names one of kMappings.
 */
void requireMapping(const std::string &key);

/**
 * One address-interleaving policy over one geometry. The address (in
 * lines) is decomposed into the five coordinate digits in the key's
 * order from the least significant digit up. For power-of-two
 * geometries this is exactly an offset/width bit-field mapping; for
 * non-power-of-two dimensions the div/mod chain stays an exact bijection
 * where bit slicing would not.
 */
class AddressMapping
{
  public:
    /**
     * @throws std::out_of_range unless @p key names one of kMappings.
     * @throws std::invalid_argument for "permute-bank" unless
     *         banksPerRank is a power of two.
     */
    explicit AddressMapping(const DramGeometry &geometry,
                            const std::string &key = kDefaultMapping);

    /** Translate a byte address into DRAM coordinates. */
    DramCoord decode(Addr addr) const;

    /** Inverse of decode(); returns the base address of the line. */
    Addr encode(const DramCoord &coord) const;

    const DramGeometry &geometry() const { return geom; }

  private:
    enum class Dim : std::uint8_t
    {
        Channel,
        Rank,
        Bank, ///< In-rank bank index (width banksPerRank).
        Col,
        Row,
    };

    std::uint64_t radixOf(Dim dim) const;

    /** The bank XOR under "permute-bank", else the identity. The XOR is
     *  self-inverse, so encode/decode stay exact inverses. */
    unsigned
    permute(unsigned bank_in_rank, unsigned row) const
    {
        return permuteBanks
                   ? bank_in_rank ^ (row & (geom.banksPerRank - 1))
                   : bank_in_rank;
    }

    DramGeometry geom;
    std::array<Dim, 5> order; ///< LSB-up digit order.
    bool permuteBanks = false;
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_ADDRESS_MAPPER_H
