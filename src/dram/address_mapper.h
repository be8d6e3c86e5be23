/**
 * @file
 * Physical address to DRAM coordinate translation: the memory
 * geometry, the coordinate tuple, and the AddressMapping interface that
 * the policies in mapping_registry.h implement.
 */

#ifndef DSTRANGE_DRAM_ADDRESS_MAPPER_H
#define DSTRANGE_DRAM_ADDRESS_MAPPER_H

#include <cstdint>

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

/**
 * Address-interleaving policy interface: an exact bijection between byte
 * addresses (at cache-line granularity, over the geometry's capacity)
 * and DRAM coordinates. Concrete policies live in the string-keyed
 * MappingRegistry (mapping_registry.h).
 */
class AddressMapping
{
  public:
    explicit AddressMapping(const DramGeometry &geometry) : geom(geometry) {}
    virtual ~AddressMapping() = default;

    /** Translate a byte address into DRAM coordinates. */
    virtual DramCoord decode(Addr addr) const = 0;

    /** Inverse of decode(); returns the base address of the line. */
    virtual Addr encode(const DramCoord &coord) const = 0;

    const DramGeometry &geometry() const { return geom; }

  protected:
    DramGeometry geom;
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_ADDRESS_MAPPER_H
