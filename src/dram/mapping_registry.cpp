#include "dram/mapping_registry.h"

#include <cassert>
#include <stdexcept>

namespace dstrange::dram {

namespace {

bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** LSB-up digit order realizing the "row-bank-col-rank-ch" key. */
constexpr std::array<InterleavedMapping::Dim, 5> kRowBankColRankCh = {
    InterleavedMapping::Dim::Channel, InterleavedMapping::Dim::Rank,
    InterleavedMapping::Dim::Col, InterleavedMapping::Dim::Bank,
    InterleavedMapping::Dim::Row};

} // namespace

InterleavedMapping::InterleavedMapping(const DramGeometry &geometry,
                                       const std::array<Dim, 5> &lsb_order)
    : AddressMapping(geometry), order(lsb_order)
{
    assert(geom.channels > 0 && geom.ranksPerChannel > 0 &&
           geom.banksPerRank > 0 && geom.rowsPerBank > 0 &&
           geom.rowBytes >= kLineBytes);
    unsigned seen = 0;
    for (Dim d : order)
        seen |= 1u << static_cast<unsigned>(d);
    if (seen != 0x1f)
        throw std::invalid_argument(
            "interleaving order must be a permutation of all five "
            "DRAM dimensions");
}

std::uint64_t
InterleavedMapping::radixOf(Dim dim) const
{
    switch (dim) {
      case Dim::Channel:
        return geom.channels;
      case Dim::Rank:
        return geom.ranksPerChannel;
      case Dim::Bank:
        return geom.banksPerRank;
      case Dim::Col:
        return geom.colsPerRow();
      case Dim::Row:
        return geom.rowsPerBank;
    }
    return 1;
}

DramCoord
InterleavedMapping::decode(Addr addr) const
{
    std::uint64_t line = addr / kLineBytes;
    DramCoord coord;
    unsigned bank_in_rank = 0;
    for (Dim dim : order) {
        const std::uint64_t radix = radixOf(dim);
        const unsigned digit = static_cast<unsigned>(line % radix);
        line /= radix;
        switch (dim) {
          case Dim::Channel:
            coord.channel = digit;
            break;
          case Dim::Rank:
            coord.rank = digit;
            break;
          case Dim::Bank:
            bank_in_rank = digit;
            break;
          case Dim::Col:
            coord.col = digit;
            break;
          case Dim::Row:
            coord.row = digit;
            break;
        }
    }
    coord.bank = coord.rank * geom.banksPerRank + bank_in_rank;
    return coord;
}

Addr
InterleavedMapping::encode(const DramCoord &coord) const
{
    const unsigned bank_in_rank = coord.bank % geom.banksPerRank;
    const unsigned rank =
        coord.rank != 0 ? coord.rank : coord.bank / geom.banksPerRank;
    std::uint64_t line = 0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Dim dim = *it;
        unsigned digit = 0;
        switch (dim) {
          case Dim::Channel:
            digit = coord.channel;
            break;
          case Dim::Rank:
            digit = rank;
            break;
          case Dim::Bank:
            digit = bank_in_rank;
            break;
          case Dim::Col:
            digit = coord.col;
            break;
          case Dim::Row:
            digit = coord.row;
            break;
        }
        line = line * radixOf(dim) + digit;
    }
    return line * kLineBytes;
}

PermutedBankMapping::PermutedBankMapping(const DramGeometry &geometry)
    : InterleavedMapping(geometry, kRowBankColCh)
{
    if (!isPowerOfTwo(geometry.banksPerRank))
        throw std::invalid_argument(
            "permute-bank mapping requires a power-of-two banksPerRank "
            "(got " +
            std::to_string(geometry.banksPerRank) + ")");
}

unsigned
PermutedBankMapping::permute(unsigned bank_in_rank, unsigned row) const
{
    return bank_in_rank ^ (row & (geom.banksPerRank - 1));
}

DramCoord
PermutedBankMapping::decode(Addr addr) const
{
    DramCoord coord = InterleavedMapping::decode(addr);
    const unsigned bank_in_rank =
        permute(coord.bank % geom.banksPerRank, coord.row);
    coord.bank = coord.rank * geom.banksPerRank + bank_in_rank;
    return coord;
}

Addr
PermutedBankMapping::encode(const DramCoord &coord) const
{
    DramCoord unpermuted = coord;
    const unsigned rank =
        coord.rank != 0 ? coord.rank : coord.bank / geom.banksPerRank;
    unpermuted.rank = rank;
    unpermuted.bank = rank * geom.banksPerRank +
                      permute(coord.bank % geom.banksPerRank, coord.row);
    return InterleavedMapping::encode(unpermuted);
}

MappingRegistry::MappingRegistry() : Registry("mapping")
{
    add(kDefault, [](const DramGeometry &g) {
        return std::make_unique<InterleavedMapping>(g, kRowBankColCh);
    });
    add("row-bank-col-rank-ch", [](const DramGeometry &g) {
        return std::make_unique<InterleavedMapping>(g, kRowBankColRankCh);
    });
    add("permute-bank", [](const DramGeometry &g) {
        return std::make_unique<PermutedBankMapping>(g);
    });
}

MappingRegistry &
MappingRegistry::instance()
{
    static MappingRegistry registry;
    return registry;
}

} // namespace dstrange::dram
