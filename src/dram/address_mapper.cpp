#include "dram/address_mapper.h"

#include <cassert>
#include <stdexcept>

#include "common/key_list.h"

namespace dstrange::dram {

void
requireMapping(const std::string &key)
{
    keyIndex("mapping", kMappings, key);
}

AddressMapping::AddressMapping(const DramGeometry &geometry,
                               const std::string &key)
    : geom(geometry),
      // Row:Rank:Bank:Column:Channel: the channel is interleaved at line
      // granularity, and the rank digit sits just below the row, so with
      // one rank per channel it vanishes.
      order{Dim::Channel, Dim::Col, Dim::Bank, Dim::Rank, Dim::Row}
{
    requireMapping(key);
    assert(geom.channels > 0 && geom.ranksPerChannel > 0 &&
           geom.banksPerRank > 0 && geom.rowsPerBank > 0 &&
           geom.rowBytes >= kLineBytes);
    if (key == "row-bank-col-rank-ch") {
        order = {Dim::Channel, Dim::Rank, Dim::Col, Dim::Bank, Dim::Row};
    } else if (key == "permute-bank") {
        const unsigned banks = geom.banksPerRank;
        if (banks == 0 || (banks & (banks - 1)) != 0)
            throw std::invalid_argument(
                "permute-bank mapping requires a power-of-two banksPerRank "
                "(got " +
                std::to_string(banks) + ")");
        permuteBanks = true;
    }
}

std::uint64_t
AddressMapping::radixOf(Dim dim) const
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
AddressMapping::decode(Addr addr) const
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
    coord.bank = coord.rank * geom.banksPerRank +
                 permute(bank_in_rank, coord.row);
    return coord;
}

Addr
AddressMapping::encode(const DramCoord &coord) const
{
    const unsigned bank_in_rank =
        permute(coord.bank % geom.banksPerRank, coord.row);
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

} // namespace dstrange::dram
