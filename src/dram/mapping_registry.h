/**
 * @file
 * String-keyed registry of address-interleaving policies. A mapping key
 * travels through SimConfig / config text ("mapping=KEY"), so every
 * interleaving choice is sweepable and cache-keyed like any other knob.
 *
 * Built-in policies (all exact bijections over the geometry's capacity):
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

#ifndef DSTRANGE_DRAM_MAPPING_REGISTRY_H
#define DSTRANGE_DRAM_MAPPING_REGISTRY_H

#include <array>
#include <functional>
#include <memory>

#include "common/registry.h"
#include "dram/address_mapper.h"

namespace dstrange::dram {

/**
 * Generic mixed-radix interleaving: the address (in lines) is decomposed
 * into the five coordinate digits in a configurable order from the least
 * significant digit up. For power-of-two geometries this is exactly an
 * offset/width bit-field mapping; for non-power-of-two dimensions the
 * div/mod chain stays an exact bijection where bit slicing would not.
 */
class InterleavedMapping : public AddressMapping
{
  public:
    enum class Dim : std::uint8_t
    {
        Channel,
        Rank,
        Bank, ///< In-rank bank index (width banksPerRank).
        Col,
        Row,
    };

    /** @p lsb_order must be a permutation of all five dimensions. */
    InterleavedMapping(const DramGeometry &geometry,
                       const std::array<Dim, 5> &lsb_order);

    DramCoord decode(Addr addr) const override;
    Addr encode(const DramCoord &coord) const override;

  private:
    std::uint64_t radixOf(Dim dim) const;

    std::array<Dim, 5> order;
};

/**
 * LSB-up digit order of the default "row-bank-col-ch" key
 * (Row:Rank:Bank:Column:Channel): the channel is interleaved at line
 * granularity, and the rank digit sits just below the row, so with one
 * rank per channel it vanishes.
 */
inline constexpr std::array<InterleavedMapping::Dim, 5> kRowBankColCh = {
    InterleavedMapping::Dim::Channel, InterleavedMapping::Dim::Col,
    InterleavedMapping::Dim::Bank, InterleavedMapping::Dim::Rank,
    InterleavedMapping::Dim::Row};

/**
 * "row-bank-col-ch" order with the in-rank bank index XOR-permuted by
 * the low row bits; the XOR is self-inverse, so encode/decode stay exact
 * inverses. @throws std::invalid_argument unless banksPerRank is a
 * power of two.
 */
class PermutedBankMapping final : public InterleavedMapping
{
  public:
    explicit PermutedBankMapping(const DramGeometry &geometry);

    DramCoord decode(Addr addr) const override;
    Addr encode(const DramCoord &coord) const override;

  private:
    unsigned permute(unsigned bank_in_rank, unsigned row) const;
};

/** Factory producing a mapping policy for one geometry. */
using MappingFactory =
    std::function<std::unique_ptr<const AddressMapping>(
        const DramGeometry &)>;

/**
 * Process-global mapping-policy registry (the contract is in
 * common/registry.h). make(key, geometry) instantiates the policy
 * registered under @p key for @p geometry.
 */
class MappingRegistry : public Registry<MappingFactory>
{
  public:
    /** Key of the default policy (kRowBankColCh). */
    static constexpr const char *kDefault = "row-bank-col-ch";

    static MappingRegistry &instance();

  private:
    MappingRegistry();
};

} // namespace dstrange::dram

#endif // DSTRANGE_DRAM_MAPPING_REGISTRY_H
