#include "fault/fault_model.h"

#include <bit>
#include <sstream>

#include "common/rng.h"

namespace dstrange::fault {

namespace {

// Distinct salts keep every hash stream independent: the healthy block,
// each model's draws, and the plane's cell ranking never correlate.
constexpr std::uint64_t kChannelSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kCellSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kUseSalt = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kWordSalt = 0x27d4eb2f165667c5ULL;
constexpr std::uint64_t kFlipSalt = 0x85ebca6b2b2ae35ULL;
constexpr std::uint64_t kStuckSalt = 0xb492b66fbe98f273ULL;
constexpr std::uint64_t kWeakSalt = 0x9ae16a3b2f90404fULL;

std::uint64_t
blockSeed(const RoundContext &ctx)
{
    return mix64(ctx.seed ^ ctx.channel * kChannelSalt ^
                 ctx.cell * kCellSalt ^ ctx.use * kUseSalt);
}

void
storeWord(AuditBlock &block, unsigned word, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        block[word * 8 + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

std::uint64_t
loadWord(const AuditBlock &block, unsigned word)
{
    std::uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(block[word * 8 + b]) << (8 * b);
    return v;
}

/** Transient single-bit upsets: flips survive the audit (the block
 *  stays statistically healthy), so they count as silently corrupted
 *  bits delivered downstream. */
std::uint64_t
bitflip(double rate, AuditBlock &block, const RoundContext &ctx)
{
    if (rate <= 0.0)
        return 0;
    const double expected = 256.0 * rate;
    const std::uint64_t whole = static_cast<std::uint64_t>(expected);
    const double frac = expected - static_cast<double>(whole);
    const std::uint64_t base = blockSeed(ctx) ^ kFlipSalt;
    const double u = static_cast<double>(mix64(base) >> 11) * 0x1.0p-53;
    std::uint64_t flips = whole + (u < frac ? 1 : 0);
    // XOR through a mask so colliding draws cancel and the returned
    // count is the number of bits actually changed. Block bit p is bit
    // p & 63 of little-endian word p >> 6 (byte p >> 3, bit p & 7).
    std::array<std::uint64_t, 4> mask{};
    for (std::uint64_t j = 0; j < flips; ++j) {
        const std::uint64_t pos = mix64(base ^ (j + 1)) & 255;
        mask[pos >> 6] ^= 1ULL << (pos & 63);
    }
    std::uint64_t changed = 0;
    for (unsigned w = 0; w < 4; ++w) {
        storeWord(block, w, loadWord(block, w) ^ mask[w]);
        changed += static_cast<std::uint64_t>(std::popcount(mask[w]));
    }
    return changed;
}

/** Ones-biased cells: each output word is ORed with an AND of k random
 *  masks, pushing ones-density to 1/2 + 2^-(k+1). The audit's monobit
 *  test catches the bias with probability rising as k shrinks (entropy
 *  drift lowers k over use). Audit-visible, so no silent corruption. */
void
weakCell(AuditBlock &block, const RoundContext &ctx)
{
    if (ctx.cls != CellClass::Weak)
        return;
    const unsigned k = ctx.severity > 0 ? ctx.severity : 1;
    const std::uint64_t base = blockSeed(ctx) ^ kWeakSalt;
    for (unsigned w = 0; w < 4; ++w) {
        std::uint64_t bias = ~0ULL;
        for (unsigned d = 0; d < k; ++d)
            bias &= mix64(base ^ (w * 8 + d + 1));
        storeWord(block, w, loadWord(block, w) | bias);
    }
}

/** Stuck-at rows: the whole block reads all-zeros or all-ones (the
 *  polarity is a per-cell hash). The audit always catches these. */
void
stuckRow(AuditBlock &block, const RoundContext &ctx)
{
    if (ctx.cls != CellClass::Stuck)
        return;
    const std::uint64_t h = mix64(ctx.seed ^ kStuckSalt ^
                                  ctx.channel * kChannelSalt ^
                                  ctx.cell * kCellSalt);
    block.fill((h & 1) ? 0xff : 0x00);
}

} // namespace

AuditBlock
healthyBlock(const RoundContext &ctx)
{
    const std::uint64_t base = blockSeed(ctx);
    AuditBlock block{};
    for (unsigned w = 0; w < 4; ++w)
        storeWord(block, w, mix64(base ^ (w + 1) * kWordSalt));
    return block;
}

std::vector<FaultKind>
parseFaultModels(const std::string &models)
{
    std::vector<FaultKind> kinds;
    std::istringstream iss(models);
    std::string key;
    while (std::getline(iss, key, ','))
        if (!key.empty())
            kinds.push_back(static_cast<FaultKind>(
                keyIndex("fault model", kFaultModels, key)));
    return kinds;
}

std::uint64_t
corrupt(FaultKind kind, const FaultConfig &cfg, AuditBlock &block,
        const RoundContext &ctx)
{
    switch (kind) {
      case FaultKind::Bitflip:
        return bitflip(cfg.bitflipRate, block, ctx);
      case FaultKind::StuckRow:
        stuckRow(block, ctx);
        break;
      case FaultKind::WeakCell:
        weakCell(block, ctx);
        break;
      case FaultKind::Outage: // A channel blackout, not a block fault.
        break;
    }
    return 0;
}

} // namespace dstrange::fault
