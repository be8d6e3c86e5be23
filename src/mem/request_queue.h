/**
 * @file
 * Bounded per-channel request queue with age-ordered storage and the
 * next-DRAM-command classification the schedulers operate on.
 */

#ifndef DSTRANGE_MEM_REQUEST_QUEUE_H
#define DSTRANGE_MEM_REQUEST_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/dram_channel.h"
#include "mem/request.h"

namespace dstrange::mem {

/**
 * A bounded queue of requests awaiting their column command. Requests
 * are stored in arrival order; erasure is O(n) with n <= 32, which is
 * cheaper in practice than pointer-chasing structures.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity) : cap(capacity) {}

    bool full() const { return entries.size() >= cap; }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }
    std::size_t capacity() const { return cap; }

    /** @retval false when the queue is full (caller must retry). */
    bool
    push(const Request &req)
    {
        if (full())
            return false;
        entries.push_back(req);
        return true;
    }

    const Request &at(std::size_t i) const { return entries[i]; }
    Request &at(std::size_t i) { return entries[i]; }

    /** Remove the request at index @p i (its column command issued). */
    void
    erase(std::size_t i)
    {
        entries.erase(entries.begin() + i);
    }

    const std::vector<Request> &all() const { return entries; }

  private:
    std::size_t cap;
    std::vector<Request> entries;
};

/**
 * The DRAM command a queued request needs next, given current bank state:
 * a row hit needs its column command, a row conflict needs PRE, and a
 * closed bank needs ACT.
 */
inline dram::DramCmd
nextCommandFor(const Request &req, const dram::DramChannel &chan)
{
    const std::int64_t open_row = chan.openRow(req.coord.bank);
    if (open_row == dram::kNoOpenRow)
        return dram::DramCmd::Act;
    if (open_row == static_cast<std::int64_t>(req.coord.row))
        return req.type == ReqType::Write ? dram::DramCmd::Wr
                                          : dram::DramCmd::Rd;
    return dram::DramCmd::Pre;
}

/** true when the request's next command is its column command. */
inline bool
isRowHit(const Request &req, const dram::DramChannel &chan)
{
    const dram::DramCmd cmd = nextCommandFor(req, chan);
    return cmd == dram::DramCmd::Rd || cmd == dram::DramCmd::Wr;
}

} // namespace dstrange::mem

#endif // DSTRANGE_MEM_REQUEST_QUEUE_H
