#include "switch/central_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mdw {

CentralQueue::CentralQueue(const CqParams &params)
    : params_(params)
{
    MDW_ASSERT(params_.chunks > 0, "central queue needs chunks");
    MDW_ASSERT(params_.chunkFlits > 0, "chunk size must be positive");
    MDW_ASSERT(params_.escapeReserve >= 0 &&
                   params_.escapeReserve < params_.chunks,
               "escape reserve %d out of range for %d chunks",
               params_.escapeReserve, params_.chunks);
}

int
CentralQueue::chunksFor(int flits) const
{
    return (flits + params_.chunkFlits - 1) / params_.chunkFlits;
}

bool
CentralQueue::canReserve(int totalFlits, bool upPhase) const
{
    const int headroom = upPhase ? params_.upPhaseHeadroom : 0;
    return chunksFor(totalFlits) <= freeChunks() - headroom;
}

CentralQueue::EntryId
CentralQueue::addReserved(PacketPtr pkt, int readers)
{
    MDW_ASSERT(pkt != nullptr, "null packet");
    MDW_ASSERT(readers >= 1, "entry needs at least one reader");
    const int need = chunksFor(pkt->totalFlits());
    MDW_ASSERT(need <= freeChunks(),
               "reservation of %d chunks with only %d free (check "
               "canReserve first)",
               need, freeChunks());
    const EntryId id = admit(std::move(pkt), readers, true);
    entries_[static_cast<std::size_t>(id)].sharedChunks = need;
    usedShared_ += need;
    return id;
}

CentralQueue::EntryId
CentralQueue::addUnreserved(PacketPtr pkt, int readers)
{
    MDW_ASSERT(pkt != nullptr, "null packet");
    MDW_ASSERT(readers >= 1, "entry needs at least one reader");
    return admit(std::move(pkt), readers, false);
}

CentralQueue::EntryId
CentralQueue::admit(PacketPtr pkt, int readers, bool reserved)
{
    EntryId id;
    if (freeIds_.empty()) {
        id = static_cast<EntryId>(entries_.size());
        entries_.emplace_back();
    } else {
        id = freeIds_.back();
        freeIds_.pop_back();
    }
    Entry &entry = entries_[static_cast<std::size_t>(id)];
    // Start from a fresh entry but keep the reader vector's storage.
    std::vector<int> readerPos = std::move(entry.readerPos);
    readerPos.assign(static_cast<std::size_t>(readers), 0);
    entry = Entry{};
    entry.live = true;
    entry.total = pkt->totalFlits();
    entry.pkt = std::move(pkt);
    entry.reserved = reserved;
    entry.readerPos = std::move(readerPos);
    ++liveEntries_;
    return id;
}

void
CentralQueue::grantEscape(EntryId id)
{
    Entry &entry = get(id);
    if (!entry.reserved)
        entry.escapeRights = true;
}

CentralQueue::Entry &
CentralQueue::get(EntryId id)
{
    MDW_ASSERT(alive(id), "central-queue entry %d not found", id);
    return entries_[static_cast<std::size_t>(id)];
}

const CentralQueue::Entry &
CentralQueue::get(EntryId id) const
{
    MDW_ASSERT(alive(id), "central-queue entry %d not found", id);
    return entries_[static_cast<std::size_t>(id)];
}

int
CentralQueue::writable(EntryId id) const
{
    const Entry &entry = get(id);
    const int pending = entry.total - entry.written;
    if (entry.reserved || pending == 0)
        return pending;
    // Unreserved: new chunks come from the shared pool, plus at most
    // one outstanding escape chunk for an output's current stream.
    const int touched = chunksFor(entry.written);
    const int slack =
        (touched * params_.chunkFlits) - entry.written; // in last chunk
    int chunks_avail = std::max(freeChunks(), 0);
    if (entry.escapeRights && entry.escapeChunks == 0 &&
        usedEscape_ < params_.escapeReserve) {
        ++chunks_avail;
    }
    return std::min(pending, slack + chunks_avail * params_.chunkFlits);
}

void
CentralQueue::write(EntryId id, int n)
{
    Entry &entry = get(id);
    MDW_ASSERT(n > 0 && n <= writable(id),
               "invalid write of %d flits (writable %d)", n,
               writable(id));
    if (!entry.reserved) {
        const int before = chunksFor(entry.written);
        const int after = chunksFor(entry.written + n);
        int grown = after - before;
        // Charge the shared pool first, then the escape reserve.
        const int from_shared = std::min(grown, freeChunks());
        usedShared_ += from_shared;
        entry.sharedChunks += from_shared;
        grown -= from_shared;
        if (grown > 0) {
            MDW_ASSERT(entry.escapeRights && grown == 1 &&
                           entry.escapeChunks == 0 &&
                           usedEscape_ < params_.escapeReserve,
                       "escape-chunk accounting violated "
                       "(grown=%d escape=%d/%d)",
                       grown, usedEscape_, params_.escapeReserve);
            ++usedEscape_;
            entry.escapeChunks = 1;
        }
    }
    entry.written += n;
}

int
CentralQueue::written(EntryId id) const
{
    return get(id).written;
}

int
CentralQueue::readable(EntryId id, int reader) const
{
    const Entry &entry = get(id);
    MDW_ASSERT(reader >= 0 &&
                   static_cast<std::size_t>(reader) <
                       entry.readerPos.size(),
               "reader %d out of range", reader);
    // Chunk-granularity access: only fully written chunks (or the
    // written tail of a complete packet) can be fetched.
    const int limit =
        entry.written == entry.total
            ? entry.total
            : (entry.written / params_.chunkFlits) * params_.chunkFlits;
    return limit - entry.readerPos[static_cast<std::size_t>(reader)];
}

int
CentralQueue::read(EntryId id, int reader, int maxN)
{
    Entry &entry = get(id);
    const int n = std::min(maxN, readable(id, reader));
    if (n <= 0)
        return 0;
    entry.readerPos[static_cast<std::size_t>(reader)] += n;
    recycle(id, entry);
    return n;
}

void
CentralQueue::recycle(EntryId id, Entry &entry)
{
    int min_pos = entry.total;
    for (int pos : entry.readerPos)
        min_pos = std::min(min_pos, pos);

    const bool complete =
        min_pos == entry.total && entry.written == entry.total;
    // Cumulative chunks no reader still needs.
    const int freeable = complete ? entry.heldChunks() +
                                        entry.freedChunks
                                  : min_pos / params_.chunkFlits;
    const int target =
        std::min(freeable, entry.heldChunks() + entry.freedChunks);
    if (target > entry.freedChunks) {
        int released = target - entry.freedChunks;
        entry.freedChunks = target;
        // Return escape chunks first so the trickle path frees up
        // for this entry's next write.
        const int from_escape = std::min(released, entry.escapeChunks);
        entry.escapeChunks -= from_escape;
        usedEscape_ -= from_escape;
        released -= from_escape;
        MDW_ASSERT(released <= entry.sharedChunks,
                   "freeing more chunks than charged");
        entry.sharedChunks -= released;
        usedShared_ -= released;
        MDW_ASSERT(usedShared_ >= 0 && usedEscape_ >= 0,
                   "negative chunk usage");
    }

    if (complete) {
        MDW_ASSERT(entry.heldChunks() == 0,
                   "entry completed with %d chunks still charged",
                   entry.heldChunks());
        entry.live = false;
        entry.pkt = nullptr;
        freeIds_.push_back(id);
        --liveEntries_;
    }
}

bool
CentralQueue::alive(EntryId id) const
{
    return id >= 0 && static_cast<std::size_t>(id) < entries_.size() &&
           entries_[static_cast<std::size_t>(id)].live;
}

const PacketPtr &
CentralQueue::packet(EntryId id) const
{
    return get(id).pkt;
}

} // namespace mdw
