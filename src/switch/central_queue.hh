/**
 * @file
 * The dynamically shared central buffer (paper Section 4).
 *
 * Storage is organized as fixed-size chunks (SP2: 8 flits). A packet
 * resident in the queue is a chain of chunks plus a set of *readers*,
 * one per output port that must transmit a copy. A multidestination
 * worm is stored ONCE and read out by every branch; a chunk is
 * recycled when the slowest reader has drained it (reference
 * counting). Multidestination worms reserve chunks for the entire
 * packet before being accepted (the paper's deadlock-freedom rule);
 * unicast packets allocate chunks on demand and stall when the shared
 * pool is exhausted.
 *
 * Deadlock freedom of the shared pool: a packet that stalls mid-write
 * holds its input FIFO and, transitively, its whole upstream wormhole
 * path, so two full central queues feeding each other could deadlock.
 * Following the multi-queue shared-buffer tradition (Tamir/Frazier,
 * which the paper cites for this architecture), `escapeReserve`
 * chunks (one per output port) are kept out of the shared pool: the
 * *current stream* of each output may always allocate one escape
 * chunk at a time even when the pool is full. Since an output always
 * drains its current stream (links form an acyclic up*-down* graph
 * ending at always-sinking NICs), the escape chunk cycles
 * write->read->free and every resident packet trickles through;
 * buffer-dependency cycles cannot form.
 *
 * This class is the bookkeeping core; the CentralBufferSwitch layers
 * the chunk-per-cycle write/read bandwidth model on top.
 */

#ifndef MDW_SWITCH_CENTRAL_QUEUE_HH
#define MDW_SWITCH_CENTRAL_QUEUE_HH

#include <vector>

#include "message/packet.hh"

namespace mdw {

/** Geometry of the central queue. */
struct CqParams
{
    /** Total chunks of storage (SP-Switch flavor: 128). */
    int chunks = 128;
    /** Flits per chunk (SP-Switch: 8). */
    int chunkFlits = 8;
    /**
     * Chunks excluded from the shared pool and dedicated to
     * per-output escape allocation (set to the switch radix by the
     * builder; see the file comment).
     */
    int escapeReserve = 0;
    /**
     * Shared-pool chunks that *up-phase* whole-packet reservations
     * must leave free (chunksFor(largest packet); 0 disables).
     * Reservation waits can cycle between adjacent stages — an
     * up-phase worm resident in one queue waiting to reserve in the
     * next while a down-phase worm waits the other way. Keeping
     * room for one maximum-size down-phase worm makes reservation
     * dependencies well-founded: down-phase reservations always
     * eventually succeed (their holders drain stage-by-stage toward
     * the hosts), and up-phase reservations then resolve by
     * induction toward the root stage.
     */
    int upPhaseHeadroom = 0;
};

/**
 * Chunked, reference-counted shared packet store. Entries live in a
 * slot vector indexed by EntryId; a retired entry's id goes on a
 * free list and is reissued to a later packet, so a steady-state
 * add/retire loop allocates nothing.
 */
class CentralQueue
{
  public:
    using EntryId = int;
    static constexpr EntryId kNoEntry = -1;

    explicit CentralQueue(const CqParams &params);

    /** Chunks needed to hold @p flits flits. */
    int chunksFor(int flits) const;

    /**
     * Can a whole-packet reservation of @p totalFlits succeed now?
     * @param upPhase True if the worm still travels toward the LCA
     *        stage; up-phase reservations must leave
     *        upPhaseHeadroom chunks of the shared pool free.
     */
    bool canReserve(int totalFlits, bool upPhase = false) const;

    /**
     * Admit a multidestination worm with an up-front whole-packet
     * chunk reservation from the shared pool. Caller must check
     * canReserve() first.
     * @param readers Number of output branches that will read it.
     */
    EntryId addReserved(PacketPtr pkt, int readers);

    /** Admit a packet without reservation (unicast path). */
    EntryId addUnreserved(PacketPtr pkt, int readers = 1);

    /**
     * Grant @p id the right to use its output's escape chunk; called
     * by the switch when the entry becomes an output's current
     * stream. Idempotent; reserved entries ignore it (their chunks
     * are prepaid).
     */
    void grantEscape(EntryId id);

    /**
     * Flits that may be written now: bounded by the packet length
     * and, for unreserved entries, by shared-pool availability plus
     * at most one outstanding escape chunk when granted.
     */
    int writable(EntryId id) const;

    /** Append @p n flits (n <= writable(id)). */
    void write(EntryId id, int n);

    /** Flits written so far. */
    int written(EntryId id) const;

    /**
     * Flits reader @p reader may take now, at chunk granularity:
     * only completely written chunks (or the packet tail) are
     * readable, modeling the chunk-wide RAM access.
     */
    int readable(EntryId id, int reader) const;

    /**
     * Advance reader @p reader by up to @p maxN flits (bounded by
     * readable()); recycles chunks passed by every reader and erases
     * the entry once fully written and fully read. Returns the number
     * of flits actually read.
     */
    int read(EntryId id, int reader, int maxN);

    /** True while the entry exists (not yet fully consumed). Ids
     *  are recycled: once false, @p id may be reissued. */
    bool alive(EntryId id) const;

    const PacketPtr &packet(EntryId id) const;

    /** Chunks in use, shared pool + escape chunks. */
    int usedChunks() const { return usedShared_ + usedEscape_; }
    /** Free chunks of the shared pool. */
    int freeChunks() const { return sharedCapacity() - usedShared_; }
    /** Shared-pool capacity (total minus the escape reserve). */
    int sharedCapacity() const
    {
        return params_.chunks - params_.escapeReserve;
    }
    int capacityChunks() const { return params_.chunks; }
    /** Number of resident packets. */
    std::size_t entryCount() const { return liveEntries_; }

  private:
    struct Entry
    {
        bool live = false;
        PacketPtr pkt;
        int total = 0;
        int written = 0;
        bool reserved = false;
        bool escapeRights = false;
        /** Chunks charged to the shared pool. */
        int sharedChunks = 0;
        /** Chunks charged to the escape reserve (0 or 1). */
        int escapeChunks = 0;
        int freedChunks = 0;
        /** Per-reader progress; keeps its capacity across reuse. */
        std::vector<int> readerPos;

        int heldChunks() const { return sharedChunks + escapeChunks; }
    };

    /** Claim a slot (a free one first) for @p pkt with @p readers
     *  readers, every field reset. */
    EntryId admit(PacketPtr pkt, int readers, bool reserved);
    Entry &get(EntryId id);
    const Entry &get(EntryId id) const;
    void recycle(EntryId id, Entry &entry);

    CqParams params_;
    int usedShared_ = 0;
    int usedEscape_ = 0;
    /** Slots indexed by EntryId, live or free. */
    std::vector<Entry> entries_;
    /** Ids of free slots, reissued last-retired first. */
    std::vector<EntryId> freeIds_;
    std::size_t liveEntries_ = 0;
};

} // namespace mdw

#endif // MDW_SWITCH_CENTRAL_QUEUE_HH
