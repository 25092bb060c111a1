#include "message/packet.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mdw {

const char *
toString(PacketKind kind)
{
    switch (kind) {
      case PacketKind::Unicast:
        return "unicast";
      case PacketKind::HwMulticast:
        return "hw-multicast";
      case PacketKind::SwMulticastCarrier:
        return "sw-multicast-carrier";
      case PacketKind::BarrierArrive:
        return "barrier-arrive";
    }
    return "?";
}

std::string
PacketDesc::toString() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "pkt %llu (msg %llu, %s, src %d, %zu dests, %d flits)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(msg),
                  mdw::toString(kind), src, dests.count(), totalFlits());
    return buf;
}

PacketPtr
pruneBranch(const PacketPtr &parent, DestSet branchDests)
{
    MDW_ASSERT(parent != nullptr, "pruning a null packet");
    MDW_ASSERT(branchDests.subsetOf(parent->dests),
               "branch destinations must be a subset of the parent's");
    MDW_ASSERT(!branchDests.empty(), "branch with no destinations");
    if (branchDests == parent->dests)
        return parent;
    PacketDesc branch = *parent;
    branch.dests = std::move(branchDests);
    if (parent->taint) {
        // New replication branch, new integrity node: corruption on
        // one branch must not taint its siblings, but corruption
        // upstream of the split (the parent chain) taints them all.
        branch.taint = std::make_shared<PacketTaint>();
        branch.taint->parent = parent->taint;
    }
    return std::make_shared<const PacketDesc>(std::move(branch));
}

} // namespace mdw
