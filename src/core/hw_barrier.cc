#include "core/hw_barrier.hh"

#include <map>
#include <set>

namespace mdw {

HwBarrierManager::HwBarrierManager(Network &net)
    : net_(net)
{
    if (net_.config().arch != SwitchArch::CentralBuffer) {
        fatal("hardware barriers require the central-buffer switch "
              "architecture");
    }
    // The combine units make switches call the (shared, unsynchronized)
    // packet factory from inside their step — not shard-safe.
    net_.requireSerial("hardware barriers");
    for (std::size_t s = 0; s < net_.numSwitches(); ++s) {
        auto *cb = dynamic_cast<CentralBufferSwitch *>(
            &net_.switchAt(static_cast<SwitchId>(s)));
        MDW_ASSERT(cb != nullptr, "non-CB switch in a CB network");
        cb->setBarrierHooks(
            [this](PacketDesc desc) {
                return net_.packetFactory().make(std::move(desc));
            },
            [this](int group) { return makeReleaseDesc(group); });
    }
}

int
HwBarrierManager::createGroup(const DestSet &members)
{
    MDW_ASSERT(members.count() >= 2, "barrier group needs >= 2 members");
    const Topology &topo = net_.topology();
    const PortGraph &graph = topo.graph();

    // Walk every member's lowest-up-port chain to the unique root,
    // recording the arrival port at each switch along the way.
    std::map<SwitchId, std::set<PortId>> expected;
    SwitchId root = kInvalidSwitch;
    members.forEach([&](NodeId member) {
        const HostAttach &at = graph.attach(member);
        SwitchId sw = at.sw;
        PortId arrival = at.port;
        while (true) {
            expected[sw].insert(arrival);
            const auto &ups = topo.routing().at(sw).upPorts();
            if (ups.empty()) {
                MDW_ASSERT(root == kInvalidSwitch || root == sw,
                           "combining chains reached two roots");
                root = sw;
                break;
            }
            const PortId up = ups.front();
            const PortPeer &peer = graph.peer(sw, up);
            MDW_ASSERT(peer.isSwitch(), "up port without a switch");
            arrival = peer.port;
            sw = peer.sw;
        }
    });
    MDW_ASSERT(root != kInvalidSwitch, "no combining root found");

    const int group = nextGroup_++;
    for (const auto &[sw, ports] : expected) {
        BarrierSwitchEntry entry;
        entry.expectedPorts.assign(ports.begin(), ports.end());
        entry.isRoot = sw == root;
        if (!entry.isRoot)
            entry.upPort = topo.routing().at(sw).upPorts().front();
        auto *cb =
            dynamic_cast<CentralBufferSwitch *>(&net_.switchAt(sw));
        cb->configureBarrier(group, std::move(entry));
    }

    Group state;
    state.members = members;
    groups_.emplace(group, std::move(state));
    return group;
}

PacketDesc
HwBarrierManager::makeReleaseDesc(int group)
{
    auto it = groups_.find(group);
    MDW_ASSERT(it != groups_.end(), "release for unknown group %d",
               group);
    Group &state = it->second;
    MDW_ASSERT(state.active, "release for an inactive barrier round");

    PacketDesc desc;
    desc.msg = state.releaseMsg;
    desc.src = kInvalidNode; // originated by the root switch
    desc.dests = state.members;
    desc.kind = PacketKind::HwMulticast;
    desc.headerFlits = bitStringHeaderFlits(net_.numHosts(),
                                            net_.config().nic.enc);
    desc.payloadFlits = kReleasePayload;
    desc.created = net_.sim().now();
    return desc;
}

void
HwBarrierManager::startBarrier(int group, Done done)
{
    auto it = groups_.find(group);
    MDW_ASSERT(it != groups_.end(), "unknown barrier group %d", group);
    Group &state = it->second;
    MDW_ASSERT(!state.active,
               "barrier group %d already has a round in flight", group);
    state.active = true;
    state.done = std::move(done);
    state.releaseMsg = net_.packetFactory().newMsgId();
    net_.tracker().expectMessage(state.releaseMsg, kInvalidNode,
                                 state.members.count(),
                                 net_.sim().now(), true);
    msgToGroup_.emplace(state.releaseMsg, group);
    ++pending_;

    const Cycle now = net_.sim().now();
    state.members.forEach([this, group, now](NodeId member) {
        net_.nic(member).postBarrierArrive(group, now);
    });
}

void
HwBarrierManager::onCompleted(MsgId msg, NodeId, Cycle now)
{
    const auto msg_it = msgToGroup_.find(msg);
    if (msg_it == msgToGroup_.end())
        return;
    Group &state = groups_.at(msg_it->second);
    msgToGroup_.erase(msg_it);
    state.active = false;
    --pending_;
    const Done done = std::move(state.done);
    state.done = nullptr;
    if (done)
        done(now);
}

} // namespace mdw
