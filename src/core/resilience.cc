#include "core/resilience.hh"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/network.hh"
#include "sim/logging.hh"

namespace mdw {

ResilienceManager::ResilienceManager(Network &net, FaultPlan plan)
    : net_(net), plan_(std::move(plan))
{
}

void
ResilienceManager::install()
{
    MDW_ASSERT(dirs_.empty(), "resilience installed twice");
    const Topology &topo = net_.topology();
    dirs_ = topo.dirs();
    deadSwitch_.assign(topo.numSwitches(), false);
    reachable_.assign(topo.numHosts(), DestSet(topo.numHosts()));

    net_.tracker().enableResilience();
    for (std::size_t s = 0; s < topo.numSwitches(); ++s)
        net_.switchAt(static_cast<SwitchId>(s))
            .setPoisonRegistry(&poisoned_);
    for (std::size_t h = 0; h < topo.numHosts(); ++h) {
        Nic &nic = net_.nic(static_cast<NodeId>(h));
        nic.setPoisonRegistry(&poisoned_);
        nic.setReachable(&reachable_[h]);
    }
    recomputeReachability();

    for (const FaultEvent &event : plan_.events) {
        net_.sim().events().schedule(event.when, [this, event] {
            apply(event);
        });
    }
}

void
ResilienceManager::apply(const FaultEvent &event)
{
    inform("fault: %s", event.describe().c_str());
    bool didApply = true;
    switch (event.kind) {
      case FaultKind::LinkDown:
        didApply = applyLinkDown(event);
        break;
      case FaultKind::SwitchDown:
        didApply = applySwitchDown(event);
        break;
      case FaultKind::LinkDegrade:
        applyLinkDegrade(event);
        break;
    }
    if (didApply)
        ++applied_;
}

void
ResilienceManager::escalateLink(SwitchId sw, int port, Cycle when)
{
    // Canonical key: the lower-id endpoint, as fault plans name links.
    SwitchId a = sw;
    PortId pa = static_cast<PortId>(port);
    const PortPeer &peer = net_.topology().graph().peer(a, pa);
    if (peer.isSwitch() &&
        std::make_pair(peer.sw, peer.port) < std::make_pair(a, pa)) {
        a = peer.sw;
        pa = peer.port;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
         << 32) |
        static_cast<std::uint32_t>(pa);
    if (!escalated_.insert(key).second)
        return; // the other direction already reported this link
    linkEscalations_.inc();

    FaultEvent ev;
    ev.kind = FaultKind::LinkDown;
    ev.sw = a;
    ev.port = pa;
    // Escalations originate mid-cycle inside a component step; apply
    // at the next cycle boundary at the earliest so the fail-stop
    // lands between steps like every planned fault.
    ev.when = std::max(when, net_.sim().now() + 1);
    warn("link sw%d.p%d escalated to fail-stop at cycle %llu", a, pa,
         static_cast<unsigned long long>(ev.when));
    net_.sim().events().schedule(ev.when,
                                 [this, ev] { apply(ev); });
}

void
ResilienceManager::killLink(SwitchId sw, PortId port)
{
    const PortPeer &peer = net_.topology().graph().peer(sw, port);
    MDW_ASSERT(peer.isSwitch(),
               "fault names switch %d port %d, which is not a "
               "switch-switch link",
               sw, port);
    SwitchBase &a = net_.switchAt(sw);
    SwitchBase &b = net_.switchAt(peer.sw);
    a.failOutPort(port);
    a.failInPort(port);
    b.failOutPort(peer.port);
    b.failInPort(peer.port);
    dirs_[static_cast<std::size_t>(sw)]
         [static_cast<std::size_t>(port)] = PortDir::Unused;
    dirs_[static_cast<std::size_t>(peer.sw)]
         [static_cast<std::size_t>(peer.port)] = PortDir::Unused;
    // Any link layers guarding this link stop retrying and drop.
    net_.markLinkDead(sw, port);
}

bool
ResilienceManager::linkDead(SwitchId sw, PortId port) const
{
    if (dirs_[static_cast<std::size_t>(sw)]
             [static_cast<std::size_t>(port)] != PortDir::Unused)
        return false;
    const PortPeer &peer = net_.topology().graph().peer(sw, port);
    return !peer.isSwitch() ||
           dirs_[static_cast<std::size_t>(peer.sw)]
                [static_cast<std::size_t>(peer.port)] ==
               PortDir::Unused;
}

bool
ResilienceManager::applyLinkDown(const FaultEvent &event)
{
    const PortId port = static_cast<PortId>(event.port);
    if (linkDead(event.sw, port)) {
        // E.g. a flap escalation racing a planned fault, or a fault
        // on a link a dead switch already took down: nothing to do.
        inform("fault: %s ignored (link already failed)",
               event.describe().c_str());
        return false;
    }
    killLink(event.sw, port);
    rebuildRouting();
    recomputeReachability();
    return true;
}

bool
ResilienceManager::applySwitchDown(const FaultEvent &event)
{
    const PortGraph &graph = net_.topology().graph();
    const SwitchId sw = event.sw;
    if (deadSwitch_.at(static_cast<std::size_t>(sw))) {
        inform("fault: %s ignored (switch already failed)",
               event.describe().c_str());
        return false;
    }
    deadSwitch_.at(static_cast<std::size_t>(sw)) = true;
    SwitchBase &dead = net_.switchAt(sw);
    for (PortId p = 0; p < graph.radix(sw); ++p) {
        dirs_[static_cast<std::size_t>(sw)]
             [static_cast<std::size_t>(p)] = PortDir::Unused;
        const PortPeer &peer = graph.peer(sw, p);
        if (!peer.connected())
            continue;
        dead.failInPort(p);
        dead.failOutPort(p);
        if (peer.isSwitch()) {
            SwitchBase &other = net_.switchAt(peer.sw);
            other.failInPort(peer.port);
            other.failOutPort(peer.port);
            dirs_[static_cast<std::size_t>(peer.sw)]
                 [static_cast<std::size_t>(peer.port)] = PortDir::Unused;
            net_.markLinkDead(sw, p);
        } else if (peer.isHost()) {
            Nic &nic = net_.nic(peer.host);
            if (peer.hostRole != PortPeer::HostRole::Eject)
                nic.failTx();
            if (peer.hostRole != PortPeer::HostRole::Inject)
                nic.failRx();
        }
    }
    rebuildRouting();
    recomputeReachability();
    return true;
}

void
ResilienceManager::applyLinkDegrade(const FaultEvent &event)
{
    MDW_ASSERT(event.factor >= 1, "degrade factor %d < 1",
               event.factor);
    const SwitchId sw = event.sw;
    const PortId port = static_cast<PortId>(event.port);
    const PortPeer &peer = net_.topology().graph().peer(sw, port);
    MDW_ASSERT(peer.isSwitch(),
               "degrade names switch %d port %d, which is not a "
               "switch-switch link",
               sw, port);
    // The link still works, so no rerouting: both directions just
    // pace themselves.
    net_.switchAt(sw).degradeOutPort(port, event.factor);
    net_.switchAt(peer.sw).degradeOutPort(peer.port, event.factor);
}

void
ResilienceManager::rebuildRouting()
{
    routings_.push_back(std::make_unique<NetworkRouting>(
        net_.topology().graph(), dirs_, /*tolerant=*/true));
    const NetworkRouting &fresh = *routings_.back();
    for (std::size_t s = 0; s < net_.numSwitches(); ++s) {
        const SwitchId id = static_cast<SwitchId>(s);
        net_.switchAt(id).setRouting(&fresh.at(id));
    }
    verifyUpDagAcyclic();
}

void
ResilienceManager::verifyUpDagAcyclic() const
{
    // The intact orientation is acyclic and faults only remove
    // edges, so this can never fire — it is the explicit statement
    // of the deadlock-freedom argument for the rerouted network.
    const PortGraph &graph = net_.topology().graph();
    const std::size_t n = graph.numSwitches();
    enum : char { White, Grey, Black };
    std::vector<char> color(n, White);
    std::vector<std::pair<SwitchId, PortId>> stack;
    for (std::size_t root = 0; root < n; ++root) {
        if (color[root] != White)
            continue;
        stack.emplace_back(static_cast<SwitchId>(root), 0);
        color[root] = Grey;
        while (!stack.empty()) {
            auto &[s, p] = stack.back();
            if (p >= graph.radix(s)) {
                color[static_cast<std::size_t>(s)] = Black;
                stack.pop_back();
                continue;
            }
            const PortId port = p++;
            if (dirs_[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(port)] != PortDir::Up)
                continue;
            const PortPeer &peer = graph.peer(s, port);
            if (!peer.isSwitch())
                continue;
            const auto t = static_cast<std::size_t>(peer.sw);
            if (color[t] == Grey) {
                panic("rerouted up-link orientation has a cycle "
                      "through switches %d and %d",
                      s, peer.sw);
            }
            if (color[t] == White) {
                color[t] = Grey;
                stack.emplace_back(peer.sw, 0);
            }
        }
    }
}

void
ResilienceManager::recomputeReachability()
{
    const Topology &topo = net_.topology();
    const PortGraph &graph = topo.graph();
    const std::size_t switches = topo.numSwitches();
    const std::size_t hosts = topo.numHosts();
    const NetworkRouting &routing =
        routings_.empty() ? topo.routing() : *routings_.back();

    // Per switch: hosts reachable by going up zero or more surviving
    // links from here and then only down.
    std::vector<DestSet> swReach(switches, DestSet(hosts));
    std::vector<char> visited(switches);
    std::deque<SwitchId> frontier;
    for (std::size_t s0 = 0; s0 < switches; ++s0) {
        if (deadSwitch_[s0])
            continue;
        std::fill(visited.begin(), visited.end(), 0);
        frontier.clear();
        frontier.push_back(static_cast<SwitchId>(s0));
        visited[s0] = 1;
        DestSet reach(hosts);
        while (!frontier.empty()) {
            const SwitchId s = frontier.front();
            frontier.pop_front();
            for (const HostRange &r : routing.at(s).downUnion())
                reach.setRange(r.lo, r.hi);
            for (PortId p = 0; p < graph.radix(s); ++p) {
                if (dirs_[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(p)] != PortDir::Up)
                    continue;
                const PortPeer &peer = graph.peer(s, p);
                if (!peer.isSwitch())
                    continue;
                const auto t = static_cast<std::size_t>(peer.sw);
                if (!visited[t]) {
                    visited[t] = 1;
                    frontier.push_back(peer.sw);
                }
            }
        }
        swReach[s0] = std::move(reach);
    }

    for (std::size_t h = 0; h < hosts; ++h) {
        const HostAttach &attach =
            graph.injectAttach(static_cast<NodeId>(h));
        const auto home = static_cast<std::size_t>(attach.sw);
        if (deadSwitch_[home])
            reachable_[h].reset();
        else
            reachable_[h] = swReach[home];
    }
}

const DestSet &
ResilienceManager::reachableFrom(NodeId host) const
{
    return reachable_.at(static_cast<std::size_t>(host));
}

bool
ResilienceManager::switchDead(SwitchId sw) const
{
    return deadSwitch_.at(static_cast<std::size_t>(sw));
}

} // namespace mdw
