#include "topology/topology.hh"

#include "sim/logging.hh"

namespace mdw {

PortDir
Topology::portDir(SwitchId sw, PortId port) const
{
    MDW_ASSERT(sw >= 0 && static_cast<std::size_t>(sw) < dirs_.size(),
               "switch id %d out of range", sw);
    const auto &row = dirs_[static_cast<std::size_t>(sw)];
    MDW_ASSERT(port >= 0 && static_cast<std::size_t>(port) < row.size(),
               "port %d out of range on switch %d", port, sw);
    return row[static_cast<std::size_t>(port)];
}

void
Topology::finalize()
{
    MDW_ASSERT(!routing_, "Topology::finalize called twice");
    graph_.validate();
    MDW_ASSERT(graph_.connectedSwitches(),
               "topology switch graph is not connected");
    routing_ = std::make_unique<NetworkRouting>(graph_, dirs_);

    // Every host must be reachable from every switch: the root(s) of
    // the routing tree must down-reach everything, and every switch
    // must be able to climb toward a root.
    for (std::size_t s = 0;
         rootsMustReachAll_ && s < graph_.numSwitches(); ++s) {
        const auto &sr = routing_->at(static_cast<SwitchId>(s));
        if (sr.upPorts().empty()) {
            MDW_ASSERT(sr.downReachCount() == graph_.numHosts(),
                       "root switch %zu cannot reach all hosts", s);
        }
    }
}

} // namespace mdw
