#include "topology/routing.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "topology/graph.hh"

namespace mdw {

const char *
toString(PortDir dir)
{
    switch (dir) {
      case PortDir::Down:
        return "down";
      case PortDir::Up:
        return "up";
      case PortDir::Unused:
        return "unused";
    }
    return "?";
}

const char *
toString(RoutingVariant variant)
{
    switch (variant) {
      case RoutingVariant::ReplicateAfterLca:
        return "replicate-after-lca";
      case RoutingVariant::ReplicateOnUpPath:
        return "replicate-on-up-path";
    }
    return "?";
}

const char *
toString(UpPortPolicy policy)
{
    switch (policy) {
      case UpPortPolicy::Deterministic:
        return "deterministic";
      case UpPortPolicy::Adaptive:
        return "adaptive";
    }
    return "?";
}

namespace {

/**
 * Sort ranges[from..] and merge overlapping or adjacent intervals in
 * place, leaving ranges[..from) alone.
 */
void
normalize(std::vector<HostRange> &ranges, std::size_t from = 0)
{
    if (ranges.size() < from + 2)
        return;
    std::sort(ranges.begin() + static_cast<std::ptrdiff_t>(from),
              ranges.end(), [](const HostRange &x, const HostRange &y) {
                  return x.lo < y.lo;
              });
    std::size_t last = from;
    for (std::size_t i = from + 1; i < ranges.size(); ++i) {
        if (ranges[i].lo <= ranges[last].hi)
            ranges[last].hi = std::max(ranges[last].hi, ranges[i].hi);
        else
            ranges[++last] = ranges[i];
    }
    ranges.resize(last + 1);
}

bool
intersects(HostRanges a, HostRanges b)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i].hi <= b[j].lo)
            ++i;
        else if (b[j].hi <= a[i].lo)
            ++j;
        else
            return true;
    }
    return false;
}

/** The hosts of @p a that are not in @p b. */
std::vector<HostRange>
subtract(HostRanges a, HostRanges b)
{
    std::vector<HostRange> out;
    std::size_t j = 0;
    for (const HostRange &r : a) {
        NodeId lo = r.lo;
        while (j < b.size() && b[j].hi <= lo)
            ++j;
        for (std::size_t k = j; k < b.size() && b[k].lo < r.hi; ++k) {
            if (b[k].lo > lo)
                out.push_back(HostRange{lo, b[k].lo});
            lo = std::max(lo, b[k].hi);
        }
        if (lo < r.hi)
            out.push_back(HostRange{lo, r.hi});
    }
    return out;
}

void
extend(std::vector<HostRange> &into, const std::vector<HostRange> &from)
{
    into.insert(into.end(), from.begin(), from.end());
}

} // namespace

SwitchRouting::SwitchRouting(int radix, std::size_t num_hosts)
    : ports_(static_cast<std::size_t>(radix)), numHosts_(num_hosts)
{
    ranges_.reserve(ports_.size());
}

void
SwitchRouting::setDir(PortId port, PortDir dir)
{
    MDW_ASSERT(!frozen_, "routing modified after freeze");
    ports_.at(static_cast<std::size_t>(port)).dir = dir;
}

PortDir
SwitchRouting::dir(PortId port) const
{
    return ports_.at(static_cast<std::size_t>(port)).dir;
}

HostRanges
SwitchRouting::slice(Slice s) const
{
    return HostRanges(ranges_).subspan(s.begin, s.end - s.begin);
}

SwitchRouting::Slice
SwitchRouting::append(HostRanges ranges)
{
    const auto begin = static_cast<std::uint32_t>(ranges_.size());
    ranges_.insert(ranges_.end(), ranges.begin(), ranges.end());
    return Slice{begin, static_cast<std::uint32_t>(ranges_.size())};
}

void
SwitchRouting::setReach(PortId port, PortDir dir, HostRanges reach)
{
    MDW_ASSERT(!frozen_, "routing modified after freeze");
    auto &state = ports_.at(static_cast<std::size_t>(port));
    MDW_ASSERT(state.dir == dir, "%s-reach set on a %s port %d",
               toString(dir), toString(state.dir), port);
    for (std::size_t i = 0; i < reach.size(); ++i) {
        MDW_ASSERT(reach[i].lo < reach[i].hi &&
                       (i == 0 || reach[i - 1].hi < reach[i].lo) &&
                       static_cast<std::size_t>(reach[i].hi) <= numHosts_,
                   "port %d reach is not sorted, disjoint intervals "
                   "within [0,%zu)",
                   port, numHosts_);
    }
    state.reach = append(reach);
}

void
SwitchRouting::setDownReach(PortId port, HostRanges reach)
{
    setReach(port, PortDir::Down, reach);
}

HostRanges
SwitchRouting::downReach(PortId port) const
{
    return slice(ports_.at(static_cast<std::size_t>(port)).reach);
}

void
SwitchRouting::setUpReach(PortId port, HostRanges reach)
{
    setReach(port, PortDir::Up, reach);
}

HostRanges
SwitchRouting::upReach(PortId port) const
{
    return slice(ports_.at(static_cast<std::size_t>(port)).reach);
}

std::size_t
SwitchRouting::downReachCount() const
{
    std::size_t total = 0;
    for (const HostRange &r : downUnion())
        total += static_cast<std::size_t>(r.hi - r.lo);
    return total;
}

void
SwitchRouting::freeze()
{
    MDW_ASSERT(!frozen_, "double freeze");
    std::size_t ups = 0, downs = 0;
    for (const PortState &state : ports_) {
        ups += state.dir == PortDir::Up;
        downs += state.dir == PortDir::Down;
    }
    upPorts_.reserve(ups);
    downSplits_.reserve(downs);
    const auto union_begin = static_cast<std::uint32_t>(ranges_.size());
    for (std::size_t p = 0; p < ports_.size(); ++p) {
        const PortId port = static_cast<PortId>(p);
        if (ports_[p].dir == PortDir::Up) {
            upPorts_.push_back(port);
        } else if (ports_[p].dir == PortDir::Down) {
            downSplits_.push_back(DownSplit{port, ports_[p].reach});
            for (std::uint32_t i = ports_[p].reach.begin;
                 i < ports_[p].reach.end; ++i) {
                const HostRange r = ranges_[i];
                ranges_.push_back(r);
            }
        }
    }
    normalize(ranges_, union_begin);
    downUnion_ =
        Slice{union_begin, static_cast<std::uint32_t>(ranges_.size())};

    // A down port whose reach overlaps an earlier down port's keeps
    // only the rest. Fat trees and UniMin never overlap, so their
    // splits are the reach lists themselves.
    for (std::size_t i = 1; i < downSplits_.size(); ++i) {
        const HostRanges own = slice(downSplits_[i].ranges);
        bool overlaps = false;
        for (std::size_t j = 0; j < i && !overlaps; ++j)
            overlaps = intersects(own, downReach(downSplits_[j].port));
        if (!overlaps)
            continue;
        std::vector<HostRange> rest(own.begin(), own.end());
        for (std::size_t j = 0; j < i; ++j)
            rest = subtract(rest, downReach(downSplits_[j].port));
        downSplits_[i].ranges = append(rest);
    }
    frozen_ = true;
}

bool
SwitchRouting::anyIn(const DestSet &dests, Slice s) const
{
    bool any = false;
    for (const HostRange &r : slice(s))
        any |= dests.anyInRange(r.lo, r.hi);
    return any;
}

bool
SwitchRouting::allDownReachable(const DestSet &dests) const
{
    NodeId from = 0;
    for (const HostRange &r : downUnion()) {
        if (dests.anyInRange(from, r.lo))
            return false;
        from = r.hi;
    }
    return !dests.anyInRange(from, static_cast<NodeId>(numHosts_));
}

void
SwitchRouting::branch(const DestSet &dests, RouteDecision &out,
                      DestSet *rest) const
{
    for (const DownSplit &split : downSplits_) {
        if (!anyIn(dests, split.ranges))
            continue;
        DestSet sub(numHosts_);
        for (const HostRange &r : slice(split.ranges)) {
            sub.copyRange(dests, r.lo, r.hi);
            if (rest)
                rest->clearRange(r.lo, r.hi);
        }
        out.downBranches.emplace_back(split.port, std::move(sub));
    }
}

RouteDecision
SwitchRouting::decode(const DestSet &dests, RoutingVariant variant) const
{
    MDW_ASSERT(frozen_, "decode before freeze");
    MDW_ASSERT(dests.size() == numHosts_,
               "DestSet universe mismatch: %zu vs %zu", dests.size(),
               numHosts_);

    // Only the words inside each down port's intervals (and, to find
    // destinations that need an up port, the gaps between them) are
    // read; only the branch sets returned are allocated.
    RouteDecision out;
    if (allDownReachable(dests)) {
        branch(dests, out, nullptr);
        MDW_ASSERT(!out.downBranches.empty(),
                   "decoding an empty destination set");
        return out;
    }

    if (tolerant_) {
        // Rebuilt-around-faults table: destinations no up port can
        // serve are reported unroutable here instead of riding the
        // worm to a dead end; whatever down branches exist keep
        // serving the reachable destinations.
        DestSet rest = dests;
        for (const HostRange &r : downUnion())
            rest.clearRange(r.lo, r.hi);
        DestSet lost = rest;
        for (PortId p : upPorts_) {
            for (const HostRange &r : upReach(p))
                lost.clearRange(r.lo, r.hi);
        }
        if (!lost.empty()) {
            rest -= lost;
            out.unroutable = std::move(lost);
            if (rest.empty()) {
                branch(dests, out, nullptr);
                return out;
            }
        }
    }
    MDW_ASSERT(!upPorts_.empty(), "destinations unreachable and no up port");
    out.upDests = dests;
    if (!out.unroutable.empty())
        out.upDests -= out.unroutable;
    // ReplicateAfterLca: below the LCA the worm does not branch; the
    // whole set rides up and all replication happens on the way
    // down. ReplicateOnUpPath branches here and sends up the rest.
    if (variant == RoutingVariant::ReplicateOnUpPath)
        branch(dests, out, &out.upDests);
    out.upCandidates = upPorts_;
    if (tolerant_)
        filterUpCandidates(out);
    return out;
}

void
SwitchRouting::filterUpCandidates(RouteDecision &out) const
{
    // Fault-aware ascent: prefer up ports whose surviving reach
    // covers the whole up-set, so the worm heads for a root that can
    // still replicate to everyone. When faults fragment the network
    // so that no single port covers the set, fall back to maximal
    // coverage — the stragglers surface as unroutable higher up and
    // the source's retransmission re-covers them.
    const std::size_t want = out.upDests.count();
    std::vector<PortId> &full = out.filteredUp;
    std::vector<PortId> best;
    std::size_t best_count = 0;
    for (PortId p : upPorts_) {
        std::size_t n = 0;
        for (const HostRange &r : upReach(p))
            n += out.upDests.countRange(r.lo, r.hi);
        if (n == want) {
            full.push_back(p);
            continue;
        }
        if (n > best_count) {
            best_count = n;
            best.clear();
        }
        if (n == best_count && n > 0)
            best.push_back(p);
    }
    if (full.empty())
        full = std::move(best);
    if (!full.empty())
        out.upCandidates = full;
}

NetworkRouting::NetworkRouting(
    const PortGraph &graph,
    const std::vector<std::vector<PortDir>> &dirs, bool tolerant)
{
    const std::size_t num_switches = graph.numSwitches();
    const std::size_t num_hosts = graph.numHosts();
    MDW_ASSERT(dirs.size() == num_switches,
               "direction table size mismatch");

    switches_.reserve(num_switches);
    for (std::size_t s = 0; s < num_switches; ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        MDW_ASSERT(dirs[s].size() ==
                       static_cast<std::size_t>(graph.radix(sw)),
                   "direction table radix mismatch at switch %zu", s);
        switches_.emplace_back(graph.radix(sw), num_hosts);
        switches_[s].setTolerant(tolerant);
        for (std::size_t p = 0; p < dirs[s].size(); ++p)
            switches_[s].setDir(static_cast<PortId>(p), dirs[s][p]);
    }

    // Memoized down-reach per switch, as host intervals: a switch
    // collects its children's lists and host ports, and merges them
    // once all are in. Colors: 0 unvisited, 1 in progress (cycle
    // detection), 2 done.
    std::vector<int> color(num_switches, 0);
    std::vector<std::vector<HostRange>> down_reach(num_switches);

    // Iterative DFS to avoid deep recursion on large networks.
    struct Frame
    {
        SwitchId sw;
        PortId next_port;
    };

    auto compute = [&](SwitchId root) {
        if (color[root] == 2)
            return;
        std::vector<Frame> stack;
        stack.push_back(Frame{root, 0});
        color[root] = 1;
        while (!stack.empty()) {
            Frame &frame = stack.back();
            const SwitchId sw = frame.sw;
            const int radix = graph.radix(sw);
            bool descended = false;
            while (frame.next_port < radix) {
                const PortId p = frame.next_port++;
                if (dirs[sw][p] != PortDir::Down)
                    continue;
                const PortPeer &peer = graph.peer(sw, p);
                if (peer.isHost()) {
                    down_reach[sw].push_back(
                        HostRange{peer.host, peer.host + 1});
                } else if (peer.isSwitch()) {
                    if (color[peer.sw] == 1) {
                        panic("down-link cycle through switches %d "
                              "and %d: up*/down* orientation invalid",
                              sw, peer.sw);
                    }
                    if (color[peer.sw] == 0) {
                        color[peer.sw] = 1;
                        stack.push_back(Frame{peer.sw, 0});
                        descended = true;
                        break;
                    }
                    extend(down_reach[sw], down_reach[peer.sw]);
                }
            }
            if (descended)
                continue;
            if (frame.next_port >= radix) {
                color[sw] = 2;
                normalize(down_reach[sw]);
                stack.pop_back();
                if (!stack.empty())
                    extend(down_reach[stack.back().sw], down_reach[sw]);
            }
        }
    };

    for (std::size_t s = 0; s < num_switches; ++s)
        compute(static_cast<SwitchId>(s));

    // Tolerant tables additionally carry up-reach lists: the hosts a
    // worm can still reach after ascending a given up port, i.e. the
    // union of down-reach over the up-closure of the port's peer.
    // Memoized over the (acyclic) up-link orientation, mirroring the
    // down-reach traversal above.
    std::vector<std::vector<HostRange>> up_reach;
    if (tolerant) {
        up_reach = down_reach;
        std::vector<int> ucolor(num_switches, 0);
        auto computeUp = [&](SwitchId root) {
            if (ucolor[root] == 2)
                return;
            std::vector<Frame> stack;
            stack.push_back(Frame{root, 0});
            ucolor[root] = 1;
            while (!stack.empty()) {
                Frame &frame = stack.back();
                const SwitchId sw = frame.sw;
                const int radix = graph.radix(sw);
                bool ascended = false;
                while (frame.next_port < radix) {
                    const PortId p = frame.next_port++;
                    if (dirs[sw][p] != PortDir::Up)
                        continue;
                    const PortPeer &peer = graph.peer(sw, p);
                    MDW_ASSERT(peer.isSwitch(),
                               "up port %d of switch %d leads to a host",
                               p, sw);
                    if (ucolor[peer.sw] == 1) {
                        panic("up-link cycle through switches %d "
                              "and %d: up*-down* orientation invalid",
                              sw, peer.sw);
                    }
                    if (ucolor[peer.sw] == 0) {
                        ucolor[peer.sw] = 1;
                        stack.push_back(Frame{peer.sw, 0});
                        ascended = true;
                        break;
                    }
                    extend(up_reach[sw], up_reach[peer.sw]);
                }
                if (ascended)
                    continue;
                if (frame.next_port >= radix) {
                    ucolor[sw] = 2;
                    normalize(up_reach[sw]);
                    stack.pop_back();
                    if (!stack.empty())
                        extend(up_reach[stack.back().sw], up_reach[sw]);
                }
            }
        };
        for (std::size_t s = 0; s < num_switches; ++s)
            computeUp(static_cast<SwitchId>(s));
    }

    // Hand every port its list.
    for (std::size_t s = 0; s < num_switches; ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        for (PortId p = 0; p < graph.radix(sw); ++p) {
            const PortDir dir = dirs[s][static_cast<std::size_t>(p)];
            const PortPeer &peer = graph.peer(sw, p);
            if (dir == PortDir::Up && tolerant) {
                switches_[s].setUpReach(p, up_reach[peer.sw]);
            } else if (dir == PortDir::Down && peer.isHost()) {
                const HostRange one{peer.host, peer.host + 1};
                switches_[s].setDownReach(p, HostRanges(&one, 1));
            } else if (dir == PortDir::Down && peer.isSwitch()) {
                switches_[s].setDownReach(p, down_reach[peer.sw]);
            }
        }
        switches_[s].freeze();
    }
}

const SwitchRouting &
NetworkRouting::at(SwitchId sw) const
{
    MDW_ASSERT(sw >= 0 && static_cast<std::size_t>(sw) < switches_.size(),
               "switch id %d out of range", sw);
    return switches_[static_cast<std::size_t>(sw)];
}

} // namespace mdw
