#include "core/network.hh"

#include <algorithm>
#include <cstdlib>

#include "core/resilience.hh"

namespace mdw {

static_assert(sizeof(Channel<Flit>) == 64 && sizeof(CreditChannel) == 64,
              "each channel direction is one cache line");

namespace {

/** Give channels[i] for every i in @p slots a side record from one
 *  new array, kept in @p store. */
template <typename Ch>
void
attachSides(std::vector<Ch> &channels,
            const std::vector<std::size_t> &slots,
            std::vector<std::unique_ptr<typename Ch::Side[]>> &store)
{
    if (slots.empty())
        return;
    store.push_back(std::make_unique<typename Ch::Side[]>(slots.size()));
    for (std::size_t k = 0; k < slots.size(); ++k)
        channels[slots[k]].setSide(&store.back()[k]);
}

} // namespace

const char *
toString(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::FatTree:
        return "fat-tree";
      case TopologyKind::Irregular:
        return "irregular";
      case TopologyKind::UniMin:
        return "uni-min";
    }
    return "?";
}

const char *
toString(SwitchArch arch)
{
    switch (arch) {
      case SwitchArch::CentralBuffer:
        return "central-buffer";
      case SwitchArch::InputBuffer:
        return "input-buffer";
    }
    return "?";
}

Network::Network(const NetworkConfig &config)
    : cfg_(config), telemetry_(config.telemetry)
{
    build();
    wire();
    registerTelemetry();
    installFaults();

    bool fast = cfg_.fastPath;
    // Environment escape hatch, e.g. for re-running a whole test
    // suite against the cycle-accurate oracle: MDW_FAST_PATH=0|1.
    if (const char *env = std::getenv("MDW_FAST_PATH")) {
        if (env[0] == '0' && env[1] == '\0')
            fast = false;
        else if (env[0] == '1' && env[1] == '\0')
            fast = true;
    }
    sim_.setFastPath(fast);
    setupSharding();
}

Network::~Network() = default;

void
Network::installFaults()
{
    FaultPlan plan = cfg_.faultPlan;
    // Switch-switch links, lower endpoint first, in wiring order.
    const auto links = [this] {
        std::vector<std::pair<SwitchId, int>> out;
        forEachLink([&out](const LinkSite &link) {
            if (link.b != kInvalidSwitch)
                out.emplace_back(link.a, link.pa);
        });
        return out;
    };
    if (plan.events.empty() && !cfg_.faultSpec.empty()) {
        std::vector<SwitchId> candidates(topo_->numSwitches());
        for (std::size_t s = 0; s < candidates.size(); ++s)
            candidates[s] = static_cast<SwitchId>(s);
        plan.events =
            FaultPlan::random(cfg_.faultSpec, links(), candidates).events;
    }
    // Transients: an explicit plan's schedule wins; otherwise draw
    // from the spec (fault.ber / fault.flaps).
    if (!plan.hasTransients() && cfg_.faultSpec.transient())
        plan.drawTransients(cfg_.faultSpec, links());
    plan.finalize();

    // Retransmission needs delivery-dedup even when no fault ever
    // fires (e.g. a spuriously aggressive timeout).
    if (!plan.empty() || cfg_.nic.retransmitTimeout > 0)
        tracker_.enableResilience();
    if (plan.empty())
        return;
    const bool transients = plan.hasTransients();
    const double ber = plan.ber;
    const double residual = plan.residual;
    const std::uint64_t tseed = plan.transientSeed;
    const std::vector<FlapWindow> flaps = plan.flaps;
    resilience_ = std::make_unique<ResilienceManager>(*this,
                                                      std::move(plan));
    resilience_->install();
    if (transients) {
        // Corruption is only detectable end-to-end if packets carry
        // integrity state; enable before any packet is created.
        factory_.enableIntegrityTracking();
        installLinkLayers(ber, residual, tseed, flaps);
    }
}

void
Network::installLinkLayers(double ber, double residual,
                           std::uint64_t seed,
                           const std::vector<FlapWindow> &flaps)
{
    MDW_ASSERT(resilience_ != nullptr,
               "link layers need the resilience manager");
    // A dedicated stream family: stream 2i guards link i's forward
    // direction, 2i+1 its reverse, independent of traffic and of the
    // fail-stop draws.
    const std::uint64_t family = Rng::streamSeed(seed, 0x44);
    std::uint64_t stream = 0;
    std::vector<std::size_t> hooked;
    forEachLink([&hooked](const LinkSite &link) {
        if (link.b != kInvalidSwitch) {
            hooked.push_back(link.flit);
            hooked.push_back(link.flit + 1);
        }
    });
    attachSides(flitChannels_, hooked, flitSides_);
    forEachLink([&](const LinkSite &link) {
        if (link.b == kInvalidSwitch)
            return;
        LinkLayerParams params = cfg_.link;
        params.ber = ber;
        params.residual = residual;

        std::vector<FlapWindow> linkFlaps;
        for (const FlapWindow &w : flaps) {
            if ((w.sw == link.a && w.port == link.pa) ||
                (w.sw == link.b && w.port == link.pb))
                linkFlaps.push_back(w);
        }

        auto attach = [&](Channel<Flit> &ch, const char *suffix,
                          SwitchId sw, PortId port) {
            auto layer = std::make_unique<LinkLayer>(
                channelName(link, suffix), sw, port, cfg_.linkDelay,
                params, Rng::streamSeed(family, stream++));
            layer->setFlaps(linkFlaps);
            layer->setPoisonRegistry(resilience_->poisonRegistry());
            layer->setEscalation([this, sw, port](Cycle when) {
                resilience_->escalateLink(sw, port, when);
            });
            MetricsRegistry &reg = telemetry_.registry();
            layer->attachTelemetry(
                telemetry_,
                reg.scope("p", static_cast<std::uint32_t>(port),
                          reg.scope("link.",
                                    static_cast<std::uint32_t>(sw))));
            ch.setHook(layer.get());
            linkLayers_.push_back(std::move(layer));
        };
        attach(flitChannels_[link.flit], ".ab", link.a, link.pa);
        attach(flitChannels_[link.flit + 1], ".ba", link.b, link.pb);
    });

    // Fabric-wide rollups (per-direction counters registered above).
    MetricsRegistry &reg = telemetry_.registry();
    constexpr MetricsRegistry::ScopeId top = MetricsRegistry::kRoot;
    reg.registerIntGauge(top, "network.link.corrupted", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().corrupted.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.naks", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().naks.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.replays", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().replays.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.timeouts", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().timeouts.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.residual_errors", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().residualErrors.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.dropped", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().dropped.value();
        return total;
    });
    reg.registerIntGauge(top, "network.link.replay_stall_cycles", [this] {
        std::uint64_t total = 0;
        for (const auto &l : linkLayers_)
            total += l->stats().replayStallCycles.value();
        return total;
    });
    reg.registerIntGauge(top, "fault.link_escalations", [this] {
        return resilience_ ? resilience_->linkEscalations() : 0;
    });
}

LinkLayer *
Network::linkLayer(SwitchId sw, PortId port)
{
    if (!topo_->graph().peer(sw, port).isSwitch())
        return nullptr;
    // Link layers are the only hooks a switch's out channel carries.
    return static_cast<LinkLayer *>(
        switches_[static_cast<std::size_t>(sw)]->outChannel(port)->hook());
}

void
Network::markLinkDead(SwitchId sw, PortId port)
{
    const PortPeer &peer = topo_->graph().peer(sw, port);
    for (LinkLayer *layer :
         {linkLayer(sw, port), linkLayer(peer.sw, peer.port)}) {
        if (layer != nullptr)
            layer->markDead();
    }
}

void
Network::build()
{
    // --- Topology ---------------------------------------------------
    if (cfg_.topo == TopologyKind::FatTree) {
        topo_ = std::make_unique<FatTree>(cfg_.fatTreeK, cfg_.fatTreeN);
    } else if (cfg_.topo == TopologyKind::UniMin) {
        topo_ = std::make_unique<UniMin>(cfg_.fatTreeK, cfg_.fatTreeN);
    } else {
        topo_ = std::make_unique<IrregularTopology>(
            cfg_.irregular, Rng(cfg_.seed).fork(0xdeadULL));
    }
    const std::size_t hosts = topo_->numHosts();

    // --- Header / packet sizing -------------------------------------
    if (cfg_.nic.encoding == McastEncoding::Multiport) {
        if (cfg_.topo == TopologyKind::Irregular)
            fatal("multiport encoding requires a staged (fat-tree or "
                  "uni-MIN) topology");
        cfg_.nic.multiportK = cfg_.fatTreeK;
        cfg_.nic.multiportLevels = cfg_.fatTreeN;
        mcastHeaderFlits_ =
            multiportHeaderFlits(cfg_.fatTreeN, cfg_.nic.enc);
    } else {
        mcastHeaderFlits_ = bitStringHeaderFlits(hosts, cfg_.nic.enc);
    }
    int max_header =
        std::max(cfg_.nic.enc.unicastHeaderFlits, mcastHeaderFlits_);
    if (cfg_.nic.swListOverhead) {
        int bits_per_id = 1;
        while ((1ULL << bits_per_id) < hosts)
            ++bits_per_id;
        const int list_bits =
            static_cast<int>(hosts - 2) * bits_per_id;
        const int sw_header =
            cfg_.nic.enc.unicastHeaderFlits +
            (list_bits + cfg_.nic.enc.flitBits - 1) /
                cfg_.nic.enc.flitBits;
        max_header = std::max(max_header, sw_header);
    }
    maxPacketFlits_ = cfg_.maxPayloadFlits + max_header;
    cfg_.nic.maxPayloadFlits = cfg_.maxPayloadFlits;

    // The central-buffer input FIFO must hold a complete routing
    // header for decode; the input-buffer architecture must hold a
    // complete packet for deadlock freedom. Raise silently configured
    // values that are too small rather than failing.
    const int fifo_need = max_header + 2;
    if (cfg_.cb.inputFifoFlits < fifo_need) {
        inform("raising cb.inputFifoFlits %d -> %d to fit headers",
               cfg_.cb.inputFifoFlits, fifo_need);
        cfg_.cb.inputFifoFlits = fifo_need;
    }
    if (cfg_.ib.bufferFlits < maxPacketFlits_) {
        inform("raising ib.bufferFlits %d -> %d to fit whole packets",
               cfg_.ib.bufferFlits, maxPacketFlits_);
        cfg_.ib.bufferFlits = maxPacketFlits_;
    }
    if (cfg_.arch == SwitchArch::CentralBuffer &&
        cfg_.sw.replication == ReplicationMode::Synchronous) {
        fatal("synchronous replication requires the input-buffer "
              "architecture: the central queue's store-once readers "
              "are inherently asynchronous");
    }
    if (cfg_.arch == SwitchArch::CentralBuffer) {
        // The shared pool (capacity minus one escape chunk per port)
        // must hold the largest worm plus, on networks with an up
        // phase, the up-phase reservation headroom, or
        // multidestination worms could never be accepted. The
        // unidirectional MIN is forward-only (acyclic by stage), so
        // it needs no headroom.
        const bool multi_stage =
            (cfg_.topo == TopologyKind::FatTree && cfg_.fatTreeN > 1) ||
            cfg_.topo == TopologyKind::Irregular;
        cfg_.cb.maxPacketFlits = multi_stage ? maxPacketFlits_ : 0;
        const int radix = cfg_.topo == TopologyKind::Irregular
                              ? cfg_.irregular.radix
                              : 2 * cfg_.fatTreeK;
        const int chunks_needed =
            (maxPacketFlits_ + cfg_.cb.chunkFlits - 1) /
            cfg_.cb.chunkFlits;
        const int required =
            radix + (multi_stage ? 2 * chunks_needed : chunks_needed);
        if (required > cfg_.cb.cqChunks) {
            fatal("central queue (%d chunks) too small: largest "
                  "packet needs %d chunks%s plus %d escape chunks",
                  cfg_.cb.cqChunks, chunks_needed,
                  multi_stage ? " (x2 for the up-phase headroom)" : "",
                  radix);
        }
    }

    // --- Virtual lanes ----------------------------------------------
    // Environment escape hatch for running a whole test suite under a
    // different lane count (e.g. MDW_LANES=4 in CI); mirrors the
    // MDW_SHARDS / MDW_FAST_PATH overrides.
    if (const char *env = std::getenv("MDW_LANES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            cfg_.sw.lanes = static_cast<int>(v);
    }
    // NICs must agree with the switches on the lane count: credits
    // and reassembly state are per lane on both sides of a host link.
    cfg_.nic.lanes = cfg_.sw.lanes;

    // --- Components --------------------------------------------------
    cfg_.sw.seed = cfg_.seed;
    for (std::size_t s = 0; s < topo_->numSwitches(); ++s) {
        const SwitchId id = static_cast<SwitchId>(s);
        const SwitchRouting *routing = &topo_->routing().at(id);
        const std::string name = "sw" + std::to_string(s);
        if (cfg_.arch == SwitchArch::CentralBuffer) {
            switches_.push_back(std::make_unique<CentralBufferSwitch>(
                name, id, routing, cfg_.sw, cfg_.cb));
        } else {
            switches_.push_back(std::make_unique<InputBufferSwitch>(
                name, id, routing, cfg_.sw, cfg_.ib));
        }
        sim_.add(switches_.back().get());
    }
    for (std::size_t h = 0; h < hosts; ++h) {
        nics_.push_back(std::make_unique<Nic>(
            "nic" + std::to_string(h), static_cast<NodeId>(h), hosts,
            cfg_.nic, &factory_, &tracker_));
        sim_.add(nics_.back().get());
    }
}

template <typename Visit>
std::pair<std::size_t, std::size_t>
Network::forEachLink(Visit &&visit) const
{
    const PortGraph &graph = topo_->graph();
    LinkSite site{};
    for (std::size_t s = 0; s < graph.numSwitches(); ++s) {
        site.a = static_cast<SwitchId>(s);
        for (site.pa = 0; site.pa < graph.radix(site.a); ++site.pa) {
            const PortPeer &peer = graph.peer(site.a, site.pa);
            if (peer.isSwitch()) {
                // Each switch-switch link once, from the lower
                // (switch, port) endpoint.
                if (std::make_pair(site.a, site.pa) >
                    std::make_pair(peer.sw, peer.port))
                    continue;
                site.b = peer.sw;
                site.pb = peer.port;
                site.host = kInvalidNode;
                site.inject = site.eject = true;
            } else if (peer.isHost()) {
                site.b = kInvalidSwitch;
                site.pb = 0;
                site.host = peer.host;
                site.inject = peer.hostRole != PortPeer::HostRole::Eject;
                site.eject = peer.hostRole != PortPeer::HostRole::Inject;
            } else {
                continue;
            }
            visit(site);
            const std::size_t n = std::size_t{site.inject} + site.eject;
            site.flit += n;
            site.credit += n;
        }
    }
    return {site.flit, site.credit};
}

template <typename Visit>
void
Network::forEachChannel(Visit &&visit) const
{
    forEachLink([&visit](const LinkSite &link) {
        const auto a = static_cast<int>(link.a);
        if (link.b != kInvalidSwitch) {
            // Credits flow against the data direction: cab is sent by
            // b as it drains a's flits.
            const auto b = static_cast<int>(link.b);
            visit(link, false, link.flit, a, b, ".ab");
            visit(link, false, link.flit + 1, b, a, ".ba");
            visit(link, true, link.credit, b, a, ".cab");
            visit(link, true, link.credit + 1, a, b, ".cba");
            return;
        }
        std::size_t f = link.flit;
        std::size_t c = link.credit;
        if (link.inject) {
            visit(link, false, f++, -1, a, ".inj");
            visit(link, true, c++, a, -1, ".cinj");
        }
        if (link.eject) {
            visit(link, false, f, a, -1, ".ej");
            visit(link, true, c, -1, a, ".cej");
        }
    });
}

std::string
Network::channelName(const LinkSite &link, const char *suffix)
{
    std::string name;
    if (link.b != kInvalidSwitch) {
        name = "sw" + std::to_string(link.a) + ".p" +
               std::to_string(link.pa) + "-sw" + std::to_string(link.b) +
               ".p" + std::to_string(link.pb);
    } else {
        name = "nic" + std::to_string(link.host) + "-sw" +
               std::to_string(link.a) + ".p" + std::to_string(link.pa);
    }
    return name + suffix;
}

void
Network::wire()
{
    // Both arrays get their final size up front: the switches and
    // NICs keep pointers into them.
    const auto [flits, credits] = forEachLink([](const LinkSite &) {});
    flitChannels_.reserve(flits);
    creditChannels_.reserve(credits);
    for (std::size_t i = 0; i < flits; ++i)
        flitChannels_.emplace_back(cfg_.linkDelay);
    for (std::size_t i = 0; i < credits; ++i)
        creditChannels_.emplace_back(cfg_.linkDelay);

    forEachLink([this](const LinkSite &link) {
        Channel<Flit> *flit = &flitChannels_[link.flit];
        CreditChannel *credit = &creditChannels_[link.credit];
        SwitchBase &a = *switches_[static_cast<std::size_t>(link.a)];
        if (link.b != kInvalidSwitch) {
            SwitchBase &b = *switches_[static_cast<std::size_t>(link.b)];
            Channel<Flit> *ab = flit;
            Channel<Flit> *ba = flit + 1;
            CreditChannel *cr_ab = credit;
            CreditChannel *cr_ba = credit + 1;
            // a -> b data, with b returning credits on cr_ab.
            a.connectOut(link.pa, ab, cr_ab, b.receivePolicy(link.pb));
            b.connectIn(link.pb, ab, cr_ab);
            // b -> a data, with a returning credits on cr_ba.
            b.connectOut(link.pb, ba, cr_ba, a.receivePolicy(link.pa));
            a.connectIn(link.pa, ba, cr_ba);
            return;
        }
        Nic &nic = *nics_[static_cast<std::size_t>(link.host)];
        if (link.inject) {
            nic.connectTx(flit, credit, a.receivePolicy(link.pa));
            a.connectIn(link.pa, flit, credit);
            ++flit;
            ++credit;
        }
        if (link.eject) {
            a.connectOut(link.pa, flit, credit, nic.receivePolicy());
            nic.connectRx(flit, credit);
        }
    });
}

void
Network::setupSharding()
{
    std::size_t shards = cfg_.shards;
    if (const char *env = std::getenv("MDW_SHARDS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0')
            shards = static_cast<std::size_t>(v);
    }
    unsigned threads = cfg_.shardThreads;
    if (const char *env = std::getenv("MDW_SHARD_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0')
            threads = static_cast<unsigned>(v);
    }
    cfg_.shards = shards;
    cfg_.shardThreads = threads;
    if (shards <= 1)
        return;
    // Subsystems whose switch-step or channel behavior reaches shared
    // state (ARQ link hooks resolve arrivals with shared RNGs; the
    // resilience layer mutates routing and poisons worms) force the
    // flat fast path. Retransmission alone does not: it and the
    // tracker's dedup run in the serial NIC phase. Results are
    // identical either way.
    if (!sim_.fastPath()) {
        serialReason_ = "fast path disabled";
        return;
    }
    if (resilience_ != nullptr) {
        serialReason_ = "fault/resilience subsystem configured";
        return;
    }
    shardPlan_ = makeShardPlan(topo_->graph(), shards);
    // Switches (registered first, in id order) go to their planned
    // shard; everything else — NICs now, engines and test components
    // registered later — lives in the serial bucket (= index shards).
    std::vector<std::uint32_t> shardOf(
        sim_.componentCount(), static_cast<std::uint32_t>(shards));
    for (std::size_t s = 0; s < switches_.size(); ++s)
        shardOf[s] = shardPlan_.switchShard[s];
    // Any channel whose *sender* is a parallel switch and whose
    // receiver lives in a different bucket must defer its pushes to
    // the barrier: cross-shard switch links (both data and the
    // reverse credits) and every switch->NIC direction.
    auto shardOfEnd = [&](int sw) {
        return sw < 0 ? static_cast<std::uint32_t>(shards)
                      : shardPlan_.switchShard[static_cast<std::size_t>(
                            sw)];
    };
    // Their side records (mailboxes) form one array per sending
    // shard, so a shard's thread writes only its own lines.
    std::vector<std::vector<std::size_t>> flitsOf(shards);
    std::vector<std::vector<std::size_t>> creditsOf(shards);
    forEachChannel([&](const LinkSite &, bool credit, std::size_t index,
                       int src, int snk, const char *) {
        if (src < 0 || shardOfEnd(src) == shardOfEnd(snk))
            return;
        (credit ? creditsOf : flitsOf)[shardOfEnd(src)].push_back(index);
    });
    for (std::uint32_t s = 0; s < shards; ++s) {
        attachSides(flitChannels_, flitsOf[s], flitSides_);
        attachSides(creditChannels_, creditsOf[s], creditSides_);
        for (const std::size_t index : flitsOf[s])
            flitChannels_[index].setBoundary(&sim_, s);
        for (const std::size_t index : creditsOf[s])
            creditChannels_[index].setBoundary(&sim_, s);
    }
    if (telemetry_.tracer() != nullptr)
        telemetry_.tracer()->setShards(shards);
    sim_.setSharding(std::move(shardOf), shards, threads);
    effectiveShards_ = shards;
}

void
Network::requireSerial(const std::string &why)
{
    if (cfg_.shards > 1)
        serialReason_ = why;
    if (effectiveShards_ == 0)
        return;
    sim_.clearSharding();
    for (Channel<Flit> &ch : flitChannels_)
        ch.setBoundary(nullptr, 0);
    for (CreditChannel &ch : creditChannels_)
        ch.setBoundary(nullptr, 0);
    if (telemetry_.tracer() != nullptr)
        telemetry_.tracer()->setShards(0);
    effectiveShards_ = 0;
}

void
Network::registerTelemetry()
{
    // Components register their own stats under hierarchical names
    // ("switch.3.port.2.tx_flits", "nic.7.retransmits") and pick up
    // the shared worm tracer. Called after wire() so per-port
    // registration covers exactly the connected ports.
    for (auto &sw : switches_)
        sw->attachTelemetry(telemetry_);
    for (auto &nic : nics_)
        nic->attachTelemetry(telemetry_);

    MetricsRegistry &reg = telemetry_.registry();
    constexpr MetricsRegistry::ScopeId top = MetricsRegistry::kRoot;
    // Time averages (switch lane and central-queue occupancy) are read
    // at the snapshot's cycle.
    reg.setClock([this] { return sim_.now(); });

    // End-to-end tracker: the paper's latency metrics plus delivery
    // accounting.
    reg.registerSampler(top, "tracker.latency.unicast",
                        &tracker_.unicastLatency());
    reg.registerSampler(top, "tracker.latency.mcast_last",
                        &tracker_.mcastLastLatency());
    reg.registerSampler(top, "tracker.latency.mcast_avg",
                        &tracker_.mcastAvgLatency());
    reg.registerIntGauge(top, "tracker.deliveries", [this] {
        return tracker_.totalDeliveries();
    });
    reg.registerIntGauge(top, "tracker.completed", [this] {
        return tracker_.totalCompleted();
    });
    reg.registerIntGauge(top, "tracker.window_delivered_flits", [this] {
        return tracker_.windowDeliveredFlits();
    });
    reg.registerIntGauge(top, "tracker.duplicate_deliveries", [this] {
        return tracker_.duplicateDeliveries();
    });
    reg.registerIntGauge(top, "tracker.partial_completed", [this] {
        return tracker_.partialCompleted();
    });
    reg.registerIntGauge(top, "tracker.unreachable_dests", [this] {
        return tracker_.unreachableDests();
    });

    // Fabric-wide rollups of the per-switch counters.
    reg.registerIntGauge(top, "network.flits_in",
                         [this] { return totals().flitsIn; });
    reg.registerIntGauge(top, "network.flits_out",
                         [this] { return totals().flitsOut; });
    reg.registerIntGauge(top, "network.packets_routed",
                         [this] { return totals().packetsRouted; });
    reg.registerIntGauge(top, "network.replications",
                         [this] { return totals().replications; });
    reg.registerIntGauge(top, "network.reservation_stall_cycles", [this] {
        return totals().reservationStallCycles;
    });
    reg.registerGauge(top, "network.cq.avg_chunks",
                      [this] { return avgCqChunks(); });

    // Virtual-lane rollups; registered at every lane count so report
    // validation can assert their presence (they read 0 at lanes=1).
    reg.registerIntGauge(top, "switch.lane.stalls", [this] {
        std::uint64_t total = 0;
        for (const auto &sw : switches_)
            total += sw->stats().laneStallCycles.value();
        return total;
    });
    reg.registerGauge(top, "switch.lane.occupancy", [this] {
        double total = 0.0;
        for (const auto &sw : switches_)
            total += sw->laneOccupancy().average(sim_.now());
        return switches_.empty()
                   ? 0.0
                   : total / static_cast<double>(switches_.size());
    });

    // Host-side rollups (fault recovery activity).
    reg.registerIntGauge(top, "host.retransmits", [this] {
        std::uint64_t total = 0;
        for (const auto &nic : nics_)
            total += nic->stats().retransmits.value();
        return total;
    });
    reg.registerIntGauge(top, "host.poisoned_drops", [this] {
        std::uint64_t total = 0;
        for (const auto &nic : nics_)
            total += nic->stats().poisonedDrops.value();
        return total;
    });
    reg.registerIntGauge(top, "host.csum_fails", [this] {
        std::uint64_t total = 0;
        for (const auto &nic : nics_)
            total += nic->stats().csumFails.value();
        return total;
    });
    reg.registerIntGauge(top, "fault.applied", [this] {
        return resilience_
                   ? static_cast<std::uint64_t>(
                         resilience_->faultsApplied())
                   : 0;
    });

    // Simulation-kernel activity.
    reg.registerIntGauge(top, "sim.events.scheduled", [this] {
        return sim_.events().totalScheduled();
    });
    reg.registerIntGauge(top, "sim.events.fired", [this] {
        return sim_.events().totalFired();
    });
    reg.registerIntGauge(top, "sim.channels.flit_sends", [this] {
        std::uint64_t total = 0;
        for (const Channel<Flit> &ch : flitChannels_)
            total += ch.totalSends();
        return total;
    });
    reg.registerIntGauge(top, "sim.channels.credit_sends", [this] {
        std::uint64_t total = 0;
        for (const CreditChannel &ch : creditChannels_)
            total += ch.totalSends();
        return total;
    });
}

Nic &
Network::nic(NodeId id)
{
    MDW_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nics_.size(),
               "node id %d out of range", id);
    return *nics_[static_cast<std::size_t>(id)];
}

SwitchBase &
Network::switchAt(SwitchId id)
{
    MDW_ASSERT(id >= 0 &&
                   static_cast<std::size_t>(id) < switches_.size(),
               "switch id %d out of range", id);
    return *switches_[static_cast<std::size_t>(id)];
}

void
Network::attachWorkload(Workload *workload)
{
    detachWorkload();
    workload_ = workload;
    for (auto &nic : nics_)
        nic->setWorkload(workload);
    workload->setWakeHook([this](NodeId node, Cycle when) {
        nic(node).requestWake(when);
    });
    tracker_.setCompletionHook(
        [workload](MsgId msg, NodeId src, Cycle now) {
            workload->onCompleted(msg, src, now);
        });
}

void
Network::detachWorkload()
{
    if (workload_ == nullptr)
        return;
    for (auto &nic : nics_)
        nic->setWorkload(nullptr);
    tracker_.setCompletionHook(nullptr);
    workload_->setWakeHook(nullptr);
    workload_ = nullptr;
}

bool
Network::idle() const
{
    if (tracker_.inFlight() > 0)
        return false;
    for (const auto &nic : nics_) {
        if (nic->txBacklog() > 0)
            return false;
    }
    return true;
}

std::size_t
Network::totalTxBacklog() const
{
    std::size_t total = 0;
    for (const auto &nic : nics_)
        total += nic->txBacklog();
    return total;
}

void
Network::armWatchdog(Cycle quietLimit)
{
    sim_.setWatchdog(quietLimit, [this] { return !idle(); },
                     [this] { onWatchdogTrip(); });
}

void
Network::onWatchdogTrip()
{
    auto diag = std::make_unique<WatchdogDiagnosis>();
    diag->cycle = sim_.now();
    diag->messagesInFlight = tracker_.inFlight();
    diag->nicBacklogPackets = totalTxBacklog();
    char *buf = nullptr;
    std::size_t len = 0;
    if (FILE *mem = open_memstream(&buf, &len)) {
        dumpState(mem);
        std::fclose(mem);
        diag->stateDump.assign(buf, len);
        std::free(buf);
    }
    if (telemetry_.tracer()) {
        // The tracer's ring holds the most recent lifecycle events —
        // exactly the history that explains what wedged.
        diag->traceJson = telemetry_.tracer()->snapshot().chromeJson();
    }
    warn("watchdog: no progress; %zu messages in flight, %zu packets "
         "queued at NICs (diagnosis recorded)",
         diag->messagesInFlight, diag->nicBacklogPackets);
    diagnosis_ = std::move(diag);
}

bool
Network::checkQuiescent(std::string *why) const
{
    bool ok = true;
    auto complain = [&](const std::string &reason) {
        ok = false;
        if (why) {
            if (!why->empty())
                *why += "; ";
            *why += reason;
        }
    };
    const auto busy = [this](bool credit, std::size_t i) {
        return credit ? creditChannels_[i].inFlight() != 0
                      : flitChannels_[i].inFlight() != 0;
    };
    const auto loaded = [](const auto &ch) { return ch.inFlight() != 0; };
    if (std::any_of(flitChannels_.begin(), flitChannels_.end(), loaded) ||
        std::any_of(creditChannels_.begin(), creditChannels_.end(),
                    loaded)) {
        ok = false;
        if (why) {
            // Names are rendered from the wiring, and only for the
            // channels reported: every flit channel, then every
            // credit channel, each in slot order.
            std::vector<std::string> flits;
            std::vector<std::string> credits;
            forEachChannel([&](const LinkSite &link, bool credit,
                               std::size_t index, int, int,
                               const char *suffix) {
                if (busy(credit, index))
                    (credit ? credits : flits)
                        .push_back(channelName(link, suffix));
            });
            for (const std::string &name : flits)
                complain(name + ": flits in flight");
            for (const std::string &name : credits)
                complain(name + ": credits in flight");
        }
    }
    for (const auto &sw : switches_) {
        if (!sw->quiescent(why))
            ok = false;
    }
    for (const auto &nic : nics_) {
        if (!nic->quiescent(why))
            ok = false;
    }
    return ok;
}

namespace {

/** Add one switch's counters to @p totals. */
void
addSwitchTotals(NetworkTotals &totals, const SwitchStats &stats)
{
    totals.flitsIn += stats.flitsIn.value();
    totals.flitsOut += stats.flitsOut.value();
    totals.packetsRouted += stats.packetsRouted.value();
    totals.replications += stats.replications.value();
    totals.reservationStallCycles += stats.reservationStallCycles.value();
}

} // namespace

NetworkTotals
Network::totalsForShard(std::uint32_t shard) const
{
    NetworkTotals totals;
    if (effectiveShards_ == 0)
        return totals;
    for (std::size_t s = 0; s < switches_.size(); ++s) {
        if (shardPlan_.switchShard[s] == shard)
            addSwitchTotals(totals, switches_[s]->stats());
    }
    return totals;
}

NetworkTotals
Network::totals() const
{
    NetworkTotals totals;
    for (const auto &sw : switches_)
        addSwitchTotals(totals, sw->stats());
    return totals;
}

void
Network::dumpState(FILE *out) const
{
    std::fprintf(out, "network state at cycle %llu: %zu messages in "
                 "flight, %zu packets queued at NICs\n",
                 static_cast<unsigned long long>(sim_.now()),
                 tracker_.inFlight(), totalTxBacklog());
    for (const auto &sw : switches_) {
        if (const auto *cb =
                dynamic_cast<const CentralBufferSwitch *>(sw.get())) {
            cb->dumpState(out);
        } else if (const auto *ib =
                       dynamic_cast<const InputBufferSwitch *>(
                           sw.get())) {
            ib->dumpState(out);
        }
    }
    if (!linkLayers_.empty()) {
        // Retry livelock is diagnosable from this section alone:
        // per-direction replay-buffer occupancy, sequence progress
        // and the last NAK each sender saw.
        std::fprintf(out, "link layers (%zu directions):\n",
                     linkLayers_.size());
        for (const auto &l : linkLayers_) {
            std::fprintf(
                out,
                "  %s: unacked %zu/%d, txSeq %u, rxSeq %u, "
                "replays %llu, naks %llu, timeouts %llu, last NAK ",
                l->name().c_str(), l->replayOccupancy(),
                cfg_.link.replayBufferFlits, l->txSeq(), l->rxSeq(),
                static_cast<unsigned long long>(
                    l->stats().replays.value()),
                static_cast<unsigned long long>(
                    l->stats().naks.value()),
                static_cast<unsigned long long>(
                    l->stats().timeouts.value()));
            if (l->lastNak() == kNoCycle)
                std::fprintf(out, "never");
            else
                std::fprintf(out, "@%llu",
                             static_cast<unsigned long long>(
                                 l->lastNak()));
            std::fprintf(out, "%s\n",
                         l->dead() ? " [escalated/dead]" : "");
        }
    }
}

std::vector<std::uint64_t>
Network::portTxSnapshot() const
{
    std::vector<std::uint64_t> counts;
    for (const auto &sw : switches_) {
        for (PortId p = 0; p < sw->routing().radix(); ++p) {
            if (sw->outConnected(p))
                counts.push_back(sw->portTxFlits(p));
        }
    }
    return counts;
}

double
Network::avgCqChunks() const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto &sw : switches_) {
        if (const auto *cb =
                dynamic_cast<const CentralBufferSwitch *>(sw.get())) {
            sum += cb->avgCqChunks(sim_.now());
            ++count;
        }
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

} // namespace mdw
