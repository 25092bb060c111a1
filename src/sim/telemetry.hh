/**
 * @file
 * Observability layer: a hierarchical metrics registry plus an
 * opt-in worm-lifecycle tracer.
 *
 * MetricsRegistry holds *references* to the statistics objects the
 * components already own (Counters, Samplers, TimeAverages) under
 * hierarchical dotted names ("switch.3.port.2.tx_flits",
 * "nic.7.retransmits"); components register once at construction and
 * keep updating their own objects on the hot path, so registration
 * adds no per-cycle cost. snapshot() renders and sorts the names and
 * produces a MetricsSnapshot — a self-contained value type that can
 * be carried in results, looked up by name, merged across runs in
 * submission order (Sampler::merge semantics), and compared bitwise.
 *
 * WormTracer records flit-level lifecycle events (inject,
 * header-decode, replicate, reserve-stall, tail-drain, deliver,
 * poison-drop, retransmit) into a preallocated ring buffer and
 * exports Chrome-trace JSON (loadable in Perfetto / chrome://tracing)
 * and a JSONL stream. Timestamps are simulation cycles only — never
 * wall clock — so exports are deterministic. When tracing is
 * disabled the tracer pointer held by components is null and every
 * hook is a single predictable branch; defining MDW_TELEMETRY_DISABLED
 * at compile time removes even that branch (the hooks inline to
 * nothing).
 */

#ifndef MDW_SIM_TELEMETRY_HH
#define MDW_SIM_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/shard_context.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mdw {

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/**
 * One named measurement inside a MetricsSnapshot: a monotonic
 * counter, an instantaneous gauge, or a full Sampler. Gauges turn
 * into per-run Samplers when snapshots are merged (a sum would be
 * meaningless for e.g. a load average).
 */
struct MetricValue
{
    enum class Kind : std::uint8_t { Counter, Gauge, Sampler };

    Kind kind = Kind::Counter;
    /** A counter's or a gauge's value, by kind. */
    union
    {
        std::uint64_t counter = 0;
        double gauge;
    };
    Sampler sampler;

    static MetricValue makeCounter(std::uint64_t v);
    static MetricValue makeGauge(double v);
    static MetricValue makeSampler(const Sampler &s);

    /** Merge @p other in: counters add, samplers Sampler::merge,
     *  gauges collapse into a Sampler over the merged runs. */
    void merge(const MetricValue &other);

    /** Exact (bitwise, not tolerance-based) equality. */
    bool identical(const MetricValue &other) const;
};

/**
 * Keyed, self-contained snapshot of every registered metric — the
 * value type ExperimentResult carries, sorted by name and looked up
 * by binary search. Lookups on missing names return zero / an empty
 * sampler so accessors stay total.
 *
 * Storage is three flat arrays: every name in one character arena,
 * one 16-byte entry per metric (the name's offset and length, the
 * kind, and one slot holding the counter, the gauge, or the index of
 * the sampler), and the samplers, which only a few metrics are.
 */
class MetricsSnapshot
{
  public:
    std::uint64_t counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    const Sampler &sampler(std::string_view name) const;
    bool has(std::string_view name) const { return locate(name) != nullptr; }
    /** The value stored under @p name, if any. */
    std::optional<MetricValue> find(std::string_view name) const;

    void setCounter(std::string_view name, std::uint64_t v);
    void setGauge(std::string_view name, double v);
    void setSampler(std::string_view name, const Sampler &s);

    /** Sum of every counter whose name ends with @p suffix (rolls a
     *  per-component metric up over the hierarchy). */
    std::uint64_t sumCounters(std::string_view suffix) const;

    /**
     * Merge @p other into this snapshot. Deterministic given a fixed
     * merge order: the sweep runner merges per-run snapshots in
     * submission order, so aggregates are bit-identical at any thread
     * count.
     */
    void merge(const MetricsSnapshot &other);

    bool identical(const MetricsSnapshot &other) const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    /** Name of the @p i'th entry; names are sorted and unique. */
    std::string_view name(std::size_t i) const { return nameOf(entries_[i]); }
    /** Value of the @p i'th entry. */
    MetricValue value(std::size_t i) const { return valueOf(entries_[i]); }

    /** One JSON object {"name": value | {sampler fields}, ...},
     *  sorted by name (deterministic). */
    std::string toJson() const;

  private:
    friend class MetricsRegistry;

    struct Entry
    {
        /** The name is names_[offset, offset + length). */
        std::uint32_t offset;
        std::uint16_t length;
        MetricValue::Kind kind;
        union
        {
            std::uint64_t counter;
            double gauge;
            /** Kind::Sampler: index into samplers_. */
            std::uint64_t sampler;
        };
    };

    std::string_view
    nameOf(const Entry &e) const
    {
        return std::string_view(names_).substr(e.offset, e.length);
    }
    MetricValue valueOf(const Entry &e) const;
    /** Store @p value in @p e, reusing e's sampler slot if it has one. */
    void store(Entry &e, const MetricValue &value);
    /** Append @p name to the arena; returns an entry naming it. */
    Entry nameEntry(std::string_view name);
    const Entry *locate(std::string_view name) const;
    /** Insert or overwrite @p name, keeping entries_ sorted. */
    void set(std::string_view name, const MetricValue &value);

    std::string names_;
    std::vector<Entry> entries_;
    std::vector<Sampler> samplers_;
};

/**
 * Registry of live metric sources. Components register their stat
 * objects (by pointer; the component retains ownership and must
 * outlive the registry's snapshots) under unique hierarchical names.
 * snapshot() reads every source once.
 *
 * Storage is flat and append-only. A component registers its name
 * prefix once as a scope ("switch.12", then "switch.12.port.3" under
 * it), and each metric is a fixed-size record: scope id, static leaf
 * name, source kind, source pointer. Registering a counter, sampler,
 * time average or IntReader gauge builds no string and no
 * std::function. Full names exist only inside snapshot() and
 * names(), which render and sort them; that is also where a
 * duplicate name is caught, and it is fatal.
 */
class MetricsRegistry
{
  public:
    /** A registered name prefix; see scope(). */
    using ScopeId = std::uint32_t;
    /** The empty prefix: a metric here is named by its leaf alone. */
    static constexpr ScopeId kRoot = 0;

    using GaugeFn = std::function<double()>;
    using IntGaugeFn = std::function<std::uint64_t()>;
    using NowFn = std::function<Cycle()>;
    /** Reads an integer gauge off @p source at snapshot time. A
     *  captureless function, so registering one allocates nothing. */
    using IntReader = std::uint64_t (*)(const void *source);

    MetricsRegistry();
    /** Records point into the registry's own storage. */
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register the prefix "<parent>.<label><index>", or
     * "<label><index>" under kRoot: scope("switch.", 12) names
     * "switch.12", and scope("p", 3, link) under "link.7" names
     * "link.7.p3". @p label must outlive the registry (a literal).
     */
    ScopeId scope(const char *label, std::uint32_t index,
                  ScopeId parent = kRoot);

    /** Scoped registration: the metric is named "<scope>.<leaf>";
     *  @p leaf must outlive the registry (a literal). */
    void registerCounter(ScopeId scope, const char *leaf,
                         const Counter *c);
    void registerSampler(ScopeId scope, const char *leaf,
                         const Sampler *s);
    /** Registers "<leaf>.avg" and "<leaf>.peak", evaluated at the
     *  snapshot's clock reading (setClock). */
    void registerTimeAverage(ScopeId scope, const char *leaf,
                             const TimeAverage *t);
    void registerIntGauge(ScopeId scope, const char *leaf,
                          const void *source, IntReader read);
    /** Closure gauges, for rollups over many components. */
    void registerIntGauge(ScopeId scope, const char *leaf,
                          IntGaugeFn fn);
    void registerGauge(ScopeId scope, const char *leaf, GaugeFn fn);

    /** The clock time averages are read at; unset reads cycle 0. */
    void setClock(NowFn now) { now_ = std::move(now); }

    MetricsSnapshot snapshot() const;

    std::size_t size() const { return metrics_.size(); }
    /** Every registered name, sorted. */
    std::vector<std::string> names() const;

  private:
    enum class Source : std::uint8_t
    {
        Counter,
        Sampler,
        TimeAvg,
        TimePeak,
        Reader,
        Gauge,
    };

    struct Scope
    {
        const char *label;
        std::uint32_t index;
        ScopeId parent;
    };

    struct Metric
    {
        const char *leaf;
        const void *source;
        /** Source::Reader only. */
        IntReader read;
        ScopeId scope;
        Source kind;
    };

    void add(ScopeId scope, const char *leaf, Source kind,
             const void *source, IntReader read = nullptr);
    void appendScope(std::string &out, ScopeId id) const;
    /**
     * Render every name into @p snap's arena, sized exactly, with one
     * entry per name whose slot holds the metric's index; entries
     * sorted by name, fatal on a duplicate.
     */
    void render(MetricsSnapshot &snap) const;

    /** [kRoot] is the empty prefix. Both grow in fixed blocks, not
     *  by doubling: no growth copies and no slack past one block. */
    std::deque<Scope> scopes_;
    std::deque<Metric> metrics_;
    std::deque<GaugeFn> gauges_;
    std::deque<IntGaugeFn> intGauges_;
    NowFn now_;
};

// ---------------------------------------------------------------------
// Worm lifecycle tracing
// ---------------------------------------------------------------------

/** Lifecycle stations of a multidestination worm. */
enum class WormEvent : std::uint8_t
{
    /** First flit put on the injection link at the source NIC. */
    Inject,
    /** Routing header fully arrived and decoded at a switch. */
    HeaderDecode,
    /** Worm replicated to >1 output branch (arg = extra copies). */
    Replicate,
    /** Head stalled waiting for buffer reservation / output grant. */
    ReserveStall,
    /** Tail flit left a switch output (branch fully forwarded). */
    TailDrain,
    /** Packet delivered (accepted) at a destination NIC. */
    Deliver,
    /** Delivery discarded by the end-to-end poison check (fault). */
    PoisonDrop,
    /** Whole-message retransmission round issued by a source NIC. */
    Retransmit,
    /** Link CRC caught a corrupted flit at a receiver (arg = port). */
    CrcFail,
    /** Receiver NAKed; the sender will replay (arg = port). */
    Nak,
    /** Link-level retransmission of one flit (arg = attempt). */
    Replay,
    /** A link-flap window started losing traffic (arg = port). */
    LinkFlap,
    /** A multi-lane switch assigned a worm its lane (arg = lane). */
    LaneAlloc,
    /** A lane had a flit ready but lost the physical-link mux
     *  (arg = port); only emitted when the switch runs > 1 lane. */
    LaneStall,
};

const char *toString(WormEvent event);

/** One recorded lifecycle event (fixed-size; ring-buffer friendly). */
struct WormTraceEvent
{
    Cycle cycle = 0;
    PacketId packet = 0;
    MsgId msg = 0;
    /** Switch id, or node id when atHost. */
    std::int32_t component = 0;
    /** Event-specific detail: port, extra copies, attempt number. */
    std::int32_t arg = 0;
    WormEvent kind = WormEvent::Inject;
    bool atHost = false;
};

/**
 * Immutable export of a tracer's contents (events oldest-first plus
 * drop accounting), shared by results so sweeps stay thread-safe.
 */
struct WormTrace
{
    std::vector<WormTraceEvent> events;
    /** Events ever recorded (recorded - events.size() were dropped). */
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;

    /** Chrome-trace ("traceEvents") JSON; loads in Perfetto. */
    std::string chromeJson() const;
    /** One JSON object per line. */
    std::string jsonl() const;
};

/**
 * Preallocated ring buffer of lifecycle events. When full, the
 * oldest events are overwritten (and counted as dropped) so a
 * deadlock diagnosis always holds the *most recent* history.
 *
 * Under the sharded scheduler (setShards) the tracer keeps one ring
 * per parallel shard plus one for serial contexts, each at full
 * capacity, and record() routes through the thread-local shard index
 * so parallel switch steps never contend. snapshot() merges the rings
 * back into the exact flat-scheduler order: sharded runs only record
 * at the current cycle, switch events (atHost == false, parallel
 * rings) precede host events (serial ring) within a cycle, and
 * components step in ascending-id order within each class — so a
 * stable sort on (cycle, atHost, component) reproduces the flat
 * sequence, and keeping the last `capacity` merged events matches the
 * flat ring exactly (each ring's overlap with the global tail is a
 * suffix of its own sequence no longer than its capacity).
 */
class WormTracer
{
  public:
    explicit WormTracer(std::size_t capacity);

    void
    record(WormEvent kind, Cycle cycle, PacketId packet, MsgId msg,
           std::int32_t component, bool atHost, std::int32_t arg = 0)
    {
        Ring &ring =
            rings_[static_cast<std::size_t>(shardctx::current + 1)];
        WormTraceEvent &slot = ring.buf[ring.head];
        slot.cycle = cycle;
        slot.packet = packet;
        slot.msg = msg;
        slot.component = component;
        slot.arg = arg;
        slot.kind = kind;
        slot.atHost = atHost;
        ring.head = ring.head + 1 == ring.buf.size() ? 0 : ring.head + 1;
        ++ring.recorded;
    }

    /** Provision rings for @p shards parallel shards (serial-only
     *  contexts keep working either way). Call before recording. */
    void setShards(std::size_t shards);

    std::size_t capacity() const { return capacity_; }
    /** Events ever recorded (including since-overwritten ones). */
    std::uint64_t recorded() const;
    /** Events overwritten by ring wraparound. */
    std::uint64_t dropped() const { return recorded() - size(); }
    /** Events currently held (what snapshot() would export). */
    std::size_t size() const;

    /** Copy out the surviving events, oldest first. */
    WormTrace snapshot() const;

    void clear();

  private:
    struct Ring
    {
        std::vector<WormTraceEvent> buf;
        std::size_t head = 0;
        std::uint64_t recorded = 0;
    };

    /** Surviving events of one ring, oldest first. */
    static void appendHeld(const Ring &ring,
                           std::vector<WormTraceEvent> &out);

    std::size_t capacity_;
    /** [0] = serial contexts, [1 + s] = parallel shard s. */
    std::vector<Ring> rings_;
};

/**
 * Telemetry hook used on component hot paths: expands to a plain
 * null check, or to nothing when MDW_TELEMETRY_DISABLED is defined
 * (the compile-time-inlined no-op path).
 */
#ifndef MDW_TELEMETRY_DISABLED
#define MDW_TRACE_EVENT(tracer, kind, cycle, pkt, msg, comp, atHost, \
                        arg)                                         \
    do {                                                             \
        if (tracer)                                                  \
            (tracer)->record((kind), (cycle), (pkt), (msg), (comp),  \
                             (atHost), (arg));                       \
    } while (0)
#else
#define MDW_TRACE_EVENT(tracer, kind, cycle, pkt, msg, comp, atHost, \
                        arg)                                         \
    do {                                                             \
    } while (0)
#endif

// ---------------------------------------------------------------------
// Telemetry context
// ---------------------------------------------------------------------

/** Observability configuration (part of NetworkConfig). */
struct TelemetryParams
{
    /** Record worm lifecycle events into the ring buffer. */
    bool trace = false;
    /** Ring-buffer capacity in events. */
    std::uint32_t traceCapacity = 1u << 16;
};

/**
 * Per-network observability context: the registry every component
 * registers into plus the (optional) tracer they all share.
 */
class Telemetry
{
  public:
    explicit Telemetry(const TelemetryParams &params = {});

    MetricsRegistry &registry() { return registry_; }
    const MetricsRegistry &registry() const { return registry_; }

    /** Null when tracing is disabled (the zero-overhead path). */
    WormTracer *tracer() { return tracer_.get(); }
    const WormTracer *tracer() const { return tracer_.get(); }

    const TelemetryParams &params() const { return params_; }

  private:
    TelemetryParams params_;
    MetricsRegistry registry_;
    std::unique_ptr<WormTracer> tracer_;
};

} // namespace mdw

#endif // MDW_SIM_TELEMETRY_HH
