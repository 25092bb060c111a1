#include "sim/telemetry.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "sim/logging.hh"

namespace mdw {

namespace {

/** Shortest round-trippable formatting, stable across runs. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonNumber(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string
samplerJson(const Sampler &s)
{
    std::string out = "{\"count\":";
    out += jsonNumber(s.count());
    out += ",\"mean\":";
    out += jsonNumber(s.mean());
    out += ",\"stddev\":";
    out += jsonNumber(s.stddev());
    out += ",\"min\":";
    out += jsonNumber(s.min());
    out += ",\"max\":";
    out += jsonNumber(s.max());
    out += "}";
    return out;
}

bool
samplerIdentical(const Sampler &a, const Sampler &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.min() == b.min() &&
           a.max() == b.max();
}

} // namespace

// ---------------------------------------------------------------------
// MetricValue
// ---------------------------------------------------------------------

MetricValue
MetricValue::makeCounter(std::uint64_t v)
{
    MetricValue m;
    m.kind = Kind::Counter;
    m.counter = v;
    return m;
}

MetricValue
MetricValue::makeGauge(double v)
{
    MetricValue m;
    m.kind = Kind::Gauge;
    m.gauge = v;
    return m;
}

MetricValue
MetricValue::makeSampler(const Sampler &s)
{
    MetricValue m;
    m.kind = Kind::Sampler;
    m.sampler = s;
    return m;
}

void
MetricValue::merge(const MetricValue &other)
{
    // A sum of instantaneous gauges is meaningless, so a gauge
    // collapses into a distribution on its first merge; later merges
    // then combine a Sampler with the next run's Gauge. Those are the
    // only cross-kind pairs allowed.
    if (kind == Kind::Gauge) {
        kind = Kind::Sampler;
        sampler.reset();
        sampler.add(gauge);
        gauge = 0.0;
    }
    if (kind == Kind::Sampler && other.kind == Kind::Gauge) {
        sampler.add(other.gauge);
        return;
    }
    MDW_ASSERT(kind == other.kind,
               "merging metric values of different kinds");
    switch (kind) {
      case Kind::Counter:
        counter += other.counter;
        return;
      case Kind::Sampler:
        sampler.merge(other.sampler);
        return;
      case Kind::Gauge:
        return; // unreachable: converted above
    }
}

bool
MetricValue::identical(const MetricValue &other) const
{
    if (kind != other.kind)
        return false;
    switch (kind) {
      case Kind::Counter:
        return counter == other.counter;
      case Kind::Gauge:
        return gauge == other.gauge;
      case Kind::Sampler:
        return samplerIdentical(sampler, other.sampler);
    }
    return false;
}

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

MetricValue
MetricsSnapshot::valueOf(const Entry &e) const
{
    switch (e.kind) {
      case MetricValue::Kind::Counter:
        return MetricValue::makeCounter(e.counter);
      case MetricValue::Kind::Gauge:
        return MetricValue::makeGauge(e.gauge);
      case MetricValue::Kind::Sampler:
        break;
    }
    return MetricValue::makeSampler(samplers_[e.sampler]);
}

void
MetricsSnapshot::store(Entry &e, const MetricValue &value)
{
    switch (value.kind) {
      case MetricValue::Kind::Counter:
        e.counter = value.counter;
        break;
      case MetricValue::Kind::Gauge:
        e.gauge = value.gauge;
        break;
      case MetricValue::Kind::Sampler:
        if (e.kind == MetricValue::Kind::Sampler) {
            samplers_[e.sampler] = value.sampler;
        } else {
            e.sampler = samplers_.size();
            samplers_.push_back(value.sampler);
        }
        break;
    }
    e.kind = value.kind;
}

MetricsSnapshot::Entry
MetricsSnapshot::nameEntry(std::string_view name)
{
    MDW_ASSERT(name.size() <= UINT16_MAX &&
                   names_.size() + name.size() <= UINT32_MAX,
               "metric name '%.*s' does not fit the snapshot arena",
               static_cast<int>(name.size()), name.data());
    Entry e{};
    e.offset = static_cast<std::uint32_t>(names_.size());
    e.length = static_cast<std::uint16_t>(name.size());
    names_.append(name);
    return e;
}

const MetricsSnapshot::Entry *
MetricsSnapshot::locate(std::string_view name) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [this](const Entry &e, std::string_view n) { return nameOf(e) < n; });
    if (it == entries_.end() || nameOf(*it) != name)
        return nullptr;
    return &*it;
}

std::optional<MetricValue>
MetricsSnapshot::find(std::string_view name) const
{
    const Entry *e = locate(name);
    if (e == nullptr)
        return std::nullopt;
    return valueOf(*e);
}

std::uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    const Entry *e = locate(name);
    if (e == nullptr || e->kind == MetricValue::Kind::Sampler)
        return 0;
    if (e->kind == MetricValue::Kind::Gauge)
        return static_cast<std::uint64_t>(e->gauge);
    return e->counter;
}

double
MetricsSnapshot::gauge(std::string_view name) const
{
    const Entry *e = locate(name);
    if (e == nullptr)
        return 0.0;
    switch (e->kind) {
      case MetricValue::Kind::Counter:
        return static_cast<double>(e->counter);
      case MetricValue::Kind::Gauge:
        return e->gauge;
      case MetricValue::Kind::Sampler:
        return samplers_[e->sampler].mean();
    }
    return 0.0;
}

const Sampler &
MetricsSnapshot::sampler(std::string_view name) const
{
    static const Sampler empty;
    const Entry *e = locate(name);
    if (e == nullptr || e->kind != MetricValue::Kind::Sampler)
        return empty;
    return samplers_[e->sampler];
}

void
MetricsSnapshot::set(std::string_view name, const MetricValue &value)
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [this](const Entry &e, std::string_view n) { return nameOf(e) < n; });
    if (it != entries_.end() && nameOf(*it) == name) {
        store(*it, value);
        return;
    }
    const auto at = it - entries_.begin();
    Entry e = nameEntry(name);
    store(e, value);
    entries_.insert(entries_.begin() + at, e);
}

void
MetricsSnapshot::setCounter(std::string_view name, std::uint64_t v)
{
    set(name, MetricValue::makeCounter(v));
}

void
MetricsSnapshot::setGauge(std::string_view name, double v)
{
    set(name, MetricValue::makeGauge(v));
}

void
MetricsSnapshot::setSampler(std::string_view name, const Sampler &s)
{
    set(name, MetricValue::makeSampler(s));
}

std::uint64_t
MetricsSnapshot::sumCounters(std::string_view suffix) const
{
    std::uint64_t total = 0;
    for (const Entry &e : entries_) {
        if (e.kind == MetricValue::Kind::Counter &&
            nameOf(e).ends_with(suffix)) {
            total += e.counter;
        }
    }
    return total;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    // One pass over both sorted entry lists: own entries carry
    // across, shared names merge, names only @p other has are
    // appended to this arena (entries hold offsets, so the arena
    // need not stay sorted).
    std::vector<Entry> out;
    out.reserve(std::max(entries_.size(), other.entries_.size()));
    std::size_t mine = 0;
    for (const Entry &theirs : other.entries_) {
        const std::string_view name = other.nameOf(theirs);
        while (mine < entries_.size() && nameOf(entries_[mine]) < name)
            out.push_back(entries_[mine++]);
        if (mine < entries_.size() && nameOf(entries_[mine]) == name) {
            MetricValue merged = valueOf(entries_[mine]);
            merged.merge(other.valueOf(theirs));
            store(entries_[mine], merged);
            out.push_back(entries_[mine++]);
        } else {
            Entry e = nameEntry(name);
            store(e, other.valueOf(theirs));
            out.push_back(e);
        }
    }
    out.insert(out.end(), entries_.begin() + static_cast<std::ptrdiff_t>(mine),
               entries_.end());
    entries_ = std::move(out);
}

bool
MetricsSnapshot::identical(const MetricsSnapshot &other) const
{
    if (entries_.size() != other.entries_.size())
        return false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &a = entries_[i];
        const Entry &b = other.entries_[i];
        if (nameOf(a) != other.nameOf(b) ||
            !valueOf(a).identical(other.valueOf(b)))
            return false;
    }
    return true;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const Entry &e : entries_) {
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        out += nameOf(e);
        out += "\":";
        switch (e.kind) {
          case MetricValue::Kind::Counter:
            out += jsonNumber(e.counter);
            break;
          case MetricValue::Kind::Gauge:
            out += jsonNumber(e.gauge);
            break;
          case MetricValue::Kind::Sampler:
            out += samplerJson(samplers_[e.sampler]);
            break;
        }
    }
    out += "}";
    return out;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry::MetricsRegistry() : scopes_{{"", 0, kRoot}} {}

MetricsRegistry::ScopeId
MetricsRegistry::scope(const char *label, std::uint32_t index,
                       ScopeId parent)
{
    MDW_ASSERT(parent < scopes_.size(), "scope '%s%u' under unknown "
               "scope %u", label, index, parent);
    scopes_.push_back(Scope{label, index, parent});
    return static_cast<ScopeId>(scopes_.size() - 1);
}

void
MetricsRegistry::add(ScopeId scope, const char *leaf, Source kind,
                     const void *source, IntReader read)
{
    MDW_ASSERT(scope < scopes_.size(), "metric '%s' under unknown "
               "scope %u", leaf, scope);
    MDW_ASSERT(source != nullptr, "null source registered as '%s'",
               leaf);
    metrics_.push_back(Metric{leaf, source, read, scope, kind});
}

void
MetricsRegistry::registerCounter(ScopeId scope, const char *leaf,
                                 const Counter *c)
{
    add(scope, leaf, Source::Counter, c);
}

void
MetricsRegistry::registerSampler(ScopeId scope, const char *leaf,
                                 const Sampler *s)
{
    add(scope, leaf, Source::Sampler, s);
}

void
MetricsRegistry::registerTimeAverage(ScopeId scope, const char *leaf,
                                     const TimeAverage *t)
{
    add(scope, leaf, Source::TimeAvg, t);
    add(scope, leaf, Source::TimePeak, t);
}

void
MetricsRegistry::registerIntGauge(ScopeId scope, const char *leaf,
                                  const void *source, IntReader read)
{
    MDW_ASSERT(read != nullptr, "null reader registered as '%s'", leaf);
    add(scope, leaf, Source::Reader, source, read);
}

void
MetricsRegistry::registerIntGauge(ScopeId scope, const char *leaf,
                                  IntGaugeFn fn)
{
    MDW_ASSERT(fn != nullptr, "null gauge registered as '%s'", leaf);
    registerIntGauge(scope, leaf,
                     &intGauges_.emplace_back(std::move(fn)),
                     [](const void *f) {
                         return (*static_cast<const IntGaugeFn *>(f))();
                     });
}

void
MetricsRegistry::registerGauge(ScopeId scope, const char *leaf,
                               GaugeFn fn)
{
    MDW_ASSERT(fn != nullptr, "null gauge registered as '%s'", leaf);
    add(scope, leaf, Source::Gauge,
        &gauges_.emplace_back(std::move(fn)));
}

void
MetricsRegistry::appendScope(std::string &out, ScopeId id) const
{
    const Scope &s = scopes_[id];
    if (s.parent != kRoot) {
        appendScope(out, s.parent);
        out += '.';
    }
    out += s.label;
    char digits[16];
    const auto end = std::to_chars(digits, digits + sizeof(digits),
                                   s.index).ptr;
    out.append(digits, end);
}

void
MetricsRegistry::render(MetricsSnapshot &snap) const
{
    // Size the arena exactly first: every scope's rendered length
    // (parents precede their children), then each metric's name.
    std::vector<std::uint32_t> scopeLength(scopes_.size(), 0);
    for (std::size_t id = 1; id < scopes_.size(); ++id) {
        const Scope &s = scopes_[id];
        char digits[16];
        const auto end = std::to_chars(digits, digits + sizeof(digits),
                                       s.index).ptr;
        scopeLength[id] =
            static_cast<std::uint32_t>(std::strlen(s.label) +
                                       static_cast<std::size_t>(
                                           end - digits)) +
            (s.parent != kRoot ? scopeLength[s.parent] + 1 : 0);
    }
    std::size_t total = 0;
    for (const Metric &m : metrics_) {
        total += std::strlen(m.leaf) +
                 (m.scope != kRoot ? scopeLength[m.scope] + 1 : 0);
        if (m.kind == Source::TimeAvg)
            total += 4;
        else if (m.kind == Source::TimePeak)
            total += 5;
    }
    snap.names_.reserve(total);
    snap.entries_.reserve(metrics_.size());

    std::string name;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        name.clear();
        if (m.scope != kRoot) {
            appendScope(name, m.scope);
            name += '.';
        }
        name += m.leaf;
        if (m.kind == Source::TimeAvg)
            name += ".avg";
        else if (m.kind == Source::TimePeak)
            name += ".peak";
        MetricsSnapshot::Entry e = snap.nameEntry(name);
        e.counter = i;
        snap.entries_.push_back(e);
    }
    using Entry = MetricsSnapshot::Entry;
    std::sort(snap.entries_.begin(), snap.entries_.end(),
              [&snap](const Entry &a, const Entry &b) {
                  return snap.nameOf(a) < snap.nameOf(b);
              });
    const auto dup = std::adjacent_find(
        snap.entries_.begin(), snap.entries_.end(),
        [&snap](const Entry &a, const Entry &b) {
            return snap.nameOf(a) == snap.nameOf(b);
        });
    if (dup != snap.entries_.end()) {
        fatal("metric '%s' registered twice",
              std::string(snap.nameOf(*dup)).c_str());
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    render(snap);
    const Cycle now = now_ ? now_() : Cycle{0};
    for (MetricsSnapshot::Entry &e : snap.entries_) {
        const Metric &m = metrics_[e.counter];
        switch (m.kind) {
          case Source::Counter:
            snap.store(e, MetricValue::makeCounter(
                              static_cast<const Counter *>(m.source)
                                  ->value()));
            break;
          case Source::Sampler:
            snap.store(e, MetricValue::makeSampler(
                              *static_cast<const Sampler *>(m.source)));
            break;
          case Source::TimeAvg:
            snap.store(e, MetricValue::makeGauge(
                              static_cast<const TimeAverage *>(m.source)
                                  ->average(now)));
            break;
          case Source::TimePeak:
            snap.store(e, MetricValue::makeGauge(
                              static_cast<const TimeAverage *>(m.source)
                                  ->peak()));
            break;
          case Source::Reader:
            snap.store(e, MetricValue::makeCounter(m.read(m.source)));
            break;
          case Source::Gauge:
            snap.store(e, MetricValue::makeGauge(
                              (*static_cast<const GaugeFn *>(m.source))()));
            break;
        }
    }
    return snap;
}

std::vector<std::string>
MetricsRegistry::names() const
{
    MetricsSnapshot snap;
    render(snap);
    std::vector<std::string> out;
    out.reserve(snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i)
        out.emplace_back(snap.name(i));
    return out;
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

const char *
toString(WormEvent event)
{
    switch (event) {
      case WormEvent::Inject:
        return "inject";
      case WormEvent::HeaderDecode:
        return "header_decode";
      case WormEvent::Replicate:
        return "replicate";
      case WormEvent::ReserveStall:
        return "reserve_stall";
      case WormEvent::TailDrain:
        return "tail_drain";
      case WormEvent::Deliver:
        return "deliver";
      case WormEvent::PoisonDrop:
        return "poison_drop";
      case WormEvent::Retransmit:
        return "retransmit";
      case WormEvent::CrcFail:
        return "crc_fail";
      case WormEvent::Nak:
        return "nak";
      case WormEvent::Replay:
        return "replay";
      case WormEvent::LinkFlap:
        return "link_flap";
      case WormEvent::LaneAlloc:
        return "lane_alloc";
      case WormEvent::LaneStall:
        return "lane_stall";
    }
    return "unknown";
}

namespace {

void
appendEventJson(std::string &out, const WormTraceEvent &e)
{
    out += "{\"cycle\":";
    out += jsonNumber(e.cycle);
    out += ",\"event\":\"";
    out += toString(e.kind);
    out += "\",\"packet\":";
    out += jsonNumber(e.packet);
    out += ",\"msg\":";
    out += jsonNumber(e.msg);
    out += ",\"component\":";
    out += jsonNumber(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(e.component)));
    out += ",\"host\":";
    out += e.atHost ? "true" : "false";
    out += ",\"arg\":";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", e.arg);
    out += buf;
    out += "}";
}

} // namespace

std::string
WormTrace::chromeJson() const
{
    // Chrome trace-event format: instant events ("ph":"i") with the
    // simulation cycle as the timestamp; switches live in pid 1,
    // hosts in pid 2, component ids map to tids.
    std::string out = "{\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"switches\"}},";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
           "\"tid\":0,\"args\":{\"name\":\"hosts\"}}";
    for (const WormTraceEvent &e : events) {
        out += ",{\"name\":\"";
        out += toString(e.kind);
        out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
        out += jsonNumber(e.cycle);
        out += ",\"pid\":";
        out += e.atHost ? "2" : "1";
        out += ",\"tid\":";
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%d", e.component);
        out += buf;
        out += ",\"args\":{\"packet\":";
        out += jsonNumber(e.packet);
        out += ",\"msg\":";
        out += jsonNumber(e.msg);
        out += ",\"arg\":";
        std::snprintf(buf, sizeof(buf), "%d", e.arg);
        out += buf;
        out += "}}";
    }
    out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
           "\"clock\":\"cycles\",\"recorded\":";
    out += jsonNumber(recorded);
    out += ",\"dropped\":";
    out += jsonNumber(dropped);
    out += "}}";
    return out;
}

std::string
WormTrace::jsonl() const
{
    std::string out;
    for (const WormTraceEvent &e : events) {
        appendEventJson(out, e);
        out += "\n";
    }
    return out;
}

WormTracer::WormTracer(std::size_t capacity) : capacity_(capacity)
{
    MDW_ASSERT(capacity > 0, "tracer needs a non-empty ring");
    rings_.resize(1);
    rings_[0].buf.resize(capacity_);
}

void
WormTracer::setShards(std::size_t shards)
{
    if (rings_.size() == shards + 1)
        return;
    rings_.clear();
    rings_.resize(shards + 1);
    for (Ring &ring : rings_)
        ring.buf.resize(capacity_);
}

std::uint64_t
WormTracer::recorded() const
{
    std::uint64_t total = 0;
    for (const Ring &ring : rings_)
        total += ring.recorded;
    return total;
}

std::size_t
WormTracer::size() const
{
    std::uint64_t held = 0;
    for (const Ring &ring : rings_) {
        held += ring.recorded < ring.buf.size() ? ring.recorded
                                                : ring.buf.size();
    }
    return held < capacity_ ? static_cast<std::size_t>(held)
                            : capacity_;
}

void
WormTracer::appendHeld(const Ring &ring,
                       std::vector<WormTraceEvent> &out)
{
    const std::size_t held =
        ring.recorded < ring.buf.size()
            ? static_cast<std::size_t>(ring.recorded)
            : ring.buf.size();
    // Oldest surviving event sits at head once the ring has wrapped.
    const std::size_t start =
        ring.recorded < ring.buf.size() ? 0 : ring.head;
    for (std::size_t i = 0; i < held; ++i)
        out.push_back(ring.buf[(start + i) % ring.buf.size()]);
}

WormTrace
WormTracer::snapshot() const
{
    WormTrace trace;
    trace.recorded = recorded();
    if (rings_.size() == 1) {
        // Serial tracer: export in recorded order. (This is the only
        // mode where events may carry out-of-order cycle stamps --
        // the link-layer hooks stamp future arrival cycles -- so the
        // merged-sort path below must not run here.)
        trace.events.reserve(size());
        appendHeld(rings_[0], trace.events);
        trace.dropped = trace.recorded - trace.events.size();
        return trace;
    }
    std::vector<WormTraceEvent> merged;
    merged.reserve(size() + capacity_);
    for (const Ring &ring : rings_)
        appendHeld(ring, merged);
    // Reconstruct the flat within-cycle order (see class comment);
    // ties beyond the key come from a single ring, so stability
    // preserves their recorded order.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const WormTraceEvent &a,
                        const WormTraceEvent &b) {
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         if (a.atHost != b.atHost)
                             return !a.atHost;
                         return a.component < b.component;
                     });
    const std::size_t keep =
        merged.size() < capacity_ ? merged.size() : capacity_;
    trace.events.assign(merged.end() -
                            static_cast<std::ptrdiff_t>(keep),
                        merged.end());
    trace.dropped = trace.recorded - trace.events.size();
    return trace;
}

void
WormTracer::clear()
{
    for (Ring &ring : rings_) {
        ring.head = 0;
        ring.recorded = 0;
    }
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

Telemetry::Telemetry(const TelemetryParams &params) : params_(params)
{
    if (params_.trace) {
        tracer_ = std::make_unique<WormTracer>(
            params_.traceCapacity == 0 ? 1u : params_.traceCapacity);
    }
}

} // namespace mdw
