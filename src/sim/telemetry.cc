#include "sim/telemetry.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
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

namespace {

using Entry = MetricsSnapshot::Entry;

bool
nameBefore(const Entry &entry, std::string_view name)
{
    return std::string_view(entry.first) < name;
}

} // namespace

const MetricValue *
MetricsSnapshot::find(std::string_view name) const
{
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     name, nameBefore);
    if (it == entries_.end() || it->first != name)
        return nullptr;
    return &it->second;
}

std::uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    const MetricValue *value = find(name);
    if (value == nullptr)
        return 0;
    if (value->kind == MetricValue::Kind::Gauge)
        return static_cast<std::uint64_t>(value->gauge);
    return value->counter;
}

double
MetricsSnapshot::gauge(std::string_view name) const
{
    const MetricValue *value = find(name);
    if (value == nullptr)
        return 0.0;
    switch (value->kind) {
      case MetricValue::Kind::Counter:
        return static_cast<double>(value->counter);
      case MetricValue::Kind::Gauge:
        return value->gauge;
      case MetricValue::Kind::Sampler:
        return value->sampler.mean();
    }
    return 0.0;
}

const Sampler &
MetricsSnapshot::sampler(std::string_view name) const
{
    static const Sampler empty;
    const MetricValue *value = find(name);
    if (value == nullptr || value->kind != MetricValue::Kind::Sampler)
        return empty;
    return value->sampler;
}

void
MetricsSnapshot::set(std::string_view name, MetricValue value)
{
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     name, nameBefore);
    if (it != entries_.end() && it->first == name)
        it->second = std::move(value);
    else
        entries_.emplace(it, std::string(name), std::move(value));
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
    for (const auto &[name, value] : entries_) {
        if (value.kind == MetricValue::Kind::Counter &&
            std::string_view(name).ends_with(suffix)) {
            total += value.counter;
        }
    }
    return total;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    // One pass over both sorted vectors: own entries move across,
    // shared names merge, names only @p other has are copied in.
    std::vector<Entry> out;
    out.reserve(entries_.size());
    auto mine = entries_.begin();
    for (const Entry &theirs : other.entries_) {
        while (mine != entries_.end() && mine->first < theirs.first)
            out.push_back(std::move(*mine++));
        if (mine != entries_.end() && mine->first == theirs.first) {
            mine->second.merge(theirs.second);
            out.push_back(std::move(*mine++));
        } else {
            out.push_back(theirs);
        }
    }
    out.insert(out.end(), std::make_move_iterator(mine),
               std::make_move_iterator(entries_.end()));
    entries_ = std::move(out);
}

bool
MetricsSnapshot::identical(const MetricsSnapshot &other) const
{
    return std::equal(entries_.begin(), entries_.end(),
                      other.entries_.begin(), other.entries_.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.first == b.first &&
                                 a.second.identical(b.second);
                      });
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : entries_) {
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        out += name;
        out += "\":";
        switch (value.kind) {
          case MetricValue::Kind::Counter:
            out += jsonNumber(value.counter);
            break;
          case MetricValue::Kind::Gauge:
            out += jsonNumber(value.gauge);
            break;
          case MetricValue::Kind::Sampler:
            out += samplerJson(value.sampler);
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

const char *
MetricsRegistry::keep(const std::string &name)
{
    return names_.emplace_back(name).c_str();
}

void
MetricsRegistry::registerCounter(const std::string &name,
                                 const Counter *c)
{
    registerCounter(kRoot, keep(name), c);
}

void
MetricsRegistry::registerSampler(const std::string &name,
                                 const Sampler *s)
{
    registerSampler(kRoot, keep(name), s);
}

void
MetricsRegistry::registerTimeAverage(const std::string &name,
                                     const TimeAverage *t)
{
    registerTimeAverage(kRoot, keep(name), t);
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
MetricsRegistry::registerGauge(const std::string &name, GaugeFn fn)
{
    registerGauge(kRoot, keep(name), std::move(fn));
}

void
MetricsRegistry::registerIntGauge(const std::string &name,
                                  IntGaugeFn fn)
{
    registerIntGauge(kRoot, keep(name), std::move(fn));
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

std::vector<MetricsRegistry::Name>
MetricsRegistry::render(std::string &buf) const
{
    std::vector<Name> names;
    names.reserve(metrics_.size());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        const std::size_t offset = buf.size();
        if (m.scope != kRoot) {
            appendScope(buf, m.scope);
            buf += '.';
        }
        buf += m.leaf;
        if (m.kind == Source::TimeAvg)
            buf += ".avg";
        else if (m.kind == Source::TimePeak)
            buf += ".peak";
        names.push_back(Name{static_cast<std::uint32_t>(offset),
                             static_cast<std::uint32_t>(buf.size() -
                                                        offset),
                             static_cast<std::uint32_t>(i)});
    }
    const auto view = [&buf](const Name &n) {
        return std::string_view(buf).substr(n.offset, n.length);
    };
    std::sort(names.begin(), names.end(),
              [&view](const Name &a, const Name &b) {
                  return view(a) < view(b);
              });
    const auto dup = std::adjacent_find(
        names.begin(), names.end(), [&view](const Name &a, const Name &b) {
            return view(a) == view(b);
        });
    if (dup != names.end()) {
        fatal("metric '%s' registered twice",
              std::string(view(*dup)).c_str());
    }
    return names;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::string buf;
    const std::vector<Name> names = render(buf);
    const Cycle now = now_ ? now_() : Cycle{0};
    MetricsSnapshot snap;
    snap.entries_.reserve(names.size());
    for (const Name &n : names) {
        const Metric &m = metrics_[n.metric];
        MetricValue value;
        switch (m.kind) {
          case Source::Counter:
            value = MetricValue::makeCounter(
                static_cast<const Counter *>(m.source)->value());
            break;
          case Source::Sampler:
            value = MetricValue::makeSampler(
                *static_cast<const Sampler *>(m.source));
            break;
          case Source::TimeAvg:
            value = MetricValue::makeGauge(
                static_cast<const TimeAverage *>(m.source)->average(now));
            break;
          case Source::TimePeak:
            value = MetricValue::makeGauge(
                static_cast<const TimeAverage *>(m.source)->peak());
            break;
          case Source::Reader:
            value = MetricValue::makeCounter(m.read(m.source));
            break;
          case Source::Gauge:
            value = MetricValue::makeGauge(
                (*static_cast<const GaugeFn *>(m.source))());
            break;
        }
        snap.entries_.emplace_back(buf.substr(n.offset, n.length),
                                   std::move(value));
    }
    return snap;
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::string buf;
    std::vector<std::string> out;
    for (const Name &n : render(buf))
        out.push_back(buf.substr(n.offset, n.length));
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
