#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "core/csv.h"
#include "core/error.h"
#include "core/json.h"
#include "core/table.h"

namespace spiketune::obs {

namespace {

constexpr unsigned kKindShift = 30;
constexpr MetricId kSlotMask = (1u << kKindShift) - 1;

MetricId make_id(MetricKind kind, std::uint32_t slot) {
  return (static_cast<MetricId>(kind) << kKindShift) | slot;
}
MetricKind kind_of(MetricId id) {
  return static_cast<MetricKind>(id >> kKindShift);
}
std::uint32_t slot_of(MetricId id) { return id & kSlotMask; }

/// Per-thread histogram storage.  Single-writer (the owning thread);
/// atomics make concurrent snapshot reads well-defined.
struct HistShard {
  std::array<std::atomic<std::int64_t>, LogHistogram::kNumBuckets> buckets{};
  std::atomic<std::int64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

/// One thread's lock-free metric storage.  deques so growth never moves
/// existing elements out from under a concurrent snapshot reader (growth
/// and reads both hold the registry mutex; the owner's writes don't).
struct ThreadShard {
  std::deque<std::atomic<std::int64_t>> counters;
  std::deque<HistShard> hists;
};

struct MetricInfo {
  std::string name;
  MetricKind kind;
  std::uint32_t slot;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, MetricId> by_name;
  std::vector<MetricInfo> infos;
  std::uint32_t num_counters = 0;
  std::uint32_t num_gauges = 0;
  std::uint32_t num_hists = 0;
  std::vector<double> gauges;  // slot-indexed, guarded by mu
  // Slot-indexed liveness: a gauge retired by reset_gauges_with_prefix is
  // hidden from snapshots until the next set() — this is how per-run gauge
  // families (e.g. train.firing_rate.<run>.*) avoid leaking stale entries
  // when a second model trains in the same process.
  std::vector<char> gauge_live;
  std::vector<ThreadShard*> shards;
  // Totals folded in when a thread (e.g. a pool worker) exits.
  std::vector<std::int64_t> retired_counters;
  std::vector<LogHistogram> retired_hists;
};

// Leaked: thread-local shard destructors may run during static destruction
// (pool workers join inside the static pool's destructor) and must still
// find a live registry.
Registry& registry() {
  static auto* r = new Registry();
  return *r;
}

void fold_shard(Registry& r, const ThreadShard& sh) {
  if (r.retired_counters.size() < sh.counters.size())
    r.retired_counters.resize(sh.counters.size(), 0);
  for (std::size_t i = 0; i < sh.counters.size(); ++i)
    r.retired_counters[i] += sh.counters[i].load(std::memory_order_relaxed);
  if (r.retired_hists.size() < sh.hists.size())
    r.retired_hists.resize(sh.hists.size());
  for (std::size_t i = 0; i < sh.hists.size(); ++i) {
    const HistShard& hs = sh.hists[i];
    r.retired_hists[i].merge_raw(
        hs.buckets, hs.count.load(std::memory_order_relaxed),
        hs.sum.load(std::memory_order_relaxed),
        hs.min.load(std::memory_order_relaxed),
        hs.max.load(std::memory_order_relaxed));
  }
}

struct ShardHandle {
  ThreadShard shard;
  ShardHandle() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.shards.push_back(&shard);
  }
  ~ShardHandle() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    fold_shard(r, shard);
    r.shards.erase(std::find(r.shards.begin(), r.shards.end(), &shard));
  }
};

ThreadShard& local_shard() {
  thread_local ShardHandle handle;
  return handle.shard;
}

MetricId intern(const std::string& name, MetricKind kind) {
  ST_REQUIRE(!name.empty(), "metric name must be non-empty");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    ST_REQUIRE(kind_of(it->second) == kind,
               "metric '" + name + "' re-interned with a different kind");
    return it->second;
  }
  std::uint32_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = r.num_counters++;
      break;
    case MetricKind::kGauge:
      slot = r.num_gauges++;
      r.gauges.resize(r.num_gauges, 0.0);
      r.gauge_live.resize(r.num_gauges, 1);
      break;
    case MetricKind::kHistogram:
      slot = r.num_hists++;
      break;
  }
  const MetricId id = make_id(kind, slot);
  r.by_name.emplace(name, id);
  r.infos.push_back(MetricInfo{name, kind, slot});
  return id;
}

}  // namespace

// Snapshot-side helper: fold a HistShard's raw atomics into this histogram
// exactly (bucket-by-bucket, plus the precise count/sum/min/max).
void LogHistogram::merge_raw(
    const std::array<std::atomic<std::int64_t>, kNumBuckets>& raw,
    std::int64_t count, double sum, double min, double max) {
  std::int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const std::int64_t n =
        raw[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(b)] += n;
    total += n;
  }
  if (total == 0) return;
  if (count_ == 0) {
    min_ = min;
    max_ = max;
  } else {
    min_ = std::min(min_, min);
    max_ = std::max(max_, max);
  }
  count_ += count;
  sum_ += sum;
}

MetricId counter(const std::string& name) {
  return intern(name, MetricKind::kCounter);
}
MetricId gauge(const std::string& name) {
  return intern(name, MetricKind::kGauge);
}
MetricId histogram(const std::string& name) {
  return intern(name, MetricKind::kHistogram);
}

void add(MetricId id, std::int64_t delta) {
  if (!metrics_enabled()) return;
  ST_REQUIRE(id != kNoMetric && kind_of(id) == MetricKind::kCounter,
             "add() needs a counter id");
  const std::uint32_t slot = slot_of(id);
  ThreadShard& sh = local_shard();
  if (sh.counters.size() <= slot) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    while (sh.counters.size() <= slot) sh.counters.emplace_back(0);
  }
  auto& c = sh.counters[slot];
  c.store(c.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}

void set(MetricId id, double value) {
  if (!metrics_enabled()) return;
  ST_REQUIRE(id != kNoMetric && kind_of(id) == MetricKind::kGauge,
             "set() needs a gauge id");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.gauges[slot_of(id)] = value;
  r.gauge_live[slot_of(id)] = 1;
}

void reset_gauges_with_prefix(const std::string& prefix) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const MetricInfo& info : r.infos) {
    if (info.kind != MetricKind::kGauge) continue;
    if (info.name.compare(0, prefix.size(), prefix) != 0) continue;
    r.gauges[info.slot] = 0.0;
    r.gauge_live[info.slot] = 0;
  }
}

void observe(MetricId id, double value) {
  if (!metrics_enabled()) return;
  ST_REQUIRE(id != kNoMetric && kind_of(id) == MetricKind::kHistogram,
             "observe() needs a histogram id");
  const std::uint32_t slot = slot_of(id);
  ThreadShard& sh = local_shard();
  if (sh.hists.size() <= slot) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    while (sh.hists.size() <= slot) sh.hists.emplace_back();
  }
  HistShard& h = sh.hists[slot];
  const int b = LogHistogram::bucket_index(value);
  auto& bucket = h.buckets[static_cast<std::size_t>(b)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (value < h.min.load(std::memory_order_relaxed))
    h.min.store(value, std::memory_order_relaxed);
  if (value > h.max.load(std::memory_order_relaxed))
    h.max.store(value, std::memory_order_relaxed);
}

void LogHistogram::record(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kNumBuckets; ++b)
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::reset() { *this = LogHistogram(); }

double LogHistogram::min_seen() const { return count_ ? min_ : 0.0; }
double LogHistogram::max_seen() const { return count_ ? max_ : 0.0; }

double LogHistogram::mean_or(double fallback) const {
  return count_ ? sum_ / static_cast<double>(count_) : fallback;
}

int LogHistogram::bucket_index(double value) {
  if (!(value > 1.0)) return 0;  // <= 1, negatives, NaN
  const int i = static_cast<int>(std::ceil(std::log2(value)));
  return std::clamp(i, 1, kNumBuckets - 1);
}

double LogHistogram::bucket_upper(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1) + 1.0;
  std::int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) >= rank) {
      // The representative value must stay inside the bucket that holds the
      // q-th sample: clamping the midpoint only to the *global* [min_, max_]
      // can pull it past the bucket's own edges when outliers in distant
      // buckets stretch that range, misordering tight quantiles.  Intersect
      // the bucket's [lower, upper] with [min_, max_] — the intersection is
      // never empty, because a populated bucket contains a real sample.
      double lower, upper, mid;
      if (b == 0) {
        lower = min_;  // bucket 0 is (-inf, 1]; negatives land here too
        upper = 1.0;
        mid = 0.5;
      } else {
        lower = std::ldexp(1.0, b - 1);
        upper = bucket_upper(b);  // +inf for the last bucket
        mid = (b == kNumBuckets - 1) ? max_ : lower * std::sqrt(2.0);
      }
      const double lo_eff = std::max(lower, min_);
      const double hi_eff = std::min(upper, max_);
      return std::clamp(mid, lo_eff, std::max(lo_eff, hi_eff));
    }
  }
  return max_;
}

std::vector<MetricSnapshot> snapshot_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<MetricSnapshot> out;
  out.reserve(r.infos.size());
  for (const MetricInfo& info : r.infos) {
    MetricSnapshot s;
    s.name = info.name;
    s.kind = info.kind;
    switch (info.kind) {
      case MetricKind::kCounter: {
        std::int64_t total = info.slot < r.retired_counters.size()
                                 ? r.retired_counters[info.slot]
                                 : 0;
        for (const ThreadShard* sh : r.shards)
          if (info.slot < sh->counters.size())
            total +=
                sh->counters[info.slot].load(std::memory_order_relaxed);
        s.count = total;
        break;
      }
      case MetricKind::kGauge:
        if (!r.gauge_live[info.slot]) continue;  // retired until next set()
        s.value = r.gauges[info.slot];
        break;
      case MetricKind::kHistogram: {
        if (info.slot < r.retired_hists.size())
          s.hist.merge(r.retired_hists[info.slot]);
        for (const ThreadShard* sh : r.shards)
          if (info.slot < sh->hists.size()) {
            const HistShard& hs = sh->hists[info.slot];
            s.hist.merge_raw(hs.buckets,
                             hs.count.load(std::memory_order_relaxed),
                             hs.sum.load(std::memory_order_relaxed),
                             hs.min.load(std::memory_order_relaxed),
                             hs.max.load(std::memory_order_relaxed));
          }
        s.count = s.hist.count();
        break;
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

namespace {
const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}
}  // namespace

void write_metrics_csv(const std::string& path) {
  CsvWriter csv(path, {"name", "kind", "count", "value", "sum", "mean",
                       "p50", "p95", "max"});
  for (const MetricSnapshot& s : snapshot_metrics()) {
    csv.write_row({s.name, kind_name(s.kind),
                   CsvWriter::cell(static_cast<long long>(s.count)),
                   CsvWriter::cell(s.value), CsvWriter::cell(s.hist.sum()),
                   CsvWriter::cell(s.hist.mean_or(0.0)),
                   CsvWriter::cell(s.hist.quantile(0.5)),
                   CsvWriter::cell(s.hist.quantile(0.95)),
                   CsvWriter::cell(s.hist.max_seen())});
  }
}

std::string metrics_jsonl_string() {
  std::ostringstream out;
  for (const MetricSnapshot& s : snapshot_metrics()) {
    out << "{\"name\":" << json_quote(s.name) << ",\"kind\":\""
        << kind_name(s.kind) << "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
        out << ",\"count\":" << s.count;
        break;
      case MetricKind::kGauge:
        out << ",\"value\":" << CsvWriter::cell(s.value);
        break;
      case MetricKind::kHistogram: {
        out << ",\"count\":" << s.hist.count()
            << ",\"sum\":" << CsvWriter::cell(s.hist.sum())
            << ",\"p50\":" << CsvWriter::cell(s.hist.quantile(0.5))
            << ",\"p95\":" << CsvWriter::cell(s.hist.quantile(0.95))
            << ",\"max\":" << CsvWriter::cell(s.hist.max_seen())
            << ",\"buckets\":[";
        bool first = true;
        for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
          const std::int64_t n = s.hist.buckets()[static_cast<std::size_t>(b)];
          if (n == 0) continue;
          if (!first) out << ",";
          first = false;
          if (b == LogHistogram::kNumBuckets - 1)
            out << "{\"le\":\"+Inf\",\"n\":" << n << "}";
          else
            out << "{\"le\":" << CsvWriter::cell(LogHistogram::bucket_upper(b))
                << ",\"n\":" << n << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}\n";
  }
  return out.str();
}

void write_metrics_jsonl(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  ST_REQUIRE(out.good(), "cannot open metrics output: " + path);
  out << metrics_jsonl_string();
  ST_REQUIRE(out.good(), "failed writing metrics output: " + path);
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::fill(r.gauges.begin(), r.gauges.end(), 0.0);
  std::fill(r.retired_counters.begin(), r.retired_counters.end(), 0);
  for (LogHistogram& h : r.retired_hists) h.reset();
  for (ThreadShard* sh : r.shards) {
    for (auto& c : sh->counters) c.store(0, std::memory_order_relaxed);
    for (HistShard& h : sh->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      h.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    }
  }
}

}  // namespace spiketune::obs
