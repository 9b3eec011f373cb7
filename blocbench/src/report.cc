#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dsp/simd_dispatch.h"

namespace blocbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Environment the numbers depend on; results with different stamps are
/// not comparable (compare.py refuses them).
std::string StampJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : 0;
  namespace simd = bloc::dsp::simd;
  const char* force = std::getenv("BLOC_FORCE_ISA");
#ifdef BLOC_OBS_OFF
  const char* obs = "off";
#else
  const char* obs = "on";
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ", \"isa\": "
      << Quote(simd::IsaName(simd::Active().isa))
      << ", \"isa_unforced\": "
      << Quote(simd::IsaName(simd::ResolveIsa(nullptr, simd::BestSupported())))
      << ", \"force_isa\": " << Quote(force != nullptr ? force : "")
      << ", \"compiler\": " << Quote(std::string("gcc ") + __VERSION__)
      << ", \"build_type\": " << Quote(BLOCBENCH_BUILD_TYPE)
      << ", \"obs\": " << Quote(obs) << "}";
  return out.str();
}

}  // namespace

void Result::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  values_[name] = value;
}

void Result::Detail(const std::string& key, const std::string& json) {
  details_[key] = json;
}

void Result::Samples(const std::string& metric, std::size_t samples) {
  Detail(metric + ".samples", std::to_string(samples));
  Detail(metric + ".supported_percentile",
         Quote(SupportedPercentile(samples)));
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string Result::ResultLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    out << (first ? "" : ", ") << Quote(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

void Result::WriteRecord(const Options& options,
                         const std::string& path) const {
  std::ofstream out(path);
  out << "{\"workload\": " << Quote(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"stamp\": " << StampJson()
      << ", \"fingerprint\": " << Quote(fingerprint)
      << ", \"result\": " << ResultLine() << ", \"details\": {";
  bool first = true;
  for (const auto& [key, json] : details_) {
    out << (first ? "" : ", ") << Quote(key) << ": " << json;
    first = false;
  }
  out << "}}\n";
}

void LayerMetrics(const Trace& trace, Result& result) {
  const std::vector<Span>& spans = trace.spans();
  const std::vector<std::int64_t> self = SelfTimes(spans);

  std::map<std::string, std::vector<double>> durations_ns;
  for (const Span& s : spans) {
    durations_ns[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (const double d : durations_ns[name]) sum += d;
    return sum;
  };
  // name, metric prefix, ns per unit
  struct Timed {
    const char* span;
    const char* metric;
    double scale;
  };
  static const Timed kTimed[] = {
      {"bloc.filter", "bloc.filter_us", 1e3},
      {"bloc.correct", "bloc.correct_us", 1e3},
      {"bloc.anchor_map", "bloc.anchor_map_us", 1e3},
      {"bloc.fused_map", "bloc.fused_map_us", 1e3},
      {"bloc.score", "bloc.score_us", 1e3},
      {"bloc.round", "bloc.round_us", 1e3},
      {"engine.batch", "engine.batch_ms", 1e6},
      {"sim.round", "sim.round_ms", 1e6},
      {"net.send", "net.send_us", 1e3},
      {"serve.in_service", "serve.in_service_ms", 1e6},
      {"gen.late", "gen.late_ms", 1e6},
  };
  for (const Timed& t : kTimed) {
    const std::vector<double>& d = durations_ns[t.span];
    if (d.empty()) continue;
    const std::string m = t.metric;
    result.Set(m + ".p50", Percentile(d, 50) / t.scale);
    result.Set(m + ".p99", Percentile(d, 99) / t.scale);
    result.Samples(m, d.size());
  }
  if (!durations_ns["gen.late"].empty()) {
    const std::vector<double>& d = durations_ns["gen.late"];
    result.Set("gen.late_ms.max", *std::max_element(d.begin(), d.end()) / 1e6);
  }
  if (!durations_ns["net.collector"].empty()) {
    result.Set("net.collector_us",
               Percentile(durations_ns["net.collector"], 50) / 1e3);
  }
  if (!durations_ns["sim.setup"].empty()) {
    result.Set("sim.setup_ms", Percentile(durations_ns["sim.setup"], 50) / 1e6);
  }

  // Stage shares of the bloc round. The anchor-map spans time a separate
  // AnchorMapInto per anchor after the round (the fused map contains the
  // same work), so their share is a part of fused_map's, not added to it.
  const double bloc_round = total("bloc.round");
  if (bloc_round > 0.0) {
    for (const char* stage : {"filter", "correct", "anchor_map", "fused_map",
                              "score"}) {
      const std::string span = std::string("bloc.") + stage;
      result.Set(span + "_us.share", total(span.c_str()) / bloc_round);
    }
  }

  // Layer shares and coverage over the workload's "round" trees.
  std::vector<std::int32_t> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int32_t r = static_cast<std::int32_t>(i);
    while (spans[static_cast<std::size_t>(r)].parent >= 0) {
      r = spans[static_cast<std::size_t>(r)].parent;
    }
    root[i] = r;
  }
  double round_total = 0.0;
  double round_self = 0.0;
  std::map<std::string, double> layer_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& r = spans[static_cast<std::size_t>(root[i])];
    if (std::strcmp(r.name, "round") != 0) continue;
    if (root[i] == static_cast<std::int32_t>(i)) {
      round_total += static_cast<double>(r.end_ns - r.start_ns);
      round_self += static_cast<double>(self[i]);
    } else {
      layer_self[std::string(LayerOf(spans[i].name))] +=
          static_cast<double>(self[i]);
    }
  }
  if (round_total > 0.0) {
    result.Set("trace.coverage_pct", 100.0 * (1.0 - round_self / round_total));
    std::ostringstream shares;
    shares << "{";
    bool first = true;
    for (const auto& [layer, ns] : layer_self) {
      shares << (first ? "" : ", ") << Quote(layer) << ": "
             << JsonNumber(ns / round_total);
      first = false;
      result.Set(layer + ".share", ns / round_total);
    }
    shares << "}";
    result.Detail("layer_shares", shares.str());
    result.Detail("traced_rounds",
                  std::to_string(std::count_if(
                      spans.begin(), spans.end(), [](const Span& s) {
                        return s.parent < 0 && std::strcmp(s.name, "round") == 0;
                      })));
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fingerprint(const std::vector<bloc::geom::Vec2>& truths) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const bloc::geom::Vec2& p : truths) {
    mix(p.x);
    mix(p.y);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

}  // namespace blocbench
