#include "bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_common.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/threads.h"
#include "util/trace.h"

namespace stindex {
namespace bench {

BenchArgs ParseBenchArgs(int argc, char** argv, const std::string& bench_name,
                         const std::string& backends) {
  const bool accept_backend = !backends.empty();
  BenchArgs args;
  args.bench_name = bench_name;
  std::string threads_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads_flag = arg.substr(10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads_flag = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace_path = arg.substr(8);
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (arg.rfind("--buffer-pages=", 0) == 0 ||
               (arg == "--buffer-pages" && i + 1 < argc)) {
      const std::string value =
          arg == "--buffer-pages" ? argv[++i] : arg.substr(15);
      char* end = nullptr;
      const long pages = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || pages < 0) {
        std::fprintf(stderr,
                     "%s: --buffer-pages expects a non-negative page "
                     "count, got '%s'\n",
                     bench_name.c_str(), value.c_str());
        std::exit(2);
      }
      args.buffer_pages = static_cast<size_t>(pages);
    } else if (accept_backend && arg.rfind("--backend=", 0) == 0) {
      args.backend = arg.substr(10);
    } else if (accept_backend && arg == "--backend" && i + 1 < argc) {
      args.backend = argv[++i];
    } else if (accept_backend && arg.rfind("--db=", 0) == 0) {
      args.db_path = arg.substr(5);
    } else if (accept_backend && arg == "--db" && i + 1 < argc) {
      args.db_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (--threads=N, "
                   "--json=PATH, --trace=PATH, --buffer-pages=N%s)\n",
                   bench_name.c_str(), arg.c_str(),
                   accept_backend
                       ? (", --backend=" + backends + ", --db=DIR").c_str()
                       : "");
      std::exit(2);
    }
  }
  if (accept_backend &&
      ("|" + backends + "|").find("|" + args.backend + "|") ==
          std::string::npos) {
    std::fprintf(stderr, "%s: --backend must be one of %s, got '%s'\n",
                 bench_name.c_str(), backends.c_str(), args.backend.c_str());
    std::exit(2);
  }
  if (args.backend != "memory" && args.db_path.empty()) {
    std::fprintf(stderr, "%s: --backend=%s requires --db=DIR\n",
                 bench_name.c_str(), args.backend.c_str());
    std::exit(2);
  }
  const Result<int> threads = ResolveThreadCount(threads_flag);
  if (!threads.ok()) {
    std::fprintf(stderr, "%s: %s\n", bench_name.c_str(),
                 threads.status().ToString().c_str());
    std::exit(2);
  }
  args.threads = threads.value();
  // Start tracing here so index builds and the query phases all land in
  // the capture; FinishReport stops the session and writes the file.
  if (!args.trace_path.empty()) TraceSession::Start();
  return args;
}

BenchReport::Param* BenchReport::FindOrAddParam(const std::string& name) {
  for (Param& param : params_) {
    if (param.name == name) return &param;
  }
  params_.push_back(Param{});
  params_.back().name = name;
  return &params_.back();
}

BenchReport::Series& BenchReport::FindOrAddSeries(const std::string& name) {
  for (Series& series : series_) {
    if (series.name == name) return series;
  }
  series_.push_back(Series{});
  series_.back().name = name;
  return series_.back();
}

void BenchReport::SetParam(const std::string& name, const std::string& value) {
  Param* param = FindOrAddParam(name);
  param->kind = ParamKind::kString;
  param->string_value = value;
}

void BenchReport::SetParam(const std::string& name, int64_t value) {
  Param* param = FindOrAddParam(name);
  param->kind = ParamKind::kInt;
  param->int_value = value;
}

void BenchReport::SetParam(const std::string& name, double value) {
  Param* param = FindOrAddParam(name);
  param->kind = ParamKind::kDouble;
  param->double_value = value;
}

void BenchReport::AddSample(const std::string& series, double x, double y) {
  Point point;
  point.x = x;
  point.y = y;
  FindOrAddSeries(series).points.push_back(point);
}

void BenchReport::AddSample(const std::string& series,
                            const std::string& label, double y) {
  Point point;
  point.labeled = true;
  point.label = label;
  point.y = y;
  FindOrAddSeries(series).points.push_back(point);
}

void BenchReport::ResetForTest() {
  params_.clear();
  series_.clear();
}

namespace {

void WriteHistogramSnapshot(JsonWriter& json,
                            const HistogramSnapshot& snapshot) {
  json.BeginObject()
      .Key("count")
      .Uint(snapshot.count)
      .Key("sum")
      .Double(snapshot.sum)
      .Key("min")
      .Double(snapshot.min)
      .Key("max")
      .Double(snapshot.max)
      .Key("p50")
      .Double(snapshot.p50)
      .Key("p90")
      .Double(snapshot.p90)
      .Key("p95")
      .Double(snapshot.p95)
      .Key("p99")
      .Double(snapshot.p99)
      .EndObject();
}

}  // namespace

std::string BenchReport::ToJson(const std::string& bench_name,
                                int threads) const {
  MetricRegistry& registry = MetricRegistry::Global();
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(2);
  json.Key("bench").String(bench_name);
  json.Key("scale").String(GetScale().name);
  json.Key("threads").Int(threads);

  json.Key("params").BeginObject();
  for (const Param& param : params_) {
    json.Key(param.name);
    switch (param.kind) {
      case ParamKind::kString:
        json.String(param.string_value);
        break;
      case ParamKind::kInt:
        json.Int(param.int_value);
        break;
      case ParamKind::kDouble:
        json.Double(param.double_value);
        break;
    }
  }
  json.EndObject();

  json.Key("series").BeginArray();
  for (const Series& series : series_) {
    json.BeginObject().Key("name").String(series.name);
    json.Key("points").BeginArray();
    for (const Point& point : series.points) {
      json.BeginObject();
      if (point.labeled) {
        json.Key("label").String(point.label);
      } else {
        json.Key("x").Double(point.x);
      }
      json.Key("y").Double(point.y).EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray();

  // Query-time I/O totals, fed by the shared drivers in bench_common.
  const uint64_t accesses =
      registry.GetCounter("io.query.accesses")->Value();
  const uint64_t misses = registry.GetCounter("io.query.misses")->Value();
  json.Key("io")
      .BeginObject()
      .Key("accesses")
      .Uint(accesses)
      .Key("misses")
      .Uint(misses)
      .Key("hits")
      .Uint(accesses - misses)
      .Key("false_hits")
      .Uint(registry.GetCounter("io.query.false_hits")->Value())
      .EndObject();

  json.Key("latency_ms");
  const HistogramSnapshot latency =
      registry.GetHistogram("io.query.latency_ms")->Value().Snapshot();
  json.BeginObject()
      .Key("count")
      .Uint(latency.count)
      .Key("p50")
      .Double(latency.p50)
      .Key("p90")
      .Double(latency.p90)
      .Key("p95")
      .Double(latency.p95)
      .Key("p99")
      .Double(latency.p99)
      .Key("max")
      .Double(latency.max)
      .EndObject();

  const MetricsSnapshot metrics = registry.Snapshot();
  json.Key("metrics").BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : metrics.counters) {
    json.Key(name).Uint(value);
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : metrics.gauges) {
    json.Key(name).Int(value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, snapshot] : metrics.histograms) {
    json.Key(name);
    WriteHistogramSnapshot(json, snapshot);
  }
  json.EndObject();
  json.EndObject();  // metrics

  json.EndObject();
  return json.str();
}

BenchReport& Report() {
  static BenchReport* report = new BenchReport();
  return *report;
}

void FinishReport(const BenchArgs& args) {
  if (!args.trace_path.empty()) {
    TraceSession::Stop();
    const Status status = TraceSession::WriteChromeTrace(args.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.bench_name.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 TraceSession::CollectedEvents().size(),
                 args.trace_path.c_str());
  }
  if (args.json_path.empty()) return;
  const std::string document =
      Report().ToJson(args.bench_name, args.threads);
  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing\n",
                 args.bench_name.c_str(), args.json_path.c_str());
    std::exit(1);
  }
  out << document << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "%s: write to '%s' failed\n",
                 args.bench_name.c_str(), args.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
}

}  // namespace bench
}  // namespace stindex
