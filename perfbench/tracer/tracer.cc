// tracer — the benchmark's traced run: calls each layer's public functions
// in-process, in the order `motto run` / `motto serve` call them, and times
// every call with spans recorded here (nothing inside the program is
// instrumented, and obs stays off).
//
//   tracer run|serve --workload=F.ccl --stream=F.csv --scenario=stock|dc
//                    --work-dir=DIR --rate=EVENTS_PER_S --trace-out=F.json
//                    [--shards=N --threads=N] [--frames=F.bin]   (serve)
//   tracer unshared --workload=F.ccl --stream=F.csv
//                (reference counts of the unshared plan, untimed)
//
// `run` traces the `motto run` pipeline of a run workload and `serve` the
// `motto serve` pipeline of the serve workload; each then also runs the
// other front end on the same inputs, untimed for the end-to-end figures,
// so every per-layer metric is a measurement on every workload.
// Spans stay in memory until the run ends, then go out as a Chrome
// trace-event file. A per-layer table of total and self time goes to
// stderr, and the last stdout line is one JSON object with the per-layer
// metrics and per-sink match counts, which perfbench/run.py checks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/sharded_executor.h"
#include "motto/nested.h"
#include "motto/optimizer.h"
#include "motto/rewriter.h"
#include "planner/plan_builder.h"
#include "planner/solver.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workload/data_gen.h"
#include "workload/io.h"

namespace motto::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// --- Spans --------------------------------------------------------------------

struct Span {
  std::string name;  ///< "<layer>.<call>"; the layer is the part before '.'.
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
};

class Recorder {
 public:
  int Begin(std::string name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), Clock::now(), {}, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = Clock::now();
    open_.pop_back();
    return Seconds(span);
  }
  /// A span measured by the caller (per-frame calls time themselves).
  void Add(std::string name, Clock::time_point start, Clock::time_point end) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), start, end, parent});
  }

  static double Seconds(const Span& span) {
    return std::chrono::duration<double>(span.end - span.start).count();
  }
  const std::vector<Span>& spans() const { return spans_; }

  Status WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return InternalError("cannot open " + path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
          << "\",\"cat\":\"" << Layer(span.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << Micros(span.start) << ",\"dur\":" << Micros(span.end) -
                                                     Micros(span.start)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return out ? Status::Ok() : InternalError("short write to " + path);
  }

  /// Per-layer and per-span-name total and self time. A span's self time is
  /// its duration minus what its children cover; a layer's total counts only
  /// spans whose parent is in another layer, so nesting is not counted twice.
  std::string LayerTable() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_time[static_cast<size_t>(span.parent)] += Seconds(span);
      }
    }
    struct Row {
      int count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Row> layers;
    std::map<std::string, Row> names;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::string layer = Layer(span.name);
      const double self = Seconds(span) - child_time[i];
      Row& by_name = names[span.name];
      ++by_name.count;
      by_name.total += Seconds(span);
      by_name.self += self;
      Row& by_layer = layers[layer];
      by_layer.self += self;
      if (span.parent < 0 ||
          Layer(spans_[static_cast<size_t>(span.parent)].name) != layer) {
        ++by_layer.count;
        by_layer.total += Seconds(span);
      }
    }
    std::ostringstream out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %8s %10s %10s\n", "layer / span",
                  "spans", "total_s", "self_s");
    out << line;
    for (const auto& [layer, row] : layers) {
      std::snprintf(line, sizeof(line), "%-28s %8d %10.4f %10.4f\n",
                    layer.c_str(), row.count, row.total, row.self);
      out << line;
      for (const auto& [name, span_row] : names) {
        if (Layer(name) != layer) continue;
        std::snprintf(line, sizeof(line), "  %-26s %8d %10.4f %10.4f\n",
                      name.c_str(), span_row.count, span_row.total,
                      span_row.self);
        out << line;
      }
    }
    return out.str();
  }

 private:
  static std::string Layer(const std::string& name) {
    return name.substr(0, name.find('.'));
  }
  long long Micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t - spans_.front().start)
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Every per-layer metric the benchmark declares; each workload reports the
/// full set.
const char* const kLayerMetrics[] = {
    "workload.stream_load_s",  "motto.rewrite_s",
    "motto.sharing_edges",     "planner.solve_s",
    "planner.plan_cost",       "planner.build_s",
    "planner.jqp_nodes",       "engine.create_s",
    "engine.run_s",            "engine.warm_run_s",
    "engine.events_per_s",     "engine.matches",
    "engine.single_run_s",     "engine.shard_speedup",
    "engine.shard_skew",       "serve.create_s",
    "serve.decode_s",          "serve.apply_s",
    "serve.checkpoint_s",      "serve.checkpoint_ms_p50",
    "serve.checkpoint_ms_p90", "serve.checkpoint_bytes",
    "serve.checkpoints",       "serve.released_lines",
    "serve.internal_lines",    "serve.generator_lag_ms_p99",
    "trace.total_s",
};

struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> counts;    ///< Sink -> matches.
  std::map<std::string, uint64_t> unshared;  ///< Sink -> matches, NA plan.
  std::vector<std::string> user_queries;
  uint64_t events = 0;
  uint64_t ingested = 0;
  std::vector<std::string> notes;

  std::string ToJson() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"metrics\":{";
    bool first = true;
    for (const char* name : kLayerMetrics) {
      auto it = metrics.find(name);
      out << (first ? "" : ",") << JsonString(name) << ":"
          << (it == metrics.end() ? 0.0 : it->second);
      first = false;
    }
    auto write_counts = [&out](const std::map<std::string, uint64_t>& m) {
      out << "{";
      bool first_count = true;
      for (const auto& [sink, count] : m) {
        out << (first_count ? "" : ",") << JsonString(sink) << ":" << count;
        first_count = false;
      }
      out << "}";
    };
    out << "},\"counts\":";
    write_counts(counts);
    out << ",\"unshared\":";
    write_counts(unshared);
    out << ",\"user_queries\":[";
    for (size_t i = 0; i < user_queries.size(); ++i) {
      out << (i == 0 ? "" : ",") << JsonString(user_queries[i]);
    }
    out << "],\"events\":" << events << ",\"ingested\":" << ingested
        << ",\"notes\":[";
    for (size_t i = 0; i < notes.size(); ++i) {
      out << (i == 0 ? "" : ",") << JsonString(notes[i]);
    }
    out << "]}";
    return out.str();
  }
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  return values[rank];
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "tracer: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void OrDie(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "tracer: %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

std::vector<std::string> QueryNames(const std::vector<Query>& queries) {
  std::vector<std::string> names;
  for (const Query& query : queries) names.push_back(query.name);
  return names;
}

/// Per-sink counts of the unshared plan (OptimizerMode::kNa), run by the
/// single-threaded Executor: sharing must not change results (DESIGN.md §3).
std::map<std::string, uint64_t> UnsharedCounts(
    const std::vector<Query>& queries, EventTypeRegistry registry,
    const StreamStats& stats, const EventStream& stream) {
  OptimizerOptions options;
  options.mode = OptimizerMode::kNa;
  Optimizer optimizer(&registry, stats, options);
  OptimizeOutcome outcome = OrDie(optimizer.Optimize(queries), "NA plan");
  Executor executor = OrDie(Executor::Create(outcome.jqp), "NA create");
  ExecutorOptions count_only;
  count_only.count_matches_only = true;
  RunResult run = OrDie(executor.Run(stream, count_only), "NA run");
  return {run.sink_counts.begin(), run.sink_counts.end()};
}

/// `tracer unshared`: the reference counts alone, for untraced runs.
int Unshared(int argc, char** argv) {
  EventTypeRegistry registry;
  Report report;
  std::vector<Query> queries = OrDie(
      LoadWorkloadFile(Flag(argc, argv, "workload", ""), &registry), "load");
  EventStream stream = OrDie(
      LoadStreamCsv(Flag(argc, argv, "stream", ""), &registry), "load stream");
  report.unshared =
      UnsharedCounts(queries, registry, ComputeStats(stream), stream);
  report.user_queries = QueryNames(queries);
  report.events = stream.size();
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

// --- motto run ----------------------------------------------------------------

/// The `motto run` pipeline (tools/motto_cli.cc RunWorkload, MOTTO mode),
/// with Optimizer::Optimize unrolled into the calls it makes. With
/// `primary`, this is the workload's own front end: its counts are the ones
/// checked, its CLI-path wall time is trace.total_s, and the plan is checked
/// against Optimizer::Optimize and the unshared plan.
void RunPipeline(const std::string& workload_path,
                 const std::string& stream_path, int shards, int threads,
                 bool primary, Recorder& rec, Report& report) {
  const Clock::time_point wall_start = Clock::now();

  EventTypeRegistry registry;
  int span = rec.Begin("workload.load_workload");
  std::vector<Query> queries =
      OrDie(LoadWorkloadFile(workload_path, &registry), "load workload");
  rec.End(span);
  span = rec.Begin("workload.load_stream");
  EventStream stream = OrDie(LoadStreamCsv(stream_path, &registry),
                             "load stream");
  report.metrics["workload.stream_load_s"] = rec.End(span);
  span = rec.Begin("workload.stats");
  StreamStats stats = ComputeStats(stream);
  rec.End(span);
  // The unshared reference (below) starts from this registry, before the
  // optimizer registers its composite types.
  const EventTypeRegistry pristine = registry;

  span = rec.Begin("motto.divide");
  CompositeCatalog catalog;
  std::vector<FlatQuery> flat =
      OrDie(DivideWorkload(queries, &registry, &catalog), "divide");
  rec.End(span);
  span = rec.Begin("motto.rewrite");
  CostModel cost_model(stats);
  SharingGraph graph = BuildSharingGraph(flat, RewriterOptions::Motto(),
                                         &registry, &catalog, &cost_model);
  report.metrics["motto.rewrite_s"] = rec.End(span);
  report.metrics["motto.sharing_edges"] =
      static_cast<double>(graph.edges.size());

  span = rec.Begin("planner.solve");
  PlanDecision decision = SelectPlan(graph, PlannerOptions{});
  report.metrics["planner.solve_s"] = rec.End(span);
  report.metrics["planner.plan_cost"] = decision.cost;
  if (!decision.exact) report.notes.push_back("solve: budget hit, not exact");

  span = rec.Begin("planner.build");
  PlanProvenance provenance;
  Jqp jqp = OrDie(BuildJqp(graph, decision, catalog, &registry, &provenance),
                  "build jqp");
  provenance.nodes.resize(jqp.nodes.size());
  AnnotateEvalOrders(&jqp, stats,
                     CalibrationMultipliers(jqp, provenance, graph, {}));
  report.metrics["planner.build_s"] = rec.End(span);
  report.metrics["planner.jqp_nodes"] = static_cast<double>(jqp.nodes.size());

  // Engine: the CLI's path (create + one run), then a warm second run.
  const ExecutorOptions exec_options;
  RunResult cold;
  RunResult warm;
  std::unique_ptr<ShardedExecutor> sharded;
  std::unique_ptr<Executor> single;
  span = rec.Begin("engine.create");
  if (shards > 1) {
    sharded = std::make_unique<ShardedExecutor>(
        OrDie(ShardedExecutor::Create(jqp, shards, threads), "create"));
  } else {
    single = std::make_unique<Executor>(OrDie(Executor::Create(jqp), "create"));
  }
  report.metrics["engine.create_s"] = rec.End(span);
  auto run_once = [&](const char* name, RunResult* out) {
    int id = rec.Begin(name);
    *out = sharded ? OrDie(sharded->Run(stream, exec_options), "run")
                   : OrDie(single->Run(stream, exec_options), "run");
    return rec.End(id);
  };
  report.metrics["engine.run_s"] = run_once("engine.run", &cold);
  const double cli_path_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  report.metrics["engine.warm_run_s"] = run_once("engine.warm_run", &warm);
  report.metrics["engine.events_per_s"] =
      static_cast<double>(stream.size()) / report.metrics["engine.run_s"];
  if (sharded) {
    // Single-threaded baseline of the same plan.
    Executor baseline = OrDie(Executor::Create(jqp), "create baseline");
    span = rec.Begin("engine.single_run");
    RunResult base = OrDie(baseline.Run(stream, exec_options), "run baseline");
    report.metrics["engine.single_run_s"] = rec.End(span);
    report.metrics["engine.shard_skew"] = warm.sharded.skew;
    if (base.sink_counts != cold.sink_counts) {
      report.notes.push_back("sharded and single-threaded counts differ");
    }
  } else {
    report.metrics["engine.single_run_s"] = report.metrics["engine.warm_run_s"];
    report.metrics["engine.shard_skew"] = 1.0;
  }
  report.metrics["engine.shard_speedup"] =
      report.metrics["engine.single_run_s"] /
      report.metrics["engine.warm_run_s"];
  if (warm.sink_counts != cold.sink_counts) {
    report.notes.push_back("warm run counts differ from the first run");
  }
  report.metrics["engine.matches"] = static_cast<double>(cold.TotalMatches());
  if (!primary) return;

  report.metrics["trace.total_s"] = cli_path_s;
  for (const auto& [sink, count] : cold.sink_counts) report.counts[sink] = count;
  report.user_queries = QueryNames(queries);
  report.events = stream.size();

  // Checks, outside the traced pipeline: the optimizer's own plan for the
  // same input, and the unshared plan's counts.
  {
    EventTypeRegistry check_registry = pristine;
    span = rec.Begin("check.optimize");
    Optimizer optimizer(&check_registry, stats);
    OptimizeOutcome outcome =
        OrDie(optimizer.Optimize(queries), "Optimizer::Optimize");
    rec.End(span);
    if (outcome.jqp.nodes.size() != jqp.nodes.size() ||
        outcome.planned_cost != decision.cost) {
      char note[200];
      std::snprintf(note, sizeof(note),
                    "plan drift: trace %zu nodes cost %.4f, "
                    "Optimizer::Optimize %zu nodes cost %.4f",
                    jqp.nodes.size(), decision.cost, outcome.jqp.nodes.size(),
                    outcome.planned_cost);
      report.notes.push_back(note);
    }
  }
  span = rec.Begin("check.unshared");
  report.unshared = UnsharedCounts(queries, pristine, stats, stream);
  rec.End(span);
}

// --- motto serve --------------------------------------------------------------

/// The `motto serve --stdin` pipeline (tools/motto_cli.cc Serve), minus the
/// reader thread and queue: frames are decoded chunk by chunk as the reader
/// thread would, then applied one by one. An OnFrame call that takes a
/// checkpoint (checkpoints_taken() moves) counts as checkpoint work. Event
/// frames are applied on the `rate` schedule; a frame's lag is how late its
/// OnFrame call started, so here it includes waiting out checkpoints
/// (perfbench/run.py replaces it on the serve workload with the lag of a
/// real generator thread). With `primary`, this is the workload's own front
/// end: its released counts are checked and its wall time is trace.total_s.
void ServePipeline(const std::string& workload_path, const std::string& bytes,
                   const std::string& scenario, const std::string& work_dir,
                   double rate, bool primary, Recorder& rec, Report& report) {
  const Clock::time_point wall_start = Clock::now();
  EventTypeRegistry registry;
  int span = rec.Begin("workload.load_workload");
  std::vector<Query> queries =
      OrDie(LoadWorkloadFile(workload_path, &registry), "load workload");
  rec.End(span);
  // The CLI's cost statistics without --stream: a synthetic 30k-event
  // stream of the scenario.
  span = rec.Begin("workload.stats");
  StreamOptions stats_options;
  stats_options.scenario =
      scenario == "dc" ? Scenario::kDataCenter : Scenario::kStockMarket;
  stats_options.num_events = 30000;
  StreamStats stats = ComputeStats(GenerateStream(stats_options, &registry));
  rec.End(span);

  serve::ServeOptions options;
  options.checkpoint_dir = (fs::path(work_dir) / "ckpt").string();
  options.out_dir = (fs::path(work_dir) / "out").string();
  span = rec.Begin("serve.create");
  std::unique_ptr<serve::ServeCore> core = OrDie(
      serve::ServeCore::Create(queries, registry, stats, options), "create");
  report.metrics["serve.create_s"] = rec.End(span);

  serve::FrameDecoder decoder;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  std::vector<double> lag_ms;
  double decode_s = 0.0;
  double apply_s = 0.0;
  uint64_t event_index = 0;
  constexpr size_t kChunk = 65536;  // The server's read size.
  size_t offset = 0;
  bool ended = false;
  const int ingest = rec.Begin("serve.ingest");
  const Clock::time_point schedule_start = Clock::now();
  std::vector<serve::Frame> frames;
  while (!ended && offset < bytes.size()) {
    const size_t n = std::min(kChunk, bytes.size() - offset);
    const Clock::time_point decode_start = Clock::now();
    decoder.Append(bytes.data() + offset, n);
    offset += n;
    frames.clear();
    serve::Frame frame;
    for (;;) {
      serve::FrameDecoder::Outcome outcome = decoder.Next(&frame);
      if (outcome == serve::FrameDecoder::Outcome::kNeedMore) break;
      if (outcome == serve::FrameDecoder::Outcome::kError) {
        std::fprintf(stderr, "tracer: decode: %s\n", decoder.error().c_str());
        std::exit(1);
      }
      frames.push_back(frame);
    }
    const Clock::time_point decode_end = Clock::now();
    rec.Add("serve.decode", decode_start, decode_end);
    decode_s += std::chrono::duration<double>(decode_end - decode_start).count();

    for (const serve::Frame& f : frames) {
      if (f.type == serve::FrameType::kEvent) {
        const Clock::time_point due =
            schedule_start +
            std::chrono::duration_cast<Clock::duration>(std::chrono::duration<
                double>(static_cast<double>(event_index) / rate));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        lag_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
        ++event_index;
      }
      if (f.type == serve::FrameType::kEnd) {
        ended = true;
        break;
      }
      const uint64_t taken = core->checkpoints_taken();
      const Clock::time_point start = Clock::now();
      OrDie(core->OnFrame(f), "OnFrame");
      const Clock::time_point end = Clock::now();
      const double seconds = std::chrono::duration<double>(end - start).count();
      if (core->checkpoints_taken() != taken) {
        rec.Add("serve.checkpoint", start, end);
        checkpoint_ms.push_back(seconds * 1000.0);
        std::error_code ec;
        const auto size = fs::file_size(
            fs::path(options.checkpoint_dir) /
                serve::CheckpointFileName(core->checkpoints_taken() - 1),
            ec);
        if (!ec) checkpoint_bytes.push_back(static_cast<double>(size));
      } else {
        apply_s += seconds;
      }
    }
  }
  rec.End(ingest);
  if (!ended) {
    std::fprintf(stderr, "tracer: frame file has no end frame\n");
    std::exit(1);
  }
  span = rec.Begin("serve.finish");
  OrDie(core->Finish(), "Finish");
  rec.End(span);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  double checkpoint_s = 0.0;
  for (double ms : checkpoint_ms) checkpoint_s += ms / 1000.0;
  report.metrics["serve.decode_s"] = decode_s;
  report.metrics["serve.apply_s"] = apply_s;
  report.metrics["serve.checkpoint_s"] = checkpoint_s;
  report.metrics["serve.checkpoint_ms_p50"] = Percentile(checkpoint_ms, 0.5);
  report.metrics["serve.checkpoint_ms_p90"] = Percentile(checkpoint_ms, 0.9);
  report.metrics["serve.checkpoint_bytes"] = Percentile(checkpoint_bytes, 0.5);
  report.metrics["serve.checkpoints"] =
      static_cast<double>(core->checkpoints_taken());
  report.metrics["serve.generator_lag_ms_p99"] = Percentile(lag_ms, 0.99);

  const std::vector<std::string> user_queries = QueryNames(queries);
  uint64_t released = 0;
  uint64_t internal = 0;
  for (const auto& [sink, count] : core->sink_released()) {
    released += count;
    if (std::find(user_queries.begin(), user_queries.end(), sink) ==
        user_queries.end()) {
      internal += count;
    }
  }
  report.metrics["serve.released_lines"] = static_cast<double>(released);
  report.metrics["serve.internal_lines"] = static_cast<double>(internal);
  if (!primary) return;

  report.metrics["trace.total_s"] = wall_s;
  report.counts.insert(core->sink_released().begin(),
                       core->sink_released().end());
  report.user_queries = user_queries;
  report.events = event_index;
  report.ingested = core->ingested();
}

// --- Entry point ----------------------------------------------------------------

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in && !in.eof()) {
    std::fprintf(stderr, "tracer: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return buf.str();
}

/// `tracer run` and `tracer serve`: the workload's own front end first
/// (primary), then the other front end on the same inputs, so every layer
/// reports real figures on every workload.
int Trace(int argc, char** argv, bool serve_workload) {
  const std::string workload = Flag(argc, argv, "workload", "");
  const std::string stream = Flag(argc, argv, "stream", "");
  const std::string scenario = Flag(argc, argv, "scenario", "stock");
  const std::string work_dir = Flag(argc, argv, "work-dir", "");
  const int shards = std::stoi(Flag(argc, argv, "shards", "1"));
  const int threads = std::stoi(Flag(argc, argv, "threads", "1"));
  const double rate = std::stod(Flag(argc, argv, "rate", "0"));
  if (!(rate > 0) || work_dir.empty()) {
    std::fprintf(stderr, "tracer: needs --rate > 0 and --work-dir\n");
    return 2;
  }
  Recorder rec;
  Report report;
  if (serve_workload) {
    ServePipeline(workload, ReadBytes(Flag(argc, argv, "frames", "")),
                  scenario, work_dir, rate, true, rec, report);
    RunPipeline(workload, stream, shards, threads, false, rec, report);
  } else {
    RunPipeline(workload, stream, shards, threads, true, rec, report);
    // Wire frames of the same stream (input preparation, not traced).
    EventTypeRegistry registry;
    const EventStream events = OrDie(LoadStreamCsv(stream, &registry), "load");
    ServePipeline(workload, serve::EncodeStream(events, registry), scenario,
                  work_dir, rate, false, rec, report);
  }
  OrDie(rec.WriteChromeTrace(Flag(argc, argv, "trace-out", "trace.json")),
        "write trace");
  std::fprintf(stderr, "%s", rec.LayerTable().c_str());
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace motto::perfbench

int main(int argc, char** argv) {
  const std::string verb = argc > 1 ? argv[1] : "";
  if (verb == "run") return motto::perfbench::Trace(argc, argv, false);
  if (verb == "serve") return motto::perfbench::Trace(argc, argv, true);
  if (verb == "unshared") return motto::perfbench::Unshared(argc, argv);
  std::fprintf(stderr, "usage: tracer run|serve|unshared --flag=value ...\n");
  return 2;
}
