// releases — reads one `motto serve` output file after a benchmark round and
// reports what was released and when.
//
//   releases OUTPUT FRAMES SEEN RATE T0 QUERY...
//
//   OUTPUT  the server's match file, lines "sink\tbegin\tend\tfingerprint"
//   FRAMES  the wire file the round sent (event timestamps)
//   SEEN    float64 pairs (time, output file size) from the watcher
//   RATE    events per second of the open-loop schedule
//   T0      time of the first write; event i was due at T0 + i / RATE
//   QUERY   the user queries; other sinks are counted but not timed
//
// Prints "count <sink> <lines>" per sink, then
// "latency <p50 ms> <p99 ms> <samples>". A line's latency runs from when the
// event that completed its match was due to the first observation of the
// file holding the whole line.
// Stream timestamps are strictly increasing, so the line's end timestamp
// names that event. Times are CLOCK_MONOTONIC seconds, as Python's
// time.monotonic() gives them.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// (time, value) pairs written by Python's array("d").tofile().
bool ReadPairs(const char* path, std::vector<double>* times,
               std::vector<double>* values) {
  std::string bytes;
  if (!ReadFile(path, &bytes) || bytes.size() % (2 * sizeof(double)) != 0) {
    return false;
  }
  const size_t n = bytes.size() / (2 * sizeof(double));
  for (size_t i = 0; i < n; ++i) {
    double pair[2];
    std::memcpy(pair, bytes.data() + i * sizeof(pair), sizeof(pair));
    times->push_back(pair[0]);
    values->push_back(pair[1]);
  }
  return true;
}

uint32_t U32(const std::string& b, size_t at) {
  uint32_t v = 0;
  for (int k = 3; k >= 0; --k) v = (v << 8) | static_cast<uint8_t>(b[at + k]);
  return v;
}

int64_t I64(const std::string& b, size_t at) {
  uint64_t v = 0;
  for (int k = 7; k >= 0; --k) v = (v << 8) | static_cast<uint8_t>(b[at + k]);
  return static_cast<int64_t>(v);
}

double Percentile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(sorted.size() - 1, rank)];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr,
                 "usage: releases OUTPUT FRAMES SEEN RATE T0 QUERY...\n");
    return 2;
  }
  std::string output, frames;
  std::vector<double> seen_t, seen_size;
  if (!ReadFile(argv[1], &output) || !ReadFile(argv[2], &frames) ||
      !ReadPairs(argv[3], &seen_t, &seen_size)) {
    std::fprintf(stderr, "releases: cannot read the inputs\n");
    return 2;
  }
  const double rate = std::strtod(argv[4], nullptr);
  const double t0 = std::strtod(argv[5], nullptr);
  if (!(rate > 0)) {
    std::fprintf(stderr, "releases: RATE must be positive\n");
    return 2;
  }
  const std::set<std::string> queries(argv + 6, argv + argc);

  // Event frames: [u32 len][u8 type = 3][u32 wire type][i64 ts]... [u32 crc].
  std::vector<int64_t> event_ts;
  for (size_t pos = 0; pos + 5 <= frames.size();) {
    const size_t next = pos + 4 + U32(frames, pos) + 4;
    if (next > frames.size()) break;
    if (frames[pos + 4] == 3 && pos + 17 <= frames.size()) {
      event_ts.push_back(I64(frames, pos + 9));
    }
    pos = next;
  }

  std::map<std::string, uint64_t> counts;
  std::vector<double> latencies;
  size_t pos = 0;
  while (pos < output.size()) {
    size_t eol = output.find('\n', pos);
    if (eol == std::string::npos) break;  // Torn last line: not released.
    const size_t tab1 = output.find('\t', pos);
    const size_t tab2 = output.find('\t', tab1 + 1);
    if (tab1 > eol || tab2 > eol) {
      std::fprintf(stderr, "releases: malformed line at byte %zu\n", pos);
      return 1;
    }
    const std::string sink = output.substr(pos, tab1 - pos);
    ++counts[sink];
    const double line_end = static_cast<double>(eol + 1);
    if (queries.count(sink) != 0) {
      const int64_t end_ts =
          std::strtoll(output.c_str() + tab2 + 1, nullptr, 10);
      const size_t index = static_cast<size_t>(
          std::lower_bound(event_ts.begin(), event_ts.end(), end_ts) -
          event_ts.begin());
      const size_t shown = static_cast<size_t>(
          std::lower_bound(seen_size.begin(), seen_size.end(), line_end) -
          seen_size.begin());
      if (index >= event_ts.size() || event_ts[index] != end_ts ||
          shown >= seen_t.size()) {
        std::fprintf(stderr, "releases: line at byte %zu names no event or "
                             "was never seen\n", pos);
        return 1;
      }
      const double due = t0 + static_cast<double>(index) / rate;
      latencies.push_back((seen_t[shown] - due) * 1000.0);
    }
    pos = eol + 1;
  }
  for (const auto& [sink, n] : counts) {
    std::printf("count %s %llu\n", sink.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::sort(latencies.begin(), latencies.end());
  if (latencies.empty()) {
    std::printf("latency 0 0 0\n");
  } else {
    std::printf("latency %.6f %.6f %zu\n", Percentile(latencies, 0.50),
                Percentile(latencies, 0.99), latencies.size());
  }
  return 0;
}
