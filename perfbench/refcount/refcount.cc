// refcount — per-query match counter kept apart from the engine.
//
//   refcount WORKLOAD.ccl STREAM.csv   prints "<query> <count>" per query, or
//                                      "<query> uncovered <reason>"
//   refcount --self-test               checks the counter on hand-built
//                                      streams with hand-computed counts
//
// It shares no code with src/: the CCL subset and the CSV stream are parsed
// here, and counts come from closed forms and dynamic programming instead of
// the engine's match enumeration. The rules are those of DESIGN.md §10.1:
// the SEQ order guard is strict, the window is inclusive
// (last.ts - first.ts <= w), there is one match per ordered assignment of
// arrivals, and DISJ emits once per arrival (windows do not apply to it).
//
// Covered shapes, which are every shape the workload generator emits:
//   SEQ(t1, ..., tk)              primitive leaves, repeats allowed
//   CONJ(t1 & ... & tk)           distinct primitive leaves
//   DISJ(t1 | ... | tk)           primitive leaves
//   SEQ(x, CONJ(a & ... & z))     nested level 2: one leaf, then a CONJ of
//                                 distinct primitive leaves
// Anything else (predicates, NEG, deeper nesting) is reported as uncovered.
// Counting assumes strictly increasing stream timestamps, which the stream
// generator guarantees and the loader checks.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Event {
  int type = 0;
  int64_t ts = 0;
};

struct Node {
  enum class Op { kLeaf, kSeq, kConj, kDisj, kOther };
  Op op = Op::kLeaf;
  std::string type;  // kLeaf
  bool predicated = false;
  std::vector<Node> children;
};

struct Query {
  std::string name;
  int64_t window_us = 0;
  Node pattern;
};

// --- CCL subset parser ---------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool ParseQuery(Query* out, std::string* error) {
    // [name ':'] SELECT * FROM <ident> MATCHING '[' <int> <unit> ':' expr ']'
    size_t save = pos_;
    std::string first = Ident();
    Skip();
    if (!first.empty() && Peek() == ':') {
      ++pos_;
      out->name = first;
    } else {
      pos_ = save;
    }
    if (!Keyword("SELECT") || !Expect('*') || !Keyword("FROM") ||
        Ident().empty() || !Keyword("MATCHING") || !Expect('[')) {
      return Fail("expected 'SELECT * FROM <stream> MATCHING ['", error);
    }
    Skip();
    size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(Byte(pos_))) ++pos_;
    if (start == pos_) return Fail("expected a window length", error);
    int64_t amount = std::strtoll(text_.substr(start, pos_ - start).c_str(),
                                  nullptr, 10);
    std::string unit = Ident();
    int64_t scale = 0;
    if (unit == "us" || unit == "micros") scale = 1;
    if (unit == "ms" || unit == "millis") scale = 1000;
    if (unit == "s" || unit == "sec" || unit == "secs" || unit == "seconds") {
      scale = 1000000;
    }
    if (unit == "m" || unit == "min" || unit == "mins" || unit == "minutes") {
      scale = 60000000;
    }
    if (scale == 0) return Fail("unknown window unit '" + unit + "'", error);
    out->window_us = amount * scale;
    if (!Expect(':')) return Fail("expected ':' after the window", error);
    if (!ParseExpr(&out->pattern, error)) return false;
    if (!Expect(']')) return Fail("expected ']'", error);
    Skip();
    if (pos_ != text_.size()) return Fail("trailing text", error);
    return true;
  }

 private:
  unsigned char Byte(size_t i) const {
    return static_cast<unsigned char>(text_[i]);
  }
  void Skip() {
    while (pos_ < text_.size() && std::isspace(Byte(pos_))) ++pos_;
  }
  char Peek() {
    Skip();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool Expect(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  std::string Ident() {
    Skip();
    size_t start = pos_;
    while (pos_ < text_.size() && (std::isalnum(Byte(pos_)) ||
                                   text_[pos_] == '_' || text_[pos_] == '.')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }
  bool Keyword(const char* word) {
    std::string ident = Ident();
    for (char& c : ident) c = static_cast<char>(std::toupper(c));
    return ident == word;
  }
  static bool Fail(const std::string& message, std::string* error) {
    if (error->empty()) *error = message;
    return false;
  }

  bool ParseExpr(Node* out, std::string* error) {
    std::string ident = Ident();
    if (ident.empty()) return Fail("expected an operator or event type", error);
    std::string upper = ident;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    if (Peek() != '(') {
      out->op = Node::Op::kLeaf;
      out->type = ident;
      if (Peek() == '[') {  // Operand predicate: skipped, marks uncovered.
        out->predicated = true;
        int depth = 0;
        do {
          if (text_[pos_] == '[') ++depth;
          if (text_[pos_] == ']') --depth;
          ++pos_;
        } while (pos_ < text_.size() && depth > 0);
      }
      return true;
    }
    ++pos_;  // '('
    char separator = ',';
    if (upper == "SEQ") {
      out->op = Node::Op::kSeq;
    } else if (upper == "CONJ") {
      out->op = Node::Op::kConj;
      separator = '&';
    } else if (upper == "DISJ") {
      out->op = Node::Op::kDisj;
      separator = '|';
    } else {
      out->op = Node::Op::kOther;
    }
    for (;;) {
      Node child;
      if (!ParseExpr(&child, error)) return false;
      out->children.push_back(std::move(child));
      char c = Peek();
      if (c == ')') {
        ++pos_;
        return true;
      }
      if (c != separator && c != ',') {
        return Fail(std::string("unexpected '") + c + "'", error);
      }
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool ParseWorkload(const std::string& text, std::vector<Query>* out,
                   std::string* error) {
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    size_t hash = line.find('#');  // Comment to end of line.
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Query query;
    query.name = "q";  // Unnamed queries are q1, q2, ... as in src/workload.
    query.name += std::to_string(out->size() + 1);
    Parser parser(line);
    std::string message;
    if (!parser.ParseQuery(&query, &message)) {
      *error = "workload line " + std::to_string(line_no) + ": " + message;
      return false;
    }
    out->push_back(std::move(query));
  }
  return true;
}

// --- Stream -----------------------------------------------------------------

struct Stream {
  std::map<std::string, int> type_ids;
  std::vector<Event> events;
  /// Timestamps of each type, ascending (index = type id).
  std::vector<std::vector<int64_t>> by_type;

  int TypeId(const std::string& name) const {
    auto it = type_ids.find(name);
    return it == type_ids.end() ? -1 : it->second;
  }
  /// False when `ts` does not follow the previous event strictly: with
  /// ties the closed forms below would have to break them by arrival
  /// order, so such streams are refused instead.
  bool Add(const std::string& name, int64_t ts) {
    if (!events.empty() && ts <= events.back().ts) return false;
    auto [it, fresh] =
        type_ids.emplace(name, static_cast<int>(type_ids.size()));
    if (fresh) by_type.emplace_back();
    events.push_back({it->second, ts});
    by_type[static_cast<size_t>(it->second)].push_back(ts);
    return true;
  }
  /// Events of `type` with timestamps in (lo, hi].
  uint64_t CountIn(int type, int64_t lo, int64_t hi) const {
    if (type < 0) return 0;
    const std::vector<int64_t>& ts = by_type[static_cast<size_t>(type)];
    auto first = std::upper_bound(ts.begin(), ts.end(), lo);
    auto last = std::upper_bound(first, ts.end(), hi);
    return static_cast<uint64_t>(last - first);
  }
};

bool LoadStream(const std::string& path, Stream* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.rfind("type,", 0) == 0) continue;
    size_t comma = line.find(',');
    if (comma == std::string::npos || comma == 0) {
      *error = "stream line " + std::to_string(line_no) + ": bad format";
      return false;
    }
    char* end = nullptr;
    int64_t ts = std::strtoll(line.c_str() + comma + 1, &end, 10);
    if (end == line.c_str() + comma + 1) {
      *error = "stream line " + std::to_string(line_no) + ": bad timestamp";
      return false;
    }
    if (!out->Add(line.substr(0, comma), ts)) {
      *error = "stream line " + std::to_string(line_no) +
               ": timestamps must be strictly increasing";
      return false;
    }
  }
  return true;
}

// --- Counting ---------------------------------------------------------------

bool IsPlainLeaf(const Node& node) {
  return node.op == Node::Op::kLeaf && !node.predicated;
}

bool AllPlainLeaves(const Node& node) {
  for (const Node& child : node.children) {
    if (!IsPlainLeaf(child)) return false;
  }
  return true;
}

bool DistinctLeaves(const Node& node) {
  for (size_t i = 0; i < node.children.size(); ++i) {
    for (size_t j = i + 1; j < node.children.size(); ++j) {
      if (node.children[i].type == node.children[j].type) return false;
    }
  }
  return true;
}

std::vector<int> LeafTypes(const Node& node, const Stream& stream) {
  std::vector<int> types;
  for (const Node& child : node.children) {
    types.push_back(stream.TypeId(child.type));
  }
  return types;
}

/// SEQ(t1..tk): chains e1 < ... < ek (strictly by timestamp) with
/// ts(ek) - ts(e1) <= w. Each live anchor e1 carries, per prefix length j,
/// the number of chains e1..ej; an event of type t_j extends every live
/// anchor's (j-1)-chains. Positions are visited last to first so one event
/// never extends a chain it just created.
uint64_t CountSeq(const std::vector<int>& types, int64_t window,
                  const Stream& stream) {
  const size_t k = types.size();
  struct Anchor {
    int64_t ts;
    std::vector<uint64_t> chains;  // chains[j] = chains of length j + 1.
  };
  std::deque<Anchor> live;
  uint64_t total = 0;
  for (const Event& event : stream.events) {
    while (!live.empty() && live.front().ts < event.ts - window) {
      live.pop_front();
    }
    for (size_t j = k; j-- > 1;) {
      if (types[j] != event.type) continue;
      for (Anchor& anchor : live) {
        if (j == k - 1) {
          total += anchor.chains[j - 1];
        } else {
          anchor.chains[j] += anchor.chains[j - 1];
        }
      }
    }
    if (types[0] == event.type) {
      if (k == 1) {
        ++total;
      } else {
        Anchor anchor{event.ts, std::vector<uint64_t>(k - 1, 0)};
        anchor.chains[0] = 1;
        live.push_back(std::move(anchor));
      }
    }
  }
  return total;
}

/// CONJ of distinct types: every combination has one earliest event, so
/// count, per event of an operand type, the product of the other operand
/// types' events in (ts, ts + w].
uint64_t CountConj(const std::vector<int>& types, int64_t window,
                   const Stream& stream) {
  uint64_t total = 0;
  for (const Event& event : stream.events) {
    auto self = std::find(types.begin(), types.end(), event.type);
    if (self == types.end()) continue;
    uint64_t product = 1;
    for (auto it = types.begin(); it != types.end() && product > 0; ++it) {
      if (it == self) continue;
      product *= stream.CountIn(*it, event.ts, event.ts + window);
    }
    total += product;
  }
  return total;
}

/// DISJ: one emission per arrival of any operand type (a type listed twice
/// still emits once per event).
uint64_t CountDisj(const std::vector<int>& types, const Stream& stream) {
  uint64_t total = 0;
  for (const Event& event : stream.events) {
    if (std::find(types.begin(), types.end(), event.type) != types.end()) {
      ++total;
    }
  }
  return total;
}

/// SEQ(x, CONJ(c1..cm)): the CONJ sub-match must start after x and, with
/// the inherited window, every constituent lies in (ts(x), ts(x) + w]. The
/// CONJ reads its own channel, so an x-typed event after x counts as a
/// fresh arrival for it.
uint64_t CountSeqOfConj(int leaf, const std::vector<int>& conj,
                        int64_t window, const Stream& stream) {
  uint64_t total = 0;
  for (const Event& event : stream.events) {
    if (event.type != leaf) continue;
    uint64_t product = 1;
    for (int type : conj) {
      product *= stream.CountIn(type, event.ts, event.ts + window);
      if (product == 0) break;
    }
    total += product;
  }
  return total;
}

/// Counts `query` over `stream`; false (with `reason`) when the query's
/// shape is outside what this counter covers.
bool Count(const Query& query, const Stream& stream, uint64_t* count,
           std::string* reason) {
  const Node& root = query.pattern;
  const int64_t w = query.window_us;
  if (root.op == Node::Op::kLeaf || root.op == Node::Op::kOther ||
      root.children.empty()) {
    *reason = "operator not covered";
    return false;
  }
  if (AllPlainLeaves(root)) {
    std::vector<int> types = LeafTypes(root, stream);
    switch (root.op) {
      case Node::Op::kSeq:
        *count = CountSeq(types, w, stream);
        return true;
      case Node::Op::kConj:
        if (!DistinctLeaves(root)) {
          *reason = "CONJ with a repeated type";
          return false;
        }
        *count = CountConj(types, w, stream);
        return true;
      case Node::Op::kDisj:
        *count = CountDisj(types, stream);
        return true;
      default:
        break;
    }
  }
  if (root.op == Node::Op::kSeq && root.children.size() == 2 &&
      IsPlainLeaf(root.children[0]) &&
      root.children[1].op == Node::Op::kConj &&
      AllPlainLeaves(root.children[1]) && DistinctLeaves(root.children[1])) {
    *count = CountSeqOfConj(stream.TypeId(root.children[0].type),
                            LeafTypes(root.children[1], stream), w, stream);
    return true;
  }
  *reason = "nesting shape not covered";
  return false;
}

// --- Self-test ----------------------------------------------------------------

int SelfTest() {
  struct Case {
    const char* what;
    const char* query;
    std::vector<std::pair<const char*, int64_t>> events;
    uint64_t expected;
  };
  const std::vector<Case> cases = {
      // SEQ order guard: B must come strictly after A. Only (A@1, B@3) and
      // (A@2, B@3) match; B@0 precedes every A. (Equal timestamps are
      // outside the counter's input domain; see the tie check below.)
      {"seq order guard", "SEQ(A, B)",
       {{"B", 0}, {"A", 1}, {"A", 2}, {"B", 3}}, 2},
      // Window is inclusive: B@10 is exactly w after A@0 and matches,
      // B@11 is one microsecond late.
      {"seq inclusive window", "SEQ(A, B)",
       {{"A", 0}, {"B", 10}, {"B", 11}}, 1},
      // Multiplicity: one match per ordered assignment. A A B B gives
      // 2 x 2 = 4 SEQ matches.
      {"seq multiplicity", "SEQ(A, B)",
       {{"A", 1}, {"A", 2}, {"B", 3}, {"B", 4}}, 4},
      // Three-step chains: A1 B2 B3 C4 gives (A1,B2,C4) and (A1,B3,C4).
      {"seq three steps", "SEQ(A, B, C)",
       {{"A", 1}, {"B", 2}, {"B", 3}, {"C", 4}}, 2},
      // Window counts from the first constituent: (A0,B5,C11) spans 11.
      {"seq window from first", "SEQ(A, B, C)",
       {{"A", 0}, {"B", 5}, {"C", 11}}, 0},
      // Repeated type: SEQ(A, A) over three A's is C(3,2) = 3 chains.
      {"seq repeated type", "SEQ(A, A)", {{"A", 1}, {"A", 2}, {"A", 3}}, 3},
      // CONJ ignores order: B before A matches too; each combination once.
      {"conj any order", "CONJ(A & B)", {{"B", 1}, {"A", 2}, {"B", 3}}, 2},
      // CONJ window is inclusive and spans the whole combination.
      {"conj inclusive window", "CONJ(A & B & C)",
       {{"A", 0}, {"B", 4}, {"C", 10}, {"C", 11}}, 1},
      // DISJ emits once per arrival and ignores the window.
      {"disj per arrival", "DISJ(A | B)",
       {{"A", 0}, {"C", 1}, {"B", 100}, {"A", 1000}}, 3},
      // DISJ(A | A) still emits once per A.
      {"disj repeated operand", "DISJ(A | A)", {{"A", 0}, {"A", 5}}, 2},
      // Nested: X then CONJ(A & B) strictly after X, all within w of X.
      // X@0: A@2,A@4 x B@3 = 2; X@5: none after with both types -> 0.
      {"nested seq of conj", "SEQ(X, CONJ(A & B))",
       {{"X", 0}, {"A", 2}, {"B", 3}, {"A", 4}, {"X", 5}, {"B", 11}}, 2},
      // Nested with the leaf type inside the CONJ: the CONJ reads its own
      // channel, so the later X arrival can fill its X operand.
      // X@0: X@1 x A@2 = 1; X@1: no later X -> 0.
      {"nested leaf type reused", "SEQ(X, CONJ(X & A))",
       {{"X", 0}, {"X", 1}, {"A", 2}}, 1},
  };
  int failures = 0;
  for (const Case& c : cases) {
    std::vector<Query> queries;
    std::string error;
    std::string text =
        std::string("t: SELECT * FROM s MATCHING [10 us : ") + c.query + "]";
    if (!ParseWorkload(text, &queries, &error) || queries.size() != 1) {
      std::printf("FAIL %s: parse: %s\n", c.what, error.c_str());
      ++failures;
      continue;
    }
    Stream stream;
    for (const auto& [type, ts] : c.events) {
      if (!stream.Add(type, ts)) {
        std::printf("FAIL %s: bad hand-built stream\n", c.what);
        ++failures;
      }
    }
    uint64_t count = 0;
    std::string reason;
    if (!Count(queries[0], stream, &count, &reason)) {
      std::printf("FAIL %s: uncovered: %s\n", c.what, reason.c_str());
      ++failures;
    } else if (count != c.expected) {
      std::printf("FAIL %s: counted %llu, expected %llu\n", c.what,
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(c.expected));
      ++failures;
    } else {
      std::printf("ok   %s\n", c.what);
    }
  }
  // Shapes outside the counter must be reported, never guessed.
  for (const char* uncovered :
       {"SEQ(A, NEG(B))", "SEQ(A[value > 1], B)", "CONJ(A & A)",
        "CONJ(A & SEQ(B, C))", "SEQ(X, CONJ(A & B), C)"}) {
    std::vector<Query> queries;
    std::string error;
    std::string text =
        std::string("t: SELECT * FROM s MATCHING [10 us : ") + uncovered + "]";
    Stream stream;
    stream.Add("A", 1);
    uint64_t count = 0;
    std::string reason;
    if (!ParseWorkload(text, &queries, &error) ||
        Count(queries[0], stream, &count, &reason)) {
      std::printf("FAIL %s should be uncovered\n", uncovered);
      ++failures;
    } else {
      std::printf("ok   uncovered %s (%s)\n", uncovered, reason.c_str());
    }
  }
  // A tie would make the SEQ guard and the CONJ "earliest event" ambiguous.
  {
    Stream stream;
    if (!stream.Add("A", 1) || stream.Add("B", 1)) {
      std::printf("FAIL equal timestamps must be refused\n");
      ++failures;
    } else {
      std::printf("ok   equal timestamps refused\n");
    }
  }
  std::printf("refcount self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  *ok = static_cast<bool>(in) || in.eof();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return SelfTest();
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: refcount WORKLOAD.ccl STREAM.csv | --self-test\n");
    return 2;
  }
  bool ok = false;
  std::string text = ReadFile(argv[1], &ok);
  if (!ok) {
    std::fprintf(stderr, "refcount: cannot read %s\n", argv[1]);
    return 2;
  }
  std::vector<Query> queries;
  std::string error;
  Stream stream;
  if (!ParseWorkload(text, &queries, &error) ||
      !LoadStream(argv[2], &stream, &error)) {
    std::fprintf(stderr, "refcount: %s\n", error.c_str());
    return 2;
  }
  for (const Query& query : queries) {
    uint64_t count = 0;
    std::string reason;
    if (Count(query, stream, &count, &reason)) {
      std::printf("%s %llu\n", query.name.c_str(),
                  static_cast<unsigned long long>(count));
    } else {
      std::printf("%s uncovered %s\n", query.name.c_str(), reason.c_str());
    }
  }
  return 0;
}
