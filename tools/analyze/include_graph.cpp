#include "analyze/include_graph.hpp"

#include <algorithm>
#include <map>

namespace tracon::analyze {

namespace {

/// "src/sim/x.cpp" -> "sim"; "tools/analyze/x.cpp" -> "tools".
std::string dir_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Lexically normalizes "a/b/../c" and "a/./c" (enough for sibling
/// includes; the tree never spells anything fancier).
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  auto flush = [&] {
    if (cur.empty() || cur == ".") {
      cur.clear();
      return;
    }
    if (cur == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else {
      parts.push_back(cur);
    }
    cur.clear();
  };
  for (char c : path) {
    if (c == '/') {
      flush();
    } else {
      cur += c;
    }
  }
  flush();
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

}  // namespace

std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) == 0) {
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return std::string();
    return path.substr(4, slash - 4);
  }
  for (const char* root : {"tools", "tests", "bench", "examples"}) {
    std::string prefix = std::string(root) + "/";
    if (path.rfind(prefix, 0) == 0) return root;
  }
  return std::string();
}

int layer_rank(const std::string& module) {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},     {"obs", 1},      {"stats", 2},    {"virt", 2},
      {"workload", 3}, {"monitor", 3},  {"model", 4},    {"sched", 5},
      {"migrate", 6},  {"sim", 7},      {"replay", 8},   {"runstore", 8},
      {"core", 9},     {"tools", 10},   {"bench", 10},   {"examples", 10},
      {"tests", 11},
  };
  auto it = kRanks.find(module);
  return it == kRanks.end() ? -1 : it->second;
}

IncludeGraph IncludeGraph::build(
    const std::vector<std::string>& paths,
    const std::vector<std::vector<QuotedInclude>>& quoted) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < paths.size(); ++i) index[paths[i]] = i;

  IncludeGraph g;
  g.edges_.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string dir = dir_of(paths[i]);
    for (const QuotedInclude& inc : quoted[i]) {
      // Quoted-include resolution order: includer's directory, then
      // the two -I roots the build configures (src/, tools/).
      std::size_t to = paths.size();
      for (const std::string& candidate :
           {dir.empty() ? inc.path : normalize(dir + "/" + inc.path),
            "src/" + inc.path, "tools/" + inc.path}) {
        auto it = index.find(candidate);
        if (it != index.end()) {
          to = it->second;
          break;
        }
      }
      if (to == paths.size()) continue;  // system or generated header
      g.edges_[i].push_back({to, inc.line, inc.path});
    }
  }
  return g;
}

std::vector<std::size_t> IncludeGraph::reachable(std::size_t root) const {
  std::vector<bool> seen(edges_.size(), false);
  std::vector<std::size_t> stack = {root};
  seen[root] = true;
  while (!stack.empty()) {
    std::size_t at = stack.back();
    stack.pop_back();
    for (const IncludeEdge& e : edges_[at]) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<std::size_t>> IncludeGraph::cycles() const {
  // Iterative Tarjan SCC. Node order is the (sorted) file order, so
  // component discovery — and therefore output — is deterministic.
  const std::size_t n = edges_.size();
  const std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnvisited), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> scc_stack;
  std::size_t next_index = 0;
  std::vector<std::vector<std::size_t>> components;

  struct Frame {
    std::size_t node;
    std::size_t edge;  // next out-edge to explore
  };

  for (std::size_t start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    std::vector<Frame> frames = {{start, 0}};
    index[start] = low[start] = next_index++;
    scc_stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < edges_[f.node].size()) {
        std::size_t to = edges_[f.node][f.edge].to;
        ++f.edge;
        if (index[to] == kUnvisited) {
          index[to] = low[to] = next_index++;
          scc_stack.push_back(to);
          on_stack[to] = true;
          frames.push_back({to, 0});
        } else if (on_stack[to]) {
          low[f.node] = std::min(low[f.node], index[to]);
        }
        continue;
      }
      // Node finished.
      if (low[f.node] == index[f.node]) {
        std::vector<std::size_t> comp;
        for (;;) {
          std::size_t m = scc_stack.back();
          scc_stack.pop_back();
          on_stack[m] = false;
          comp.push_back(m);
          if (m == f.node) break;
        }
        bool self_loop = false;
        for (const IncludeEdge& e : edges_[f.node]) {
          if (e.to == f.node) self_loop = true;
        }
        if (comp.size() > 1 || self_loop) {
          std::sort(comp.begin(), comp.end());
          components.push_back(std::move(comp));
        }
      }
      std::size_t done = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
  std::sort(components.begin(), components.end());
  return components;
}

}  // namespace tracon::analyze
