#include "analyze/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "analyze/passes.hpp"

namespace tracon::analyze {

namespace {

/// True when `text` contains a *valid* allow tag for `rule`:
/// TRACON_ANALYZE_ALLOW(rule): reason — reason non-empty, because a
/// suppression without a justification is indistinguishable from a
/// rubber stamp.
bool has_allow_tag(const std::string& text, const std::string& rule) {
  const std::string tag = "TRACON_ANALYZE_ALLOW(" + rule + ")";
  std::size_t at = text.find(tag);
  if (at == std::string::npos) return false;
  std::size_t rest = at + tag.size();
  while (rest < text.size() &&
         (text[rest] == ' ' || text[rest] == '\t')) {
    ++rest;
  }
  if (rest >= text.size() || text[rest] != ':') return false;
  ++rest;
  while (rest < text.size() &&
         (text[rest] == ' ' || text[rest] == '\t')) {
    ++rest;
  }
  return rest < text.size();  // at least one reason character
}

/// One rule and the pass that checks it, in pipeline order.
struct Pass {
  RuleInfo info;
  void (*run)(const Project&, Reporter&);
};

const std::vector<Pass>& pipeline() {
  static const std::vector<Pass> kPasses = {
      {{"layering",
        "module includes must follow the layer DAG (no upward or "
        "same-layer cross edges, no include cycles)"},
       pass_layering},
      {{"mutable-global",
        "no non-const namespace-scope variables or non-const static "
        "locals in src/"},
       pass_mutable_global},
      {{"determinism-taint",
        "no nondeterminism source (wall clock, global RNG, environment, "
        "unordered iteration, pointer-keyed ordering, thread identity) "
        "may share a translation unit with an emitter (src/obs, "
        "src/replay, src/runstore, src/migrate)"},
       pass_determinism_taint},
      {{"parallel-discipline",
        "parallel_for bodies may mutate by-reference captures only "
        "through shard indexing or local declarations"},
       pass_parallel_discipline},
      {{"determinism",
        "no RNG/wall-clock calls in sim, virt, sched, migrate, obs, "
        "replay, runstore (except the scope-timer profiler)"},
       pass_determinism},
      {{"unordered-output",
        "no std::unordered_* in replay/runstore/migrate or the "
        "decision-log/attribution/span-log/breakdown writers (serialized "
        "bytes must not depend on hash order)"},
       pass_unordered_output},
      {{"float-eq",
        "no ==/!= against floating-point literals outside src/stats"},
       pass_float_eq},
      {{"iostream", "library code logs through util/log, not iostream"},
       pass_iostream},
      {{"pragma-once", "headers open with #pragma once"}, pass_pragma_once},
      {{"include-order",
        "own header first, then <system>, then \"project\", each sorted"},
       pass_include_order},
      {{"require-guard",
        "argument-taking constructors validate with TRACON_REQUIRE"},
       pass_require_guard},
      {{"metric-name",
        "metric/scope/event name literals are dotted snake_case paths"},
       pass_metric_name},
      {{"raw-thread",
        "raw threading primitives quarantined to src/util/, "
        "src/sim/shard_*, and src/obs/scope_timer"},
       pass_raw_thread},
  };
  return kPasses;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = [] {
    std::vector<RuleInfo> rules;
    for (const Pass& pass : pipeline()) rules.push_back(pass.info);
    return rules;
  }();
  return kRules;
}

Project::Project(std::vector<SourceFile> files) {
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  files_.reserve(files.size());
  for (SourceFile& f : files) {
    FileIndex fi;
    fi.path = std::move(f.path);
    fi.module = module_of(fi.path);
    fi.ts = tokenize(f.content);
    const std::vector<Token>& toks = fi.ts.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kPunct && toks[i].text == "#" &&
          toks[i + 1].kind == TokKind::kIdentifier &&
          toks[i + 1].text == "include" &&
          toks[i + 2].kind == TokKind::kString) {
        fi.includes.push_back({toks[i + 2].text, toks[i + 2].line});
      }
    }
    files_.push_back(std::move(fi));
  }

  std::vector<std::string> paths;
  std::vector<std::vector<QuotedInclude>> quoted;
  paths.reserve(files_.size());
  quoted.reserve(files_.size());
  for (const FileIndex& fi : files_) {
    paths.push_back(fi.path);
    quoted.push_back(fi.includes);
  }
  graph_ = IncludeGraph::build(paths, quoted);
}

std::size_t Project::index_of(const std::string& path) const {
  auto it = std::lower_bound(
      files_.begin(), files_.end(), path,
      [](const FileIndex& f, const std::string& p) { return f.path < p; });
  if (it != files_.end() && it->path == path) {
    return static_cast<std::size_t>(it - files_.begin());
  }
  return files_.size();
}

bool Project::suppressed(std::size_t file, const std::string& rule,
                         std::size_t line) const {
  if (file >= files_.size()) return false;
  // A tag suppresses findings on its own line, or — so a multi-line
  // justification can precede the code — anywhere in the contiguous
  // comment block ending on the line above the finding.
  std::vector<bool> commented;
  for (const CommentLine& c : files_[file].ts.comments) {
    if (c.line >= commented.size()) commented.resize(c.line + 1, false);
    commented[c.line] = true;
  }
  auto is_comment = [&](std::size_t l) {
    return l < commented.size() && commented[l];
  };
  for (const CommentLine& c : files_[file].ts.comments) {
    if (!has_allow_tag(c.text, rule)) continue;
    if (c.line == line) return true;
    if (c.line >= line) continue;
    bool contiguous = true;
    for (std::size_t l = c.line; contiguous && l + 1 < line; ) {
      ++l;
      contiguous = is_comment(l);
    }
    if (contiguous) return true;
  }
  return false;
}

void Reporter::report(std::size_t file, std::size_t line,
                      const std::string& rule, std::string message) {
  if (project_.suppressed(file, rule, line)) {
    ++suppressed_;
    return;
  }
  findings_.push_back(
      {project_.files()[file].path, line, rule, std::move(message)});
}

std::vector<Finding> Reporter::take_findings() {
  return std::move(findings_);
}

AnalysisResult run_passes(const Project& project,
                          const std::vector<std::string>& rules) {
  Reporter reporter(project);
  for (const Pass& pass : pipeline()) {
    if (rules.empty() ||
        std::find(rules.begin(), rules.end(), pass.info.name) != rules.end()) {
      pass.run(project, reporter);
    }
  }

  AnalysisResult result;
  result.suppressed = reporter.suppressed_count();
  result.files_scanned = project.files().size();
  result.findings = reporter.take_findings();
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return std::tie(a.file, a.line, a.rule, a.message) ==
                           std::tie(b.file, b.line, b.rule, b.message);
                  }),
      result.findings.end());
  return result;
}

std::vector<SourceFile> load_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools", "bench", "tests"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back(
          {fs::relative(entry.path(), root).generic_string(), buf.str()});
    }
  }
  return files;  // Project() sorts
}

std::string render_text(const AnalysisResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  out += "tracon_analyze: " + std::to_string(result.findings.size()) +
         " finding(s), " + std::to_string(result.suppressed) +
         " suppressed, " + std::to_string(result.files_scanned) +
         " files\n";
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_json(const AnalysisResult& result) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"tracon.analyze_report/1\",\n";
  out += "  \"tool\": {\"name\": \"tracon_analyze\", \"version\": 1},\n";
  out += "  \"rules\": [\n";
  const std::vector<RuleInfo>& rules = rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "    {\"name\": \"" + json_escape(rules[i].name) +
           "\", \"summary\": \"" + json_escape(rules[i].summary) + "\"}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out += "    {\"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\"}";
    out += i + 1 < result.findings.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"summary\": {\"files\": " +
         std::to_string(result.files_scanned) +
         ", \"findings\": " + std::to_string(result.findings.size()) +
         ", \"suppressed\": " + std::to_string(result.suppressed) + "}\n";
  out += "}\n";
  return out;
}

}  // namespace tracon::analyze
