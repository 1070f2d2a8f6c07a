// Tests for tracon_analyze (tools/analyze): the tokenizer, the include
// graph, and every pass, driven on in-memory fixture trees. Every rule
// gets a seeded-violation fixture and a known-clean fixture; the
// suppression syntax, rule filtering, and the JSON report shape are
// covered here too, so the "analyzer is clean over this repo" ctest
// entry stays an end-to-end check rather than the only line of
// defense.
#include "analyze/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tracon::analyze {
namespace {

AnalysisResult analyze(std::vector<SourceFile> files,
                       std::vector<std::string> rules = {}) {
  Project project(std::move(files));
  return run_passes(project, rules);
}

std::size_t count_rule(const AnalysisResult& r, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------- tokenizer

TEST(Tokenizer, CommentsAndStringsAreNotCode) {
  TokenStream ts = tokenize(
      "int a; // trailing rand()\n"
      "/* block rand() */ int b;\n"
      "const char* s = \"rand()\";\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "rand") << "source text leaked out of comment/string";
  }
  ASSERT_EQ(ts.comments.size(), 2u);
  EXPECT_EQ(ts.comments[0].line, 1u);
  EXPECT_EQ(ts.comments[1].line, 2u);
}

TEST(Tokenizer, RawStringsSwallowTheirContent) {
  TokenStream ts = tokenize(
      "auto j = R\"json({\"time\": \"clock()\"})json\";\n"
      "int after = 1;\n");
  std::size_t strings = 0;
  for (const Token& t : ts.tokens) {
    if (t.kind == TokKind::kString) ++strings;
    EXPECT_NE(t.text, "clock");
  }
  EXPECT_EQ(strings, 1u);
  // The tokenizer must resync: `after` is real code on line 2.
  bool saw_after = false;
  for (const Token& t : ts.tokens) {
    saw_after = saw_after || (t.text == "after" && t.line == 2);
  }
  EXPECT_TRUE(saw_after);
}

TEST(Tokenizer, DirectiveTokensAreMarked) {
  TokenStream ts = tokenize(
      "#define HELPER(x) static int slot_##x = 0\n"
      "int real_code;\n");
  for (const Token& t : ts.tokens) {
    if (t.line == 1) {
      EXPECT_TRUE(t.directive) << t.text;
    }
    if (t.text == "real_code") {
      EXPECT_FALSE(t.directive);
    }
  }
}

// ------------------------------------------------------------------ layering

TEST(Layering, SeededUpwardIncludeIsCaught) {
  // util (layer 0) reaching into sim (layer 6) is exactly the kind of
  // inversion the DAG forbids.
  AnalysisResult r = analyze({
      {"src/util/helper.hpp", "#include \"sim/engine.hpp\"\n"},
      {"src/sim/engine.hpp", "#pragma once\n"},
  });
  ASSERT_EQ(count_rule(r, "layering"), 1u);
  EXPECT_EQ(r.findings[0].file, "src/util/helper.hpp");
  EXPECT_EQ(r.findings[0].line, 1u);
  EXPECT_NE(r.findings[0].message.find("upward include"), std::string::npos);
}

TEST(Layering, DownwardAndSameModuleAreClean) {
  AnalysisResult r = analyze({
      {"src/sim/engine.hpp", "#include \"util/helper.hpp\"\n"
                             "#include \"sim/other.hpp\"\n"},
      {"src/sim/other.hpp", "#pragma once\n"},
      {"src/util/helper.hpp", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(r, "layering"), 0u);
}

TEST(Layering, SameLayerCrossIncludeIsCaught) {
  // stats and virt both sit at layer 2; neither may include the other.
  AnalysisResult r = analyze({
      {"src/stats/fit.hpp", "#include \"virt/host.hpp\"\n"},
      {"src/virt/host.hpp", "#pragma once\n"},
  });
  ASSERT_EQ(count_rule(r, "layering"), 1u);
  EXPECT_NE(r.findings[0].message.find("same-layer"), std::string::npos);
}

TEST(Layering, IncludeCycleIsCaught) {
  AnalysisResult r = analyze({
      {"src/sim/a.hpp", "#include \"sim/b.hpp\"\n"},
      {"src/sim/b.hpp", "#include \"sim/a.hpp\"\n"},
  });
  ASSERT_EQ(count_rule(r, "layering"), 1u);
  EXPECT_NE(r.findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("src/sim/a.hpp"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("src/sim/b.hpp"), std::string::npos);
}

TEST(Layering, TestsMayIncludeTools) {
  AnalysisResult r = analyze({
      {"tests/test_thing.cpp", "#include \"analyze/analysis.hpp\"\n"},
      {"tools/analyze/analysis.hpp", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(r, "layering"), 0u);
}

// ------------------------------------------------------------ mutable-global

TEST(MutableGlobal, SeededNamespaceScopeVariableIsCaught) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "int g_counter = 0;\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(r, "mutable-global"), 1u);
  EXPECT_EQ(r.findings[0].line, 2u);
  EXPECT_NE(r.findings[0].message.find("g_counter"), std::string::npos);
}

TEST(MutableGlobal, ConstAndFunctionsAreClean) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "const int kLimit = 8;\n"
       "constexpr double kPi = 3.14;\n"
       "int compute(int x) { int local = x; return local; }\n"
       "int declared(int x);\n"
       "struct Config { int field = 1; };\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 0u);
}

TEST(MutableGlobal, DefaultArgumentBracesDoNotConfuseTheScan) {
  // Regression: `= {}` default arguments inside a multi-line function
  // declaration once pushed a phantom initializer scope and flagged the
  // trailing parameter.
  AnalysisResult r = analyze({
      {"src/sched/api.hpp",
       "namespace tracon {\n"
       "struct Policy {};\n"
       "int best_slot(int task,\n"
       "              const Policy& policy = {},\n"
       "              bool exclude_empty = false);\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 0u);
}

TEST(MutableGlobal, SeededMutableStaticLocalIsCaught) {
  AnalysisResult r = analyze({
      {"src/model/cache.cpp",
       "namespace tracon {\n"
       "int counter() {\n"
       "  static int calls = 0;\n"
       "  return ++calls;\n"
       "}\n"
       "const int& limit() {\n"
       "  static const int kLimit = 42;\n"
       "  return kLimit;\n"
       "}\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(r, "mutable-global"), 1u);
  EXPECT_EQ(r.findings[0].line, 3u);
}

TEST(MutableGlobal, OnlySrcIsInScope) {
  AnalysisResult r = analyze({
      {"tools/widget/main.cpp", "namespace w {\nint g_flag = 0;\n}\n"},
      {"tests/test_widget.cpp", "namespace w {\nint g_flag = 0;\n}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 0u);
}

// -------------------------------------------------------- determinism-taint

TEST(DeterminismTaint, SourceReachingEmitterIsCaught) {
  // model/sample.hpp uses rand(); obs/export.cpp (an emitter TU)
  // includes it — the include graph proves the taint can reach output.
  AnalysisResult r = analyze({
      {"src/model/sample.hpp", "inline int pick() { return rand(); }\n"},
      {"src/obs/export.cpp", "#include \"model/sample.hpp\"\n"},
  });
  ASSERT_EQ(count_rule(r, "determinism-taint"), 1u);
  EXPECT_EQ(r.findings[0].file, "src/model/sample.hpp");
  EXPECT_NE(r.findings[0].message.find("rand()"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("src/obs/export.cpp"),
            std::string::npos);
}

TEST(DeterminismTaint, SourceWithNoEmitterPathIsClean) {
  // Same source, but no translation unit joins it with obs/replay/
  // runstore code — nothing replay-checked can observe it.
  AnalysisResult r = analyze({
      {"src/model/sample.hpp", "inline int pick() { return rand(); }\n"},
      {"src/model/solo.cpp", "#include \"model/sample.hpp\"\n"},
  });
  EXPECT_EQ(count_rule(r, "determinism-taint"), 0u);
}

TEST(DeterminismTaint, UnorderedContainerInEmitterModuleIsCaught) {
  AnalysisResult r = analyze({
      {"src/obs/metrics2.cpp",
       "#include <unordered_map>\n"
       "std::unordered_map<int, int> m;\n"},
  });
  EXPECT_EQ(count_rule(r, "determinism-taint"), 1u);
}

TEST(DeterminismTaint, MemberNamedTimeIsClean) {
  // `w.time()` and a field named time must not fire: only call syntax
  // on the free identifier counts.
  AnalysisResult r = analyze({
      {"src/obs/window.cpp",
       "struct W { double time; double clock() { return 0; } };\n"
       "double f(W& w) { return w.time + w.clock(); }\n"
       "double g() { std::time_t t{}; return static_cast<double>(t); }\n"},
  });
  EXPECT_EQ(count_rule(r, "determinism-taint"), 0u);
}

TEST(DeterminismTaint, PointerKeyedMapInEmitterIsCaught) {
  AnalysisResult r = analyze({
      {"src/obs/registry.cpp",
       "#include <map>\n"
       "std::map<const char*, int> by_addr;\n"
       "std::map<int, const char*> by_id;\n"},
  });
  // Pointer key fires; pointer value does not.
  EXPECT_EQ(count_rule(r, "determinism-taint"), 1u);
}

// ------------------------------------------------------ parallel-discipline

TEST(ParallelDiscipline, SeededUnguardedMutationIsCaught) {
  AnalysisResult r = analyze({
      {"src/sim/runner.cpp",
       "void run() {\n"
       "  int total = 0;\n"
       "  parallel_for(4, 100, [&](std::size_t i) {\n"
       "    total += work(i);\n"
       "  });\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(r, "parallel-discipline"), 1u);
  EXPECT_EQ(r.findings[0].line, 4u);
  EXPECT_NE(r.findings[0].message.find("total"), std::string::npos);
}

TEST(ParallelDiscipline, ShardIndexedWritesAreClean) {
  AnalysisResult r = analyze({
      {"src/sim/runner.cpp",
       "void run(std::vector<Out>& out) {\n"
       "  parallel_for(4, out.size(), [&](std::size_t i) {\n"
       "    out[i].value = work(i);\n"
       "    out[i].log.push_back(i);\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "parallel-discipline"), 0u);
}

TEST(ParallelDiscipline, LocalsAndParamsAreClean) {
  AnalysisResult r = analyze({
      {"src/sim/runner.cpp",
       "void run() {\n"
       "  parallel_for(4, 100, [&](std::size_t i) {\n"
       "    int acc = 0;\n"
       "    acc += static_cast<int>(i);\n"
       "    i += 0;\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "parallel-discipline"), 0u);
}

TEST(ParallelDiscipline, MutatingMethodOnSharedCaptureIsCaught) {
  AnalysisResult r = analyze({
      {"src/sim/runner.cpp",
       "void run(std::vector<int>& log) {\n"
       "  parallel_for(4, 100, [&log](std::size_t i) {\n"
       "    log.push_back(static_cast<int>(i));\n"
       "  });\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(r, "parallel-discipline"), 1u);
  EXPECT_NE(r.findings[0].message.find("push_back"), std::string::npos);
}

TEST(ParallelDiscipline, IncrementOfSharedCaptureIsCaught) {
  AnalysisResult r = analyze({
      {"src/sim/runner.cpp",
       "void run() {\n"
       "  std::size_t done = 0;\n"
       "  parallel_for(4, 100, [&](std::size_t i) { ++done; });\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "parallel-discipline"), 1u);
}

// ---------------------------------------------------------- convention rules
//
// The nine per-file rules (pass_conventions.cpp), each run on a single
// file at a path that selects its scope.

const std::vector<std::string> kConventionRules = {
    "determinism",   "unordered-output", "float-eq",
    "iostream",      "pragma-once",      "include-order",
    "require-guard", "metric-name",      "raw-thread"};

std::vector<Finding> check_file(const std::string& path,
                          const std::string& content) {
  return analyze({{path, content}}, kConventionRules).findings;
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(Determinism, CatchesRandAndClocks) {
  auto findings = check_file(
      "src/sim/bad.cpp",
      "#include \"sim/bad.hpp\"\n\nvoid f() {\n  int x = rand();\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  std::random_device rd;\n}\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "determinism"), 3);
}

TEST(Determinism, OnlyFiresInSimVirtSched) {
  const std::string body =
      "#include \"util/bad.hpp\"\n\nint f() { return rand(); }\n";
  EXPECT_TRUE(has_rule(check_file("src/virt/bad.cpp", body), "determinism"));
  EXPECT_TRUE(has_rule(check_file("src/sched/bad.cpp", body), "determinism"));
  EXPECT_FALSE(has_rule(check_file("src/util/bad.cpp", body), "determinism"));
}

TEST(Determinism, CoversReplayAndRunstore) {
  const std::string body =
      "#include \"replay/bad.hpp\"\n\nint f() { return rand(); }\n";
  EXPECT_TRUE(
      has_rule(check_file("src/replay/bad.cpp", body), "determinism"));
  EXPECT_TRUE(
      has_rule(check_file("src/runstore/bad.cpp", body), "determinism"));
  EXPECT_TRUE(
      has_rule(check_file("src/migrate/bad.cpp", body), "determinism"));
}

TEST(UnorderedOutput, FiresOnlyInSerializationDirs) {
  const std::string body =
      "#include <unordered_map>\n\n"
      "std::unordered_map<std::string, int> g_index;\n";
  EXPECT_TRUE(has_rule(check_file("src/replay/bad.cpp", body),
                       "unordered-output"));
  EXPECT_TRUE(has_rule(check_file("src/runstore/bad.hpp", body),
                       "unordered-output"));
  // Migration plans land in the decision log, which byte-compares
  // across --threads, so src/migrate is serialization scope too.
  EXPECT_TRUE(has_rule(check_file("src/migrate/bad.cpp", body),
                       "unordered-output"));
  // Hash containers are fine where iteration order never reaches a
  // serialized byte stream.
  EXPECT_FALSE(has_rule(check_file("src/sim/ok.cpp", body),
                        "unordered-output"));
  EXPECT_FALSE(has_rule(check_file("src/util/ok.cpp", body),
                        "unordered-output"));
}

TEST(UnorderedOutput, OrderedContainersAndProseAreQuiet) {
  auto findings = check_file(
      "src/runstore/ok.cpp",
      "#include \"runstore/ok.hpp\"\n\n#include <map>\n\n"
      "// unordered_map would break byte stability here\n"
      "std::map<std::string, int> g_index;\n");
  EXPECT_FALSE(has_rule(findings, "unordered-output"));
}

TEST(Determinism, IgnoresCommentsStringsAndSimilarNames) {
  auto findings = check_file(
      "src/sim/ok.cpp",
      "#include \"sim/ok.hpp\"\n\n// calls time() hourly\n"
      "const char* kLabel = \"rand()\";\n"
      "double predict_runtime(double solo_runtime_s);\n");
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

TEST(Determinism, RawStringLiteralsNeverFire) {
  // Regression: the old line-stripper resynced at the first inner
  // quote of a raw string, leaving its tail parsed as code. The
  // tokenizer-backed rule must swallow the whole R"(...)" literal —
  // embedded quotes, RNG names, and all.
  auto findings = check_file(
      "src/sim/doc.cpp",
      "#include \"sim/doc.hpp\"\n\n"
      "const char* kDoc = R\"(say \"rand()\" and clock() out loud)\";\n"
      "const char* kJson = R\"json({\"seed\": \"time(0)\"})json\";\n");
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

TEST(ListRules, CatalogCoversEveryRule) {
  std::vector<std::string> names;
  for (const RuleInfo& rule : rule_catalog()) {
    names.push_back(rule.name);
    EXPECT_FALSE(rule.summary.empty()) << rule.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "layering", "mutable-global", "determinism-taint",
                       "parallel-discipline", "determinism",
                       "unordered-output", "float-eq", "iostream",
                       "pragma-once", "include-order", "require-guard",
                       "metric-name", "raw-thread"}));
}

TEST(FloatEq, CatchesLiteralComparisonsBothSides) {
  auto findings = check_file(
      "src/virt/bad.cpp",
      "#include \"virt/bad.hpp\"\n\nbool f(double x) {\n"
      "  if (x == 0.0) return true;\n  return 1.5 != x;\n}\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "float-eq"), 2);
}

TEST(FloatEq, AllowsIntegerComparisonsAndStatsCode) {
  EXPECT_FALSE(has_rule(
      check_file("src/virt/ok.cpp",
                   "#include \"virt/ok.hpp\"\n\nbool f(int x) "
                   "{ return x == 0 || x != 10; }\n"),
      "float-eq"));
  EXPECT_FALSE(has_rule(
      check_file("src/stats/kernel.cpp",
                   "#include \"stats/kernel.hpp\"\n\nbool f(double x) "
                   "{ return x == 0.0; }\n"),
      "float-eq"));
}

TEST(Iostream, CatchesIncludeAndStreamUse) {
  auto findings = check_file(
      "src/model/bad.cpp",
      "#include \"model/bad.hpp\"\n\n#include <iostream>\n\n"
      "void f() { std::cout << 1; }\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "iostream"), 2);
}

TEST(Iostream, LoggerItselfIsExempt) {
  EXPECT_FALSE(has_rule(
      check_file("src/util/log.cpp",
                   "#include \"util/log.hpp\"\n\n#include <iostream>\n"),
      "iostream"));
}

TEST(PragmaOnce, MissingGuardIsFlagged) {
  EXPECT_TRUE(has_rule(
      check_file("src/sim/bad.hpp", "#include <vector>\nint f();\n"),
      "pragma-once"));
  EXPECT_FALSE(has_rule(
      check_file("src/sim/ok.hpp",
                   "// A comment first is fine.\n#pragma once\nint f();\n"),
      "pragma-once"));
}

TEST(IncludeOrder, OwnHeaderMustComeFirst) {
  auto findings = check_file(
      "src/sim/thing.cpp",
      "#include <vector>\n\n#include \"sim/thing.hpp\"\n\nint f();\n");
  EXPECT_TRUE(has_rule(findings, "include-order"));
}

TEST(IncludeOrder, SystemBeforeProjectAndSorted) {
  EXPECT_TRUE(has_rule(
      check_file("src/sim/a.cpp",
                   "#include \"sim/a.hpp\"\n\n#include \"util/log.hpp\"\n"
                   "#include <vector>\n"),
      "include-order"));
  EXPECT_TRUE(has_rule(
      check_file("src/sim/b.cpp",
                   "#include \"sim/b.hpp\"\n\n#include <vector>\n"
                   "#include <algorithm>\n"),
      "include-order"));
  EXPECT_FALSE(has_rule(
      check_file("src/sim/c.cpp",
                   "#include \"sim/c.hpp\"\n\n#include <algorithm>\n"
                   "#include <vector>\n\n#include \"util/error.hpp\"\n"
                   "#include \"util/log.hpp\"\n"),
      "include-order"));
}

TEST(RequireGuard, UnguardedConstructorIsFlagged) {
  auto findings = check_file(
      "src/sched/widget.cpp",
      "#include \"sched/widget.hpp\"\n\nnamespace tracon {\n"
      "Widget::Widget(int n) : n_(n) {}\n}\n");
  EXPECT_TRUE(has_rule(findings, "require-guard"));
}

TEST(RequireGuard, GuardedDefaultedAndZeroArgPass) {
  const std::string ok =
      "#include \"sched/widget.hpp\"\n\nnamespace tracon {\n"
      "Widget::Widget(int n) : n_(n) {\n"
      "  TRACON_REQUIRE(n > 0, \"n must be positive\");\n}\n"
      "Gadget::Gadget() {}\n"
      "Sprocket::Sprocket(const Sprocket&) = default;\n}\n";
  EXPECT_FALSE(has_rule(check_file("src/sched/widget.cpp", ok),
                        "require-guard"));
}

TEST(Determinism, ObsIsCoveredButScopeTimerIsExempt) {
  const std::string body =
      "#include \"obs/bad.hpp\"\n\n"
      "double f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(has_rule(check_file("src/obs/bad.cpp", body), "determinism"));
  EXPECT_FALSE(has_rule(
      check_file("src/obs/scope_timer.cpp",
                   "#include \"obs/scope_timer.hpp\"\n\n" + body.substr(body.find("double"))),
      "determinism"));
  EXPECT_FALSE(has_rule(check_file("src/obs/scope_timer.hpp",
                                     "#pragma once\nint now() { return "
                                     "clock(); }\n"),
                        "determinism"));
}

TEST(MetricName, BadLiteralsAreFlaggedAtEveryRegistrationSite) {
  auto findings = check_file(
      "src/obs/bad_metrics.cpp",
      "#include \"obs/bad_metrics.hpp\"\n\nvoid f(R& m) {\n"
      "  m.counter(\"Sched.Decisions\").inc();\n"
      "  m.gauge(\"sched queue\").set(1.0);\n"
      "  m.histogram(\"sched..placed\", {1.0}).observe(1.0);\n"
      "  TRACON_PROF_SCOPE(\"MixRotate\");\n"
      "  KvLine(\"9bad.event\");\n}\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "metric-name"), 5);
}

TEST(MetricName, ValidPathsVariablesAndProseAreQuiet) {
  auto findings = check_file(
      "src/obs/ok_metrics.cpp",
      "#include \"obs/ok_metrics.hpp\"\n\nvoid f(R& m, const std::string& n) "
      "{\n"
      "  m.counter(\"sched.mios.decisions\").inc();\n"
      "  m.counter(n).inc();\n"
      "  m.counter(prefix + \".samples\").inc();\n"
      "  // counter(\"Not Code\") in a comment\n"
      "  log(\"histogram (\\\"Loose Prose\\\")\");\n"
      "  TRACON_PROF_SCOPE(\"stats.nls.gauss_newton\");\n}\n");
  EXPECT_FALSE(has_rule(findings, "metric-name"));
}

TEST(Determinism, SnapshotCodeMustNotReadWallClocks) {
  // The snapshot sampler's whole contract is virtual-clock timestamps;
  // every C time-formatting entry point counts as a violation.
  auto findings = check_file(
      "src/obs/snapshot_bad.cpp",
      "#include \"obs/snapshot_bad.hpp\"\n\nvoid f() {\n"
      "  std::time_t t; timespec_get(nullptr, 0);\n"
      "  char buf[64]; strftime(buf, 64, \"%F\", nullptr);\n"
      "  const char* s = ctime(&t);\n"
      "  double d = difftime(t, t);\n}\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "determinism"), 4);
}

TEST(MetricName, TrackAccuracyLiteralsAreChecked) {
  auto findings = check_file(
      "src/obs/snapshot_names.cpp",
      "#include \"obs/snapshot_names.hpp\"\n\nvoid f(S& s, const W* w) {\n"
      "  s.track_accuracy(\"Model.NLM.Runtime\", w);\n"
      "  s.track_accuracy(\"model.nlm.runtime\", w);\n"
      "  s.track_accuracy(family + \".runtime\", w);\n}\n");
  std::vector<std::string> rules = rules_of(findings);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "metric-name"), 1);
}

TEST(MetricName, SuppressionTagWorks) {
  EXPECT_FALSE(has_rule(
      check_file("src/obs/sup_metrics.cpp",
                   "#include \"obs/sup_metrics.hpp\"\n\nvoid f(R& m) {\n"
                   "  // legacy dashboard key: "
                   "TRACON_ANALYZE_ALLOW(metric-name): external schema\n"
                   "  m.counter(\"Legacy-Key\").inc();\n}\n"),
      "metric-name"));
}

TEST(RawThread, CatchesPrimitivesAndHeadersOutsideSanctionedDirs) {
  EXPECT_TRUE(has_rule(
      check_file("src/sched/bad.cpp",
                   "#include \"sched/bad.hpp\"\n\nstd::thread t;\n"),
      "raw-thread"));
  EXPECT_TRUE(has_rule(
      check_file("src/sim/bad.cpp",
                   "#include \"sim/bad.hpp\"\n\nstd::mutex m;\n"),
      "raw-thread"));
  EXPECT_TRUE(has_rule(
      check_file("src/obs/bad.cpp",
                   "#include \"obs/bad.hpp\"\n\n"
                   "auto f = std::async([] { return 1; });\n"),
      "raw-thread"));
  EXPECT_TRUE(has_rule(check_file("src/virt/bad.cpp",
                                    "#include \"virt/bad.hpp\"\n\n"
                                    "#include <atomic>\n"),
                       "raw-thread"));
  EXPECT_TRUE(has_rule(
      check_file("src/model/bad.cpp",
                   "#include \"model/bad.hpp\"\n\n"
                   "void f() { pthread_create(nullptr, nullptr, "
                   "nullptr, nullptr); }\n"),
      "raw-thread"));
}

TEST(RawThread, SanctionedHomesAreExempt) {
  const std::string body =
      "#include <mutex>\n#include <thread>\n\nstd::mutex m;\n";
  EXPECT_FALSE(has_rule(check_file("src/util/parallel.cpp",
                                     "#include \"util/parallel.hpp\"\n\n" +
                                         body),
                        "raw-thread"));
  EXPECT_FALSE(has_rule(
      check_file("src/sim/shard_scenario.cpp",
                   "#include \"sim/shard_scenario.hpp\"\n\n" + body),
      "raw-thread"));
  // The profiler's registration lock rides the scope_timer exemption.
  EXPECT_FALSE(has_rule(
      check_file("src/obs/scope_timer.cpp",
                   "#include \"obs/scope_timer.hpp\"\n\nstd::mutex m;\n"),
      "raw-thread"));
  // Prose and strings never fire.
  EXPECT_FALSE(has_rule(
      check_file("src/sched/ok.cpp",
                   "#include \"sched/ok.hpp\"\n\n"
                   "// std::thread is quarantined to util\n"
                   "const char* kDoc = \"std::mutex\";\n"),
      "raw-thread"));
}

TEST(RawThread, SuppressionTagApplies) {
  EXPECT_FALSE(has_rule(
      check_file("src/sched/sup.cpp",
                   "#include \"sched/sup.hpp\"\n\n"
                   "// TRACON_ANALYZE_ALLOW(raw-thread): test fixture\n"
                   "std::atomic<int> n;\n"),
      "raw-thread"));
}

TEST(Suppression, LineAndFileTagsSilenceFindings) {
  EXPECT_FALSE(has_rule(
      check_file("src/sim/sup.cpp",
           "#include \"sim/sup.hpp\"\n\n"
           "// seeded entropy is fine here: "
           "TRACON_ANALYZE_ALLOW(determinism): fixture\nint x = rand();\n"),
      "determinism"));
  // There is no file-wide form: a tag covers the line below it only.
  std::vector<Finding> findings =
      check_file("src/sim/supfile.cpp",
           "#include \"sim/supfile.hpp\"\n\n"
           "// TRACON_ANALYZE_ALLOW(determinism): fixture\n"
           "int x = rand();\nint y = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(Scope, NonSourceFilesAndNonSrcPathsAreIgnored) {
  EXPECT_TRUE(check_file("tools/lint/x.cpp", "int x = rand();\n").empty());
  EXPECT_TRUE(check_file("src/sim/notes.md", "rand()\n").empty());
}

TEST(Findings, FormatIsCompilerStyle) {
  AnalysisResult r;
  r.findings = {{"src/sim/bad.cpp", 4, "determinism", "no clocks"}};
  const std::string text = render_text(r);
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "src/sim/bad.cpp:4: [determinism] no clocks");
}

TEST(Determinism, CatalogueCoversMrand48AndRandR) {
  std::vector<Finding> findings =
      check_file("src/sim/rng.cpp",
           "#include \"sim/rng.hpp\"\n\n"
           "int f(unsigned* s) { return mrand48() + rand_r(s); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
  EXPECT_EQ(findings[0].line, 3u);
}

// --------------------------------------------------------------- suppression

TEST(Suppression, AllowWithReasonSuppresses) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "// TRACON_ANALYZE_ALLOW(mutable-global): test-only knob.\n"
       "int g_knob = 0;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 0u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppression, AllowWithoutReasonDoesNotSuppress) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "// TRACON_ANALYZE_ALLOW(mutable-global):\n"
       "int g_knob = 0;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 1u);
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(Suppression, WrongRuleDoesNotSuppress) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "// TRACON_ANALYZE_ALLOW(layering): not the right rule.\n"
       "int g_knob = 0;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 1u);
}

TEST(Suppression, MultiLineCommentBlockCoversTheNextLine) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "// TRACON_ANALYZE_ALLOW(mutable-global): the justification\n"
       "// continues across several comment lines before the\n"
       "// declaration itself.\n"
       "int g_knob = 0;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 0u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppression, CommentBlockMustBeContiguous) {
  AnalysisResult r = analyze({
      {"src/sim/state.cpp",
       "namespace tracon {\n"
       "// TRACON_ANALYZE_ALLOW(mutable-global): too far away.\n"
       "int unrelated();\n"
       "int g_knob = 0;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(r, "mutable-global"), 1u);
}

// ------------------------------------------------------- pipeline & reports

TEST(Pipeline, RuleFilterRunsOnlyThatPass) {
  std::vector<SourceFile> fixture = {
      {"src/util/helper.hpp", "#include \"sim/engine.hpp\"\n"},
      {"src/sim/engine.hpp", "#pragma once\nnamespace t {\nint g = 0;\n}\n"},
  };
  AnalysisResult only_layering = analyze(fixture, {"layering"});
  EXPECT_EQ(count_rule(only_layering, "layering"), 1u);
  EXPECT_EQ(count_rule(only_layering, "mutable-global"), 0u);
  AnalysisResult all = analyze(fixture);
  EXPECT_EQ(count_rule(all, "layering"), 1u);
  EXPECT_EQ(count_rule(all, "mutable-global"), 1u);
}

TEST(Pipeline, FindingsAreSortedAndDeterministic) {
  std::vector<SourceFile> fixture = {
      {"src/util/z.hpp", "#pragma once\n#include \"sim/engine.hpp\"\n"},
      {"src/util/a.hpp", "#pragma once\n#include \"sim/engine.hpp\"\n"},
      {"src/sim/engine.hpp", "#pragma once\n"},
  };
  AnalysisResult r1 = analyze(fixture);
  AnalysisResult r2 = analyze(fixture);
  ASSERT_EQ(r1.findings.size(), 2u);
  EXPECT_EQ(r1.findings[0].file, "src/util/a.hpp");
  EXPECT_EQ(r1.findings[1].file, "src/util/z.hpp");
  EXPECT_EQ(render_json(r1), render_json(r2));
  EXPECT_EQ(render_text(r1), render_text(r2));
}

TEST(Report, JsonShape) {
  AnalysisResult r = analyze({
      {"src/util/helper.hpp",
       "#pragma once\n#include \"sim/engine.hpp\"\n"},
      {"src/sim/engine.hpp", "#pragma once\n"},
  });
  std::string json = render_json(r);
  EXPECT_NE(json.find("\"schema\": \"tracon.analyze_report/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool\": {\"name\": \"tracon_analyze\""),
            std::string::npos);
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_NE(json.find("\"name\": \"" + rule.name + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\": {\"files\": 2, \"findings\": 1, "
                      "\"suppressed\": 0}"),
            std::string::npos);
}

TEST(Report, TextRendersCompilerStyle) {
  AnalysisResult r = analyze({
      {"src/util/helper.hpp",
       "#pragma once\n#include \"sim/engine.hpp\"\n"},
      {"src/sim/engine.hpp", "#pragma once\n"},
  });
  std::string text = render_text(r);
  EXPECT_NE(text.find("src/util/helper.hpp:2: [layering]"),
            std::string::npos);
  EXPECT_NE(text.find("tracon_analyze: 1 finding(s), 0 suppressed, 2 "
                      "files"),
            std::string::npos);
}

TEST(Report, RuleCatalogHasAllFourPasses) {
  // The four project-wide passes lead the catalogue; the nine
  // per-file convention rules follow (ListRules.CatalogCoversEveryRule).
  const std::vector<RuleInfo>& rules = rule_catalog();
  ASSERT_EQ(rules.size(), 13u);
  EXPECT_EQ(rules[0].name, "layering");
  EXPECT_EQ(rules[1].name, "mutable-global");
  EXPECT_EQ(rules[2].name, "determinism-taint");
  EXPECT_EQ(rules[3].name, "parallel-discipline");
}

}  // namespace
}  // namespace tracon::analyze
