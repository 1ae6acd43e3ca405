// Tests of the structured logger: logfmt / JSON rendering, quoting and
// escaping rules, level filtering, sink redirection, per-level line
// counters and their MetricRegistry exposure (DESIGN.md §12 log schema).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace spex {
namespace obs {
namespace {

// Captures every rendered line for inspection.
struct CapturingLogger {
  Logger logger;
  std::vector<std::string> lines;

  CapturingLogger() {
    logger.SetSink(
        [this](std::string_view line) { lines.emplace_back(line); });
  }
};

TEST(LogTest, LevelNamesRoundTrip) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    LogLevel parsed;
    ASSERT_TRUE(ParseLogLevel(LogLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  LogLevel ignored;
  EXPECT_FALSE(ParseLogLevel("verbose", &ignored));
  EXPECT_FALSE(ParseLogLevel("", &ignored));
  LogFormat format;
  ASSERT_TRUE(ParseLogFormat("json", &format));
  EXPECT_EQ(format, LogFormat::kJson);
  ASSERT_TRUE(ParseLogFormat("text", &format));
  EXPECT_EQ(format, LogFormat::kText);
  EXPECT_FALSE(ParseLogFormat("xml", &format));
}

TEST(LogTest, TextLineHasSchemaFields) {
  CapturingLogger cap;
  cap.logger.Log(LogLevel::kInfo, "run complete",
                 {{"documents", 3}, {"elapsed_s", 1.5}, {"ok", true}});
  ASSERT_EQ(cap.lines.size(), 1u);
  const std::string& line = cap.lines[0];
  // ts=<RFC3339>Z level=info msg="run complete" documents=3 ...
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
  EXPECT_NE(line.find("Z level=info "), std::string::npos) << line;
  EXPECT_NE(line.find("msg=\"run complete\""), std::string::npos) << line;
  EXPECT_NE(line.find(" documents=3"), std::string::npos) << line;
  EXPECT_NE(line.find(" elapsed_s=1.5"), std::string::npos) << line;
  EXPECT_NE(line.find(" ok=true"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LogTest, LogfmtQuotingRules) {
  CapturingLogger cap;
  cap.logger.Log(LogLevel::kInfo, "plain",
                 {{"bare", "no-quotes-needed"},
                  {"spaced", "has space"},
                  {"quoted", "say \"hi\""},
                  {"escaped", "back\\slash\nnewline\ttab"},
                  {"empty", ""}});
  ASSERT_EQ(cap.lines.size(), 1u);
  const std::string& line = cap.lines[0];
  // A bare msg is not quoted; values with specials are quoted and escaped.
  EXPECT_NE(line.find("msg=plain"), std::string::npos) << line;
  EXPECT_NE(line.find("bare=no-quotes-needed"), std::string::npos) << line;
  EXPECT_NE(line.find("spaced=\"has space\""), std::string::npos) << line;
  EXPECT_NE(line.find("quoted=\"say \\\"hi\\\"\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("escaped=\"back\\\\slash\\nnewline\\ttab\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("empty=\"\""), std::string::npos) << line;
  // The rendered line itself stays single-line despite embedded newlines.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LogTest, JsonLineIsOneFlatObject) {
  CapturingLogger cap;
  cap.logger.SetFormat(LogFormat::kJson);
  cap.logger.Log(LogLevel::kWarn, "governor \"breach\"",
                 {{"bytes", 4096}, {"query", "a.b\nc"}, {"fatal", false}});
  ASSERT_EQ(cap.lines.size(), 1u);
  const std::string& line = cap.lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"governor \\\"breach\\\"\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"bytes\":4096"), std::string::npos) << line;
  EXPECT_NE(line.find("\"query\":\"a.b\\nc\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"fatal\":false"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LogTest, LevelFiltersAndCounts) {
  CapturingLogger cap;
  cap.logger.SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(cap.logger.Enabled(LogLevel::kDebug));
  EXPECT_FALSE(cap.logger.Enabled(LogLevel::kInfo));
  EXPECT_TRUE(cap.logger.Enabled(LogLevel::kWarn));
  EXPECT_TRUE(cap.logger.Enabled(LogLevel::kError));
  cap.logger.Log(LogLevel::kDebug, "suppressed", {});
  cap.logger.Log(LogLevel::kInfo, "suppressed", {});
  cap.logger.Log(LogLevel::kWarn, "kept", {});
  cap.logger.Log(LogLevel::kError, "kept", {});
  cap.logger.Log(LogLevel::kError, "kept", {});
  EXPECT_EQ(cap.lines.size(), 3u);
  // Counters track emitted lines only — suppressed levels stay at zero.
  EXPECT_EQ(cap.logger.lines(LogLevel::kDebug), 0);
  EXPECT_EQ(cap.logger.lines(LogLevel::kInfo), 0);
  EXPECT_EQ(cap.logger.lines(LogLevel::kWarn), 1);
  EXPECT_EQ(cap.logger.lines(LogLevel::kError), 2);
}

TEST(LogTest, RegisterCollectorsExportsPerLevelCounters) {
  CapturingLogger cap;
  MetricRegistry registry;
  cap.logger.RegisterCollectors(&registry);
  cap.logger.Log(LogLevel::kInfo, "a", {});
  cap.logger.Log(LogLevel::kInfo, "b", {});
  cap.logger.Log(LogLevel::kError, "c", {});
  MetricsSnapshot snap = registry.Collect();
  int matched = 0;
  for (const MetricSample& s : snap.samples) {
    if (s.name != "spex_log_lines_total") continue;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "level");
    EXPECT_EQ(s.type, MetricType::kCounter);
    if (s.labels[0].second == "info") {
      EXPECT_EQ(s.value, 2);
    }
    if (s.labels[0].second == "error") {
      EXPECT_EQ(s.value, 1);
    }
    if (s.labels[0].second == "debug") {
      EXPECT_EQ(s.value, 0);
    }
    ++matched;
  }
  EXPECT_EQ(matched, kLogLevelCount);
  // The family carries a help string into the exposition.
  EXPECT_NE(registry.Collect().ToPrometheusText().find(
                "# HELP spex_log_lines_total"),
            std::string::npos);
}

TEST(LogTest, FileSinkWritesOneLinePerCall) {
  Logger logger;
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  logger.SetSink(tmp);
  logger.Log(LogLevel::kInfo, "first", {{"n", 1}});
  logger.Log(LogLevel::kInfo, "second", {{"n", 2}});
  std::rewind(tmp);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof buf, tmp);
  std::string contents(buf, n);
  std::fclose(tmp);
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_NE(contents.find("msg=first n=1\n"), std::string::npos) << contents;
  EXPECT_NE(contents.find("msg=second n=2\n"), std::string::npos) << contents;
}

TEST(LogTest, GlobalLoggerServesFreeHelpers) {
  // Redirect the global logger for the duration of this test, then restore
  // stderr so other tests (and gtest itself) are unaffected.
  std::vector<std::string> lines;
  Logger::Global().SetSink(
      [&lines](std::string_view line) { lines.emplace_back(line); });
  LogInfo("hello", {{"k", "v"}});
  const int64_t after = Logger::Global().lines(LogLevel::kInfo);
  Logger::Global().SetSink(stderr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("msg=hello k=v"), std::string::npos);
  EXPECT_GE(after, 1);
}

}  // namespace
}  // namespace obs
}  // namespace spex
