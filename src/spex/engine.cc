#include "spex/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "rpeq/parser.h"
#include "xml/xml_parser.h"

namespace spex {

SpexEngine::SpexEngine(const Expr& query, ResultSink* sink,
                       EngineOptions options)
    : RunCore(std::move(options)) {
  CompiledNetwork compiled = CompileToNetwork(query, sink, &context());
  Start(std::move(compiled.network), compiled.input_node, {compiled.output},
        query.ToString());
}

SpexEngine::SpexEngine(std::shared_ptr<const QueryTemplate> query_template,
                       ResultSink* sink, EngineOptions options)
    : SpexEngine(query_template->expr(), sink, std::move(options)) {}

std::unique_ptr<RunCore> QueryTemplate::Instantiate(
    const std::vector<ResultSink*>& slot_sinks, EngineOptions options) const {
  return std::make_unique<SpexEngine>(*expr_, slot_sinks[0],
                                      std::move(options));
}

namespace {

// Shared body of the one-shot helpers: evaluates into a `Sink`, feeding at
// the configured granularity, which also sweeps whole batches in every
// helper-driven test.
template <typename Sink>
auto Evaluate(const Expr& query, const std::vector<StreamEvent>& events,
              EngineOptions options) {
  Sink sink;
  SpexEngine engine(query, &sink, options);
  const size_t step = static_cast<size_t>(std::max(1, options.batch_size));
  for (size_t i = 0; i < events.size(); i += step) {
    engine.OnEventBatch(events.data() + i, std::min(step, events.size() - i));
  }
  return sink.results();
}

}  // namespace

std::vector<std::string> EvaluateToStrings(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options) {
  return Evaluate<SerializingResultSink>(query, events, std::move(options));
}

std::vector<std::vector<StreamEvent>> EvaluateToFragments(
    const Expr& query, const std::vector<StreamEvent>& events,
    EngineOptions options) {
  return Evaluate<CollectingResultSink>(query, events, std::move(options));
}

int64_t CountMatches(const Expr& query, const std::vector<StreamEvent>& events,
                     EngineOptions options) {
  return Evaluate<CountingResultSink>(query, events, std::move(options));
}

std::vector<std::string> EvaluateXml(const std::string& query_text,
                                     const std::string& xml) {
  ExprPtr query = MustParseRpeq(query_text);
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink);
  XmlParserOptions parser_options;
  parser_options.symbols = engine.symbol_table();
  XmlParser parser(&engine, parser_options);
  if (!parser.Parse(xml)) {
    std::fprintf(stderr, "EvaluateXml: XML error: %s\n",
                 parser.error().c_str());
    std::abort();
  }
  return sink.results();
}

}  // namespace spex
