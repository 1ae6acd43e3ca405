// Umbrella header: the SPEX public API.
//
//   #include "spex/spex.h"
//
//   auto query = spex::MustParseRpeq("_*.country[province].name");
//   spex::SerializingResultSink results;
//   spex::SpexEngine engine(*query, &results);
//   spex::XmlParser parser(&engine);
//   parser.Parse(xml_text);
//   for (const std::string& fragment : results.results()) { ... }

#ifndef SPEX_SPEX_SPEX_H_
#define SPEX_SPEX_SPEX_H_

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpeq/ast.h"
#include "rpeq/parser.h"
#include "rpeq/xpath.h"
#include "spex/compiler.h"
#include "spex/observe.h"
#include "spex/engine.h"
#include "spex/formula.h"
#include "spex/message.h"
#include "spex/multi_query.h"
#include "spex/network.h"
#include "spex/output_transducer.h"
#include "spex/run_core.h"
#include "spex/version.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/stream_event.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

#endif  // SPEX_SPEX_SPEX_H_
