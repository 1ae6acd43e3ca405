#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "baseline/dom_evaluator.h"
#include "rpeq/parser.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace wirebench {
namespace {

// DMOZ content documents at this scale have ~5.6k Topics: ~1 MB and ~100k
// events each, large enough that per-document work dwarfs the wire
// round trip.
constexpr double kDmozScale = 0.004;
constexpr int kDmozDocs = 8;

// News-feed documents for the population: 6, 10, 14 or 18 items (12 on
// average) of 23 events each.  The sizes are fixed by document index, so
// every seed costs the same; they differ so that latencies form a spread
// rather than two spikes (alone on a worker, or queued behind a document
// of the same size on a round-robin pinning collision).
constexpr int kFeedDocs = 16;
constexpr int kTagsPerItem = 3;
constexpr int kTopicTags = 64;
constexpr int kSubscriptions = 1000;

const char* const kFeedFields[] = {"headline", "body", "author", "date",
                                   "source"};

uint64_t DocSeed(uint64_t seed, uint64_t index) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + index + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Word(std::mt19937_64& rng, int min_syllables, int max_syllables) {
  static const char* kSyllables[] = {"ka", "ro", "mi", "ta", "lu", "ze",
                                     "an", "pe", "so", "vi", "du", "ne"};
  std::uniform_int_distribution<int> len(min_syllables, max_syllables);
  std::string out;
  for (int i = len(rng); i > 0; --i) out += kSyllables[rng() % 12];
  return out;
}

std::string Words(std::mt19937_64& rng, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (i > 0) out += ' ';
    out += Word(rng, 1, 3);
  }
  return out;
}

std::string Serialize(const std::vector<spex::StreamEvent>& events) {
  spex::XmlWriter writer;
  for (const spex::StreamEvent& e : events) writer.OnEvent(e);
  return writer.str();
}

// Distinct random topic tags, as `count` indices below kTopicTags.
std::vector<int> PickTags(std::mt19937_64& rng, int count) {
  std::vector<int> tags;
  while (static_cast<int>(tags.size()) < count) {
    const int t = static_cast<int>(rng() % kTopicTags);
    if (std::find(tags.begin(), tags.end(), t) == tags.end()) tags.push_back(t);
  }
  return tags;
}

// One news-feed item per loop: topic tags first, then the fields, so a
// subscription's qualifiers are decided before its field arrives.
std::string FeedDocument(uint64_t seed, int items) {
  std::mt19937_64 rng(seed);
  std::vector<spex::StreamEvent> ev;
  ev.push_back(spex::StreamEvent::StartDocument());
  ev.push_back(spex::StreamEvent::StartElement("feed"));
  for (int i = 0; i < items; ++i) {
    ev.push_back(spex::StreamEvent::StartElement("item"));
    for (int t : PickTags(rng, kTagsPerItem)) {
      const std::string tag = "t" + std::to_string(t);
      ev.push_back(spex::StreamEvent::StartElement(tag));
      ev.push_back(spex::StreamEvent::EndElement(tag));
    }
    for (const char* field : kFeedFields) {
      ev.push_back(spex::StreamEvent::StartElement(field));
      ev.push_back(spex::StreamEvent::Text(
          Words(rng, field == kFeedFields[1] ? 12 : 3)));
      ev.push_back(spex::StreamEvent::EndElement(field));
    }
    ev.push_back(spex::StreamEvent::EndElement("item"));
  }
  ev.push_back(spex::StreamEvent::EndElement("feed"));
  ev.push_back(spex::StreamEvent::EndDocument());
  return Serialize(ev);
}

// 1000 profiles `_*.item[tA][tB]....field` with 1-3 distinct topic-tag
// qualifiers.  Every fifth repeats an earlier profile (popular
// subscriptions), and short profiles collide by chance, so the population
// folds to ~750 canonical slots — but no further: tags are drawn per
// profile, unlike the modular generators elsewhere in the repository,
// which fold 1000 inputs into a few dozen slots.  The mix of qualifier
// counts is fixed and only the tags and fields come from the seed, so the
// DAG's size, and with it the cost per event, barely moves between seeds.
std::vector<std::string> Subscriptions(uint64_t seed) {
  std::mt19937_64 rng(DocSeed(seed, 0xabcdef));
  std::vector<std::string> out;
  int fresh = 0;
  for (int i = 0; i < kSubscriptions; ++i) {
    if (i % 5 == 4) {
      out.push_back(out[rng() % out.size()]);
      continue;
    }
    const int r = fresh++ % 10;
    const int qualifiers = r < 3 ? 1 : (r < 8 ? 2 : 3);
    std::string q = "_*.item";
    for (int t : PickTags(rng, qualifiers)) q += "[t" + std::to_string(t) + "]";
    q += ".";
    q += kFeedFields[rng() % 5];
    out.push_back(std::move(q));
  }
  return out;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wirebench: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "wire_qualifier" || name == "wire_records" ||
         name == "wire_subscriptions";
}

ResultDigest OracleDigest(const Corpus& corpus, const std::string& xml) {
  ResultDigest digest(static_cast<size_t>(corpus.slots));
  if (!corpus.population) {
    for (const std::string& f :
         spex::DomEvaluateToStrings(*corpus.query, xml)) {
      digest.Add(0, f);
    }
    return digest;
  }
  spex::Document dom;
  std::string error;
  if (!spex::ParseXmlToDocument(xml, &dom, &error)) Die("oracle: " + error);
  for (int s = 0; s < corpus.slots; ++s) {
    for (const std::string& f :
         spex::DomEvaluateToStrings(corpus.multi->slot_expr(s), dom)) {
      digest.Add(static_cast<uint32_t>(s), f);
    }
  }
  return digest;
}

Corpus BuildCorpus(const std::string& workload, uint64_t seed) {
  Corpus c;
  c.workload = workload;
  if (workload == "wire_subscriptions") {
    c.population = true;
    c.queries = Subscriptions(seed);
    for (const std::string& q : c.queries) c.prepare_text += q + "\n";
    auto built = spex::MultiQueryTemplate::Build(c.queries);
    if (!built.ok()) Die("population: " + built.status().message());
    c.multi = std::move(built).value();
    c.slots = c.multi->slot_count();
    c.min_slots = kSubscriptions / 2;
    for (int i = 0; i < kFeedDocs; ++i) {
      c.docs.push_back(FeedDocument(DocSeed(seed, static_cast<uint64_t>(i)),
                                    6 + 4 * (i % 4)));
    }
  } else {
    const std::string query = workload == "wire_qualifier"
                                  ? "_*.Topic[link].Title"
                                  : "_*.Topic";
    c.queries = {query};
    c.prepare_text = query;
    spex::ParseResult parsed = spex::ParseRpeq(query);
    if (!parsed.ok()) Die("query: " + parsed.error);
    c.query = std::move(parsed.expr);
    for (int i = 0; i < kDmozDocs; ++i) {
      c.docs.push_back(Serialize(spex::GenerateToVector(
          [&](spex::EventSink* sink) {
            spex::GenerateDmozLike(DocSeed(seed, static_cast<uint64_t>(i)),
                                   kDmozScale, /*content=*/true, sink);
          })));
    }
  }
  for (const std::string& xml : c.docs) {
    std::vector<spex::StreamEvent> events;
    std::string error;
    if (!spex::ParseXmlToEvents(xml, &events, &error)) Die("corpus: " + error);
    c.doc_events.push_back(static_cast<int64_t>(events.size()));
    c.expected.push_back(ExpectedFrom(OracleDigest(c, xml)));
  }
  return c;
}

}  // namespace wirebench
