// Streaming (SAX-style) XML parser, built from scratch (paper §II.1 and [8]).
//
// The parser is incremental and push-based: feed it arbitrary chunks of bytes
// with Feed(); it emits document messages to an EventSink as soon as they are
// complete.  This matches the paper's setting where the stream may be
// unbounded and must never be buffered wholesale.
//
// Supported XML subset (the paper's data model, §II.1):
//   * elements with ASCII-ish names:  <a> ... </a>  and  <a/>
//   * character data, with entity decoding (&lt; &gt; &amp; &apos; &quot;
//     and numeric &#NN; / &#xHH;)
//   * XML declaration (<?xml ... ?>), processing instructions, comments,
//     CDATA sections and DOCTYPE are recognized and skipped
//   * attributes are parsed for well-formedness and, optionally
//     (XmlParserOptions::expose_attributes), exposed as @-prefixed virtual
//     child elements; by default they are skipped as in the paper's data
//     model
//
// Errors are reported by returning false; the message is in error().

#ifndef SPEX_XML_XML_PARSER_H_
#define SPEX_XML_XML_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "xml/stream_event.h"

namespace spex {

namespace obs {
class MetricRegistry;
}  // namespace obs

// Tunable limits protecting against pathological inputs.
struct XmlParserOptions {
  // If true, text consisting only of whitespace between elements is dropped.
  bool skip_whitespace_text = true;
  // If true, attributes are exposed in the stream as virtual child elements
  // named "@<attr>" holding the value as text, emitted right after the
  // element's start message (the paper's §II.1 "necessary extensions are
  // technical, but not difficult"): <a id="7"> becomes
  // <a> <@id> "7" </@id> ... — queries like a[@id] or a.@id then work with
  // the unchanged transducer network.  If false (default), attributes are
  // parsed for well-formedness and dropped.
  bool expose_attributes = false;
  // Maximum element nesting depth accepted (0 = unlimited).  Breaching it is
  // a kResourceExhausted error, not a well-formedness error.
  int max_depth = 0;
  // Maximum size, in bytes, of any single accumulated token: a text node, a
  // tag name, or a start tag's attribute region (0 = unlimited).  Bounds the
  // parser's own buffering against adversarial inputs — an unterminated
  // multi-gigabyte text node or attribute value otherwise grows resident
  // memory without ever emitting an event.  Breaching it is a
  // kResourceExhausted error.
  size_t max_text_bytes = 0;
  // If true, the parser emits kStartDocument before the first message and
  // kEndDocument when Finish() is called.
  bool emit_document_events = true;
  // Number of document messages buffered before delivery to the sink via
  // EventSink::OnEventBatch (DESIGN.md §11).  Events are always flushed at
  // the end of every Feed() / Finish() call and before an error is reported,
  // so a sink observes exactly the per-event stream, just in groups; 1 (or
  // 0) delivers every event immediately through OnEvent.  The batch buffer
  // stays alive across the OnEventBatch call, satisfying the SPEX engine's
  // borrow contract.
  int event_batch_size = 64;
  // Optional symbol table: element labels (and @-attribute names) are
  // interned once per distinct tag and stamped onto the emitted events'
  // `label` field — end tags reuse the symbol resolved at the matching start
  // tag, so they never touch the table.  Null leaves labels unstamped
  // (kNoSymbol).  The table must outlive the parser; consumers that compare
  // symbols (the SPEX engine) must be given the same table.
  SymbolTable* symbols = nullptr;
  // Optional metrics registry (typically SpexEngine::metrics()): the parser
  // registers pull gauges spex_parser_bytes_consumed, spex_parser_events and
  // spex_parser_max_depth over its always-maintained counters.  The registry
  // must outlive the parser's last Collect().
  obs::MetricRegistry* metrics = nullptr;
};

class XmlParser {
 public:
  explicit XmlParser(EventSink* sink, XmlParserOptions options = {});

  XmlParser(const XmlParser&) = delete;
  XmlParser& operator=(const XmlParser&) = delete;

  // Feeds a chunk of input.  Returns false on a well-formedness error (the
  // parser then stays in the error state).
  bool Feed(std::string_view chunk);

  // Declares end of input: flushes trailing text, checks all elements are
  // closed, and emits </$>.  Returns false on error.
  bool Finish();

  // Convenience: parse a complete document in one call.
  bool Parse(std::string_view document);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Structured view of the error state: kOk while parsing is healthy,
  // kMalformedInput for well-formedness errors, kResourceExhausted when a
  // configured limit (max_depth, max_text_bytes) was breached.
  Status status() const {
    return ok() ? Status::Ok() : Status(error_code_, error_);
  }

  // Number of bytes consumed so far.
  int64_t bytes_consumed() const { return bytes_consumed_; }
  // Number of document messages emitted to the sink so far.
  int64_t events_emitted() const { return events_emitted_; }
  // Current element nesting depth.
  int depth() const { return static_cast<int>(open_elements_.size()); }
  // Peak element nesting depth seen so far (the paper's d of §V).
  int max_depth() const { return max_depth_; }

 private:
  enum class State : uint8_t {
    kContent,        // between markup: accumulating character data
    kMarkup,         // after '<'
    kStartTag,       // inside <name ... >
    kEndTag,         // inside </name >
    kComment,        // inside <!-- ... -->
    kCdata,          // inside <![CDATA[ ... ]]>
    kPi,             // inside <? ... ?>
    kDoctype,        // inside <!DOCTYPE ... >
    kBang,           // after '<!', disambiguating comment / CDATA / DOCTYPE
    kError,
  };

  bool Fail(const std::string& message);
  // As Fail, but classifies the error as a limit breach (kResourceExhausted)
  // rather than malformed input.
  bool FailLimit(const std::string& message);
  // Enforces options_.max_text_bytes over an accumulating token buffer.
  bool CheckTokenLimit(const std::string& token, const char* what);
  // Appends a scanned run of `count` bytes to `token`, advancing
  // bytes_consumed_.  On a max_text_bytes breach it admits exactly the bytes
  // the per-char machine would have accepted before failing, so the error's
  // byte position and the token's final size are identical to per-char
  // parsing at any chunk split.
  bool BulkAppend(std::string* token, const char* data, size_t count,
                  const char* what);
  // Counting funnel in front of the sink: every document message passes
  // through here so events_emitted() stays exact.  Fills the next slot of
  // batch_, whose events (and their strings' capacity) are kept across
  // batches, so steady-state parsing allocates nothing per event.
  void Emit(EventKind kind, std::string_view name, std::string_view text,
            Symbol label);
  // Delivers the buffered events (if any): through EventSink::OnEventBatch,
  // or OnEvent when event batching is off.  The sink borrows them for the
  // call only.
  void FlushBatch();
  void EmitStartDocumentIfNeeded();
  void FlushText();
  bool EmitStartElement();
  // Parses tag_rest_ into (name, value) pairs and emits them as virtual
  // @-elements.  Returns false on malformed attribute syntax.
  bool EmitAttributes();
  bool EmitEndElement(const std::string& name);
  bool DecodeEntity();  // decodes entity_buffer_ into text_
  bool HandleContentChar(char c);
  bool HandleMarkupChar(char c);
  bool HandleStartTagChar(char c);
  bool HandleEndTagChar(char c);

  static bool IsNameStartChar(char c);
  static bool IsNameChar(char c);
  static bool IsSpace(char c);

  EventSink* sink_;
  XmlParserOptions options_;
  State state_ = State::kContent;
  std::string error_;
  StatusCode error_code_ = StatusCode::kMalformedInput;  // when error_ set

  bool document_started_ = false;
  bool seen_root_ = false;
  bool in_entity_ = false;
  std::string entity_buffer_;
  std::string text_;       // pending character data
  std::string tag_name_;   // name being accumulated
  std::string tag_rest_;   // attribute region of a start tag
  bool tag_self_closing_ = false;
  bool tag_name_done_ = false;
  char attr_quote_ = '\0';  // active quote char inside a start tag, or 0
  std::string bang_buffer_;  // lookahead after '<!'
  int comment_dashes_ = 0;   // trailing '-' count inside comments
  int cdata_brackets_ = 0;   // trailing ']' count inside CDATA
  char pi_prev_ = '\0';
  int doctype_depth_ = 0;
  std::vector<std::string> open_elements_;
  std::vector<Symbol> open_symbols_;  // parallel to open_elements_
  std::vector<StreamEvent> batch_;    // batch_cap_ reusable event slots
  size_t batch_used_ = 0;             // slots filled since the last flush
  size_t batch_cap_ = 1;              // flush threshold; 1 = per-event
  int64_t bytes_consumed_ = 0;
  int64_t events_emitted_ = 0;
  int max_depth_ = 0;
};

// Parses a complete document into a vector of events.  Returns true on
// success; on failure fills *error if non-null.
bool ParseXmlToEvents(std::string_view document, std::vector<StreamEvent>* out,
                      std::string* error = nullptr,
                      XmlParserOptions options = {});

// Structured-status variant for the serving path.  Unlike the bool form, on
// failure *out still receives the event prefix emitted before the error (no
// kEndDocument), so a server can feed the prefix and Abort() the session for
// a sealed partial result; the returned status classifies the failure.
Status ParseXmlToEvents(std::string_view document, std::vector<StreamEvent>* out,
                        XmlParserOptions options);

}  // namespace spex

#endif  // SPEX_XML_XML_PARSER_H_
