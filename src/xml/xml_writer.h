// Serializes a stream of document messages back to XML text.

#ifndef SPEX_XML_XML_WRITER_H_
#define SPEX_XML_XML_WRITER_H_

#include <string>
#include <vector>

#include "xml/stream_event.h"

namespace spex {

struct XmlWriterOptions {
  // If >= 0, pretty-print with this many spaces per nesting level; if < 0,
  // emit a compact single-line serialization.
  int indent = -1;
  // Emit an <?xml version="1.0"?> declaration on kStartDocument.
  bool declaration = false;
  // Serialize "@name" virtual child elements (XmlParserOptions::
  // expose_attributes) back into real attributes, restoring round-trips:
  // <a> <@id> "7" </@id> ...  ->  <a id="7">...
  bool fold_attributes = true;
};

// An EventSink that serializes incoming document messages to an internal
// buffer.  <$> and </$> produce no output (beyond the optional declaration).
class XmlWriter : public EventSink {
 public:
  explicit XmlWriter(XmlWriterOptions options = {});

  void OnEvent(const StreamEvent& event) override;

  // The serialization produced so far.  With fold_attributes (default) the
  // most recent start tag may still be open ("<a" without '>') until the
  // next non-attribute event decides that no attributes follow.
  const std::string& str() const { return out_; }
  // Moves the serialization out and resets the writer (as Clear()).
  std::string Release();
  void Clear();

  // Escapes '<', '>', '&' in character data.
  static std::string EscapeText(const std::string& text);
  // Escapes '<', '&' and the quote character in attribute values.
  static std::string EscapeAttribute(const std::string& value);

 private:
  void Indent();
  // Closes a start tag left open for possible attribute children.
  void FinishOpenTag();

  XmlWriterOptions options_;
  std::string out_;
  int depth_ = 0;
  bool at_line_start_ = true;
  // A "<name" whose '>' is withheld while @-children may still arrive.
  bool tag_open_ = false;
  // Inside an "@name" virtual element: collect its text as the value.
  bool in_attribute_ = false;
  std::string attribute_name_;
  std::string attribute_value_;
};

// Serializes a complete event vector.
std::string EventsToXml(const std::vector<StreamEvent>& events,
                        XmlWriterOptions options = {});

}  // namespace spex

#endif  // SPEX_XML_XML_WRITER_H_
