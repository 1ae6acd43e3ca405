#include "xml/xml_writer.h"

#include <utility>

namespace spex {

XmlWriter::XmlWriter(XmlWriterOptions options) : options_(options) {}

std::string XmlWriter::Release() {
  std::string out = std::move(out_);
  Clear();
  return out;
}

void XmlWriter::Clear() {
  out_.clear();
  depth_ = 0;
  at_line_start_ = true;
  tag_open_ = false;
  in_attribute_ = false;
  attribute_name_.clear();
  attribute_value_.clear();
}

std::string XmlWriter::EscapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string XmlWriter::EscapeAttribute(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void XmlWriter::FinishOpenTag() {
  if (tag_open_) {
    out_ += '>';
    tag_open_ = false;
  }
}

void XmlWriter::Indent() {
  if (options_.indent < 0) return;
  if (!out_.empty() && !at_line_start_) out_ += '\n';
  out_.append(static_cast<size_t>(depth_ * options_.indent), ' ');
  at_line_start_ = false;
}

void XmlWriter::OnEvent(const StreamEvent& event) {
  const bool folding = options_.fold_attributes;
  if (in_attribute_) {
    // Between <@name> and </@name>: only text contributes the value.
    if (event.kind == EventKind::kText) {
      attribute_value_ += event.text;
      return;
    }
    if (event.kind == EventKind::kEndElement &&
        event.name == attribute_name_) {
      out_ += ' ';
      out_ += attribute_name_.substr(1);  // drop the '@'
      out_ += "=\"";
      out_ += EscapeAttribute(attribute_value_);
      out_ += '"';
      in_attribute_ = false;
      attribute_name_.clear();
      attribute_value_.clear();
      return;
    }
    // Malformed @-element (should not happen): fall back to closing the
    // tag and emitting literally.
    FinishOpenTag();
  }
  switch (event.kind) {
    case EventKind::kStartDocument:
      if (options_.declaration) {
        out_ += "<?xml version=\"1.0\"?>";
        if (options_.indent >= 0) out_ += '\n';
      }
      break;
    case EventKind::kEndDocument:
      FinishOpenTag();
      if (options_.indent >= 0 && !out_.empty() && out_.back() != '\n') {
        out_ += '\n';
      }
      break;
    case EventKind::kStartElement:
      if (folding && tag_open_ && !event.name.empty() &&
          event.name[0] == '@') {
        in_attribute_ = true;
        attribute_name_ = event.name;
        attribute_value_.clear();
        return;
      }
      FinishOpenTag();
      Indent();
      out_ += '<';
      out_ += event.name;
      if (folding) {
        tag_open_ = true;  // withhold '>' while @-children may arrive
      } else {
        out_ += '>';
      }
      ++depth_;
      break;
    case EventKind::kEndElement:
      FinishOpenTag();
      --depth_;
      Indent();
      out_ += "</";
      out_ += event.name;
      out_ += '>';
      break;
    case EventKind::kText:
      FinishOpenTag();
      Indent();
      out_ += EscapeText(event.text);
      break;
  }
}

std::string EventsToXml(const std::vector<StreamEvent>& events,
                        XmlWriterOptions options) {
  XmlWriter writer(options);
  for (const StreamEvent& e : events) writer.OnEvent(e);
  return writer.str();
}

}  // namespace spex
