#include "xml/xml_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "obs/metrics.h"
#include "xml/simd_scan.h"

namespace spex {

namespace {

bool AllWhitespace(const std::string& s) {
  for (char c : s) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return false;
  }
  return true;
}

bool SpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool NameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         static_cast<unsigned char>(c) >= 0x80;
}

bool NameChar(char c) {
  return NameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

// 256-entry membership tables for the irregular character classes the bulk
// scanner (scan::FindNotInTable) walks: a run of set bytes is exactly the
// run the per-char machine would have accepted without changing state.
struct ByteTables {
  unsigned char name[256];           // NameChar
  unsigned char name_or_space[256];  // end-tag body: NameChar | space
  unsigned char attr_plain[256];     // start-tag attr region outside quotes:
                                     // space | '/' | '=' | NameChar
};

const ByteTables& Tables() {
  static const ByteTables tables = [] {
    ByteTables t{};
    for (int i = 0; i < 256; ++i) {
      const char c = static_cast<char>(i);
      t.name[i] = NameChar(c) ? 1 : 0;
      t.name_or_space[i] = (NameChar(c) || SpaceChar(c)) ? 1 : 0;
      t.attr_plain[i] =
          (SpaceChar(c) || c == '/' || c == '=' || NameChar(c)) ? 1 : 0;
    }
    return t;
  }();
  return tables;
}

}  // namespace

XmlParser::XmlParser(EventSink* sink, XmlParserOptions options)
    : sink_(sink), options_(options) {
  if (options_.event_batch_size > 1) {
    batch_cap_ = static_cast<size_t>(options_.event_batch_size);
  }
  batch_.resize(batch_cap_);
  if (options_.metrics != nullptr) {
    options_.metrics->AddCallbackGauge("spex_parser_bytes_consumed", {},
                                       [this] { return bytes_consumed_; });
    options_.metrics->AddCallbackGauge("spex_parser_events", {},
                                       [this] { return events_emitted_; });
    options_.metrics->AddCallbackGauge(
        "spex_parser_max_depth", {},
        [this] { return static_cast<int64_t>(max_depth_); });
  }
}

void XmlParser::Emit(EventKind kind, std::string_view name,
                     std::string_view text, Symbol label) {
  ++events_emitted_;
  // Assigning into the batch slot's strings keeps their capacity: a slot
  // reused for a text no longer than any before costs no allocation.
  StreamEvent& event = batch_[batch_used_++];
  event.kind = kind;
  event.name.assign(name);
  event.text.assign(text);
  event.label = label;
  if (batch_used_ >= batch_cap_) FlushBatch();
}

void XmlParser::FlushBatch() {
  if (batch_used_ == 0) return;
  const size_t count = batch_used_;
  batch_used_ = 0;
  if (batch_cap_ <= 1) {
    sink_->OnEvent(batch_[0]);
  } else {
    sink_->OnEventBatch(batch_.data(), count);
  }
}

bool XmlParser::IsSpace(char c) { return SpaceChar(c); }

bool XmlParser::IsNameStartChar(char c) { return NameStartChar(c); }

bool XmlParser::IsNameChar(char c) { return NameChar(c); }

bool XmlParser::Fail(const std::string& message) {
  // The events preceding the error are part of the contract (the serving
  // path feeds the prefix and seals the session): deliver them before the
  // parser goes quiet.
  FlushBatch();
  if (error_.empty()) {
    error_ = message + " (at byte " + std::to_string(bytes_consumed_) + ")";
    error_code_ = StatusCode::kMalformedInput;
  }
  state_ = State::kError;
  return false;
}

bool XmlParser::FailLimit(const std::string& message) {
  FlushBatch();
  if (error_.empty()) {
    error_ = message + " (at byte " + std::to_string(bytes_consumed_) + ")";
    error_code_ = StatusCode::kResourceExhausted;
  }
  state_ = State::kError;
  return false;
}

bool XmlParser::BulkAppend(std::string* token, const char* data, size_t count,
                           const char* what) {
  const size_t limit = options_.max_text_bytes;
  if (limit != 0 && token->size() + count > limit) {
    // Admit exactly what the per-char machine would have: it fails on the
    // first byte that pushes the token past the limit, with that byte
    // appended and counted.
    const size_t admit = limit + 1 - token->size();
    token->append(data, admit);
    bytes_consumed_ += static_cast<int64_t>(admit);
    return FailLimit(std::string(what) + " exceeds max_text_bytes (" +
                     std::to_string(limit) + ")");
  }
  token->append(data, count);
  bytes_consumed_ += static_cast<int64_t>(count);
  return true;
}

bool XmlParser::CheckTokenLimit(const std::string& token, const char* what) {
  if (options_.max_text_bytes != 0 && token.size() > options_.max_text_bytes) {
    return FailLimit(std::string(what) + " exceeds max_text_bytes (" +
                     std::to_string(options_.max_text_bytes) + ")");
  }
  return true;
}

void XmlParser::EmitStartDocumentIfNeeded() {
  if (!document_started_) {
    document_started_ = true;
    if (options_.emit_document_events) {
      Emit(EventKind::kStartDocument, {}, {}, kNoSymbol);
    }
  }
}

void XmlParser::FlushText() {
  if (text_.empty()) return;
  if (!(options_.skip_whitespace_text && AllWhitespace(text_))) {
    if (!open_elements_.empty()) {  // text outside the root is ignored
      EmitStartDocumentIfNeeded();
      Emit(EventKind::kText, {}, text_, kNoSymbol);
    }
  }
  text_.clear();
}

bool XmlParser::EmitStartElement() {
  if (seen_root_ && open_elements_.empty()) {
    return Fail("multiple root elements");
  }
  EmitStartDocumentIfNeeded();
  seen_root_ = true;
  if (options_.max_depth > 0 &&
      static_cast<int>(open_elements_.size()) >= options_.max_depth) {
    return FailLimit("maximum depth exceeded (max_depth " +
                     std::to_string(options_.max_depth) + ")");
  }
  // The element being opened counts even when self-closing.
  max_depth_ =
      std::max(max_depth_, static_cast<int>(open_elements_.size()) + 1);
  const Symbol sym = options_.symbols != nullptr
                         ? options_.symbols->Intern(tag_name_)
                         : kNoSymbol;
  Emit(EventKind::kStartElement, tag_name_, {}, sym);
  if (options_.expose_attributes && !EmitAttributes()) return false;
  if (tag_self_closing_) {
    Emit(EventKind::kEndElement, tag_name_, {}, sym);
  } else {
    open_elements_.push_back(tag_name_);
    open_symbols_.push_back(sym);
  }
  tag_name_.clear();
  tag_rest_.clear();
  tag_self_closing_ = false;
  tag_name_done_ = false;
  return true;
}

bool XmlParser::EmitAttributes() {
  // tag_rest_ holds everything between the element name and '>', with
  // quoting already verified by the feed loop.
  size_t i = 0;
  const std::string& rest = tag_rest_;
  auto skip_space = [&] {
    while (i < rest.size() && IsSpace(rest[i])) ++i;
  };
  for (;;) {
    skip_space();
    if (i >= rest.size()) return true;
    if (rest[i] == '/') {  // the self-closing slash
      ++i;
      continue;
    }
    size_t name_start = i;
    while (i < rest.size() && IsNameChar(rest[i])) ++i;
    if (i == name_start) {
      return Fail("malformed attribute near '" + rest.substr(i, 8) + "'");
    }
    std::string name = rest.substr(name_start, i - name_start);
    skip_space();
    if (i >= rest.size() || rest[i] != '=') {
      return Fail("attribute " + name + " missing '='");
    }
    ++i;
    skip_space();
    if (i >= rest.size() || (rest[i] != '"' && rest[i] != '\'')) {
      return Fail("attribute " + name + " missing quoted value");
    }
    char quote = rest[i++];
    size_t value_start = i;
    while (i < rest.size() && rest[i] != quote) ++i;
    if (i >= rest.size()) {
      return Fail("attribute " + name + " has an unterminated value");
    }
    std::string raw = rest.substr(value_start, i - value_start);
    ++i;
    // Decode entities in the value through the shared text machinery.
    std::string value;
    value.swap(text_);
    for (size_t k = 0; k < raw.size(); ++k) {
      if (raw[k] == '&') {
        entity_buffer_.clear();
        ++k;
        while (k < raw.size() && raw[k] != ';') entity_buffer_ += raw[k++];
        if (k >= raw.size() || !DecodeEntity()) {
          text_.swap(value);
          return Fail("bad entity in attribute " + name);
        }
      } else {
        text_ += raw[k];
      }
    }
    std::string decoded;
    decoded.swap(text_);
    text_.swap(value);
    std::string attr_label = "@" + name;
    const Symbol sym = options_.symbols != nullptr
                           ? options_.symbols->Intern(attr_label)
                           : kNoSymbol;
    Emit(EventKind::kStartElement, attr_label, {}, sym);
    if (!decoded.empty()) Emit(EventKind::kText, {}, decoded, kNoSymbol);
    Emit(EventKind::kEndElement, attr_label, {}, sym);
  }
}

bool XmlParser::EmitEndElement(const std::string& name) {
  if (open_elements_.empty()) {
    return Fail("unbalanced </" + name + ">");
  }
  if (open_elements_.back() != name) {
    return Fail("mismatched </" + name + ">, expected </" +
                open_elements_.back() + ">");
  }
  // The label was resolved at the matching start tag.
  Emit(EventKind::kEndElement, name, {}, open_symbols_.back());
  open_elements_.pop_back();
  open_symbols_.pop_back();
  return true;
}

bool XmlParser::DecodeEntity() {
  const std::string& e = entity_buffer_;
  if (e == "lt") {
    text_ += '<';
  } else if (e == "gt") {
    text_ += '>';
  } else if (e == "amp") {
    text_ += '&';
  } else if (e == "apos") {
    text_ += '\'';
  } else if (e == "quot") {
    text_ += '"';
  } else if (!e.empty() && e[0] == '#') {
    long code = 0;
    if (e.size() > 1 && (e[1] == 'x' || e[1] == 'X')) {
      code = std::strtol(e.c_str() + 2, nullptr, 16);
    } else {
      code = std::strtol(e.c_str() + 1, nullptr, 10);
    }
    if (code <= 0 || code > 0x10FFFF) {
      return Fail("invalid character reference &" + e + ";");
    }
    // UTF-8 encode.
    unsigned long cp = static_cast<unsigned long>(code);
    if (cp < 0x80) {
      text_ += static_cast<char>(cp);
    } else if (cp < 0x800) {
      text_ += static_cast<char>(0xC0 | (cp >> 6));
      text_ += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      text_ += static_cast<char>(0xE0 | (cp >> 12));
      text_ += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      text_ += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      text_ += static_cast<char>(0xF0 | (cp >> 18));
      text_ += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      text_ += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      text_ += static_cast<char>(0x80 | (cp & 0x3F));
    }
  } else {
    return Fail("unknown entity &" + e + ";");
  }
  entity_buffer_.clear();
  return true;
}

bool XmlParser::HandleContentChar(char c) {
  if (in_entity_) {
    if (c == ';') {
      in_entity_ = false;
      return DecodeEntity();
    }
    if (entity_buffer_.size() > 16) return Fail("unterminated entity");
    entity_buffer_ += c;
    return true;
  }
  if (c == '<') {
    FlushText();
    if (!ok()) return false;
    state_ = State::kMarkup;
    return true;
  }
  if (c == '&') {
    in_entity_ = true;
    entity_buffer_.clear();
    return true;
  }
  text_ += c;
  return CheckTokenLimit(text_, "text node");
}

bool XmlParser::HandleMarkupChar(char c) {
  if (c == '/') {
    state_ = State::kEndTag;
    tag_name_.clear();
    return true;
  }
  if (c == '?') {
    state_ = State::kPi;
    pi_prev_ = '\0';
    return true;
  }
  if (c == '!') {
    state_ = State::kBang;
    bang_buffer_.clear();
    return true;
  }
  if (IsNameStartChar(c)) {
    state_ = State::kStartTag;
    tag_name_.assign(1, c);
    tag_rest_.clear();
    tag_self_closing_ = false;
    tag_name_done_ = false;
    return true;
  }
  return Fail(std::string("unexpected character '") + c + "' after '<'");
}

bool XmlParser::HandleStartTagChar(char c) {
  if (!tag_name_done_) {
    if (IsNameChar(c)) {
      tag_name_ += c;
      return CheckTokenLimit(tag_name_, "tag name");
    }
    tag_name_done_ = true;
    // fall through: c terminates the name
  }
  if (c == '>') {
    if (!tag_rest_.empty() && tag_rest_.back() == '/') {
      tag_self_closing_ = true;
    }
    state_ = State::kContent;
    return EmitStartElement();
  }
  if (IsSpace(c) || c == '/' || c == '=' || IsNameChar(c)) {
    // Attribute region: kept only to detect the trailing '/'.  A full
    // attribute well-formedness check is overkill for the paper's data model
    // (quoted values are handled by the caller's quote tracking).
    tag_rest_ += c;
    return CheckTokenLimit(tag_rest_, "attribute region");
  }
  return Fail(std::string("unexpected character '") + c + "' in start tag <" +
              tag_name_);
}

bool XmlParser::HandleEndTagChar(char c) {
  if (c == '>') {
    // Trim trailing spaces: "</a  >" is legal.
    while (!tag_name_.empty() && IsSpace(tag_name_.back())) {
      tag_name_.pop_back();
    }
    if (tag_name_.empty()) return Fail("empty end tag");
    state_ = State::kContent;
    bool ok2 = EmitEndElement(tag_name_);
    tag_name_.clear();
    return ok2;
  }
  if (IsNameChar(c) || IsSpace(c)) {
    tag_name_ += c;
    return CheckTokenLimit(tag_name_, "tag name");
  }
  return Fail(std::string("unexpected character '") + c + "' in end tag");
}

bool XmlParser::Feed(std::string_view chunk) {
  if (state_ == State::kError) return false;
  const char* data = chunk.data();
  const size_t n = chunk.size();
  size_t i = 0;
  while (i < n) {
    // Bulk fast path: consume the maximal run of bytes the current state
    // accepts without a state change (scanned 8/16 bytes at a time, see
    // simd_scan.h), then let the per-char machine below handle the boundary
    // byte.  Every branch is a pure batching of what the per-char machine
    // does byte by byte — event stream, counters and error positions are
    // identical at any chunk split (xml_parser_scan_test.cc).
    switch (state_) {
      case State::kContent:
        if (!in_entity_) {
          const size_t run = scan::FindEither(data + i, n - i, '<', '&');
          if (run > 0) {
            if (!BulkAppend(&text_, data + i, run, "text node")) return false;
            i += run;
            continue;
          }
        }
        break;
      case State::kStartTag:
        if (attr_quote_ != 0) {
          const size_t run = scan::FindByte(
              data + i, n - i, static_cast<unsigned char>(attr_quote_));
          if (run > 0) {
            if (!BulkAppend(&tag_rest_, data + i, run, "attribute region")) {
              return false;
            }
            i += run;
            continue;
          }
        } else if (!tag_name_done_) {
          const size_t run =
              scan::FindNotInTable(data + i, n - i, Tables().name);
          if (run > 0) {
            if (!BulkAppend(&tag_name_, data + i, run, "tag name")) {
              return false;
            }
            i += run;
            continue;
          }
        } else {
          const size_t run =
              scan::FindNotInTable(data + i, n - i, Tables().attr_plain);
          if (run > 0) {
            if (!BulkAppend(&tag_rest_, data + i, run, "attribute region")) {
              return false;
            }
            i += run;
            continue;
          }
        }
        break;
      case State::kEndTag: {
        const size_t run =
            scan::FindNotInTable(data + i, n - i, Tables().name_or_space);
        if (run > 0) {
          if (!BulkAppend(&tag_name_, data + i, run, "tag name")) {
            return false;
          }
          i += run;
          continue;
        }
        break;
      }
      case State::kComment:
        if (comment_dashes_ == 0) {
          const size_t run = scan::FindByte(data + i, n - i, '-');
          if (run > 0) {
            bytes_consumed_ += static_cast<int64_t>(run);
            i += run;
            continue;
          }
        }
        break;
      case State::kCdata:
        if (cdata_brackets_ == 0) {
          const size_t run = scan::FindByte(data + i, n - i, ']');
          if (run > 0) {
            if (!BulkAppend(&text_, data + i, run, "text node")) return false;
            i += run;
            continue;
          }
        }
        break;
      case State::kPi:
        if (pi_prev_ != '?') {
          const size_t run = scan::FindByte(data + i, n - i, '?');
          if (run > 0) {
            bytes_consumed_ += static_cast<int64_t>(run);
            pi_prev_ = data[i + run - 1];
            i += run;
            continue;
          }
        }
        break;
      case State::kDoctype: {
        const size_t run = scan::FindEither(data + i, n - i, '<', '>');
        if (run > 0) {
          bytes_consumed_ += static_cast<int64_t>(run);
          i += run;
          continue;
        }
        break;
      }
      default:
        break;
    }
    const char c = data[i++];
    ++bytes_consumed_;
    switch (state_) {
      case State::kContent:
        if (!HandleContentChar(c)) return false;
        break;
      case State::kMarkup:
        if (!HandleMarkupChar(c)) return false;
        break;
      case State::kStartTag:
        // Quote-aware: inside a quoted attribute value '>' is data.
        if (attr_quote_ != 0) {
          if (c == attr_quote_) attr_quote_ = 0;
          tag_rest_ += c;
          if (!CheckTokenLimit(tag_rest_, "attribute region")) return false;
        } else if (tag_name_done_ && (c == '"' || c == '\'')) {
          attr_quote_ = c;
          tag_rest_ += c;
          if (!CheckTokenLimit(tag_rest_, "attribute region")) return false;
        } else if (!HandleStartTagChar(c)) {
          return false;
        }
        break;
      case State::kEndTag:
        if (!HandleEndTagChar(c)) return false;
        break;
      case State::kBang:
        bang_buffer_ += c;
        if (bang_buffer_ == "--") {
          state_ = State::kComment;
          comment_dashes_ = 0;
        } else if (bang_buffer_ == "[CDATA[") {
          state_ = State::kCdata;
          cdata_brackets_ = 0;
        } else if (bang_buffer_.size() >= 7 &&
                   bang_buffer_.compare(0, 7, "DOCTYPE") == 0) {
          state_ = State::kDoctype;
          doctype_depth_ = 1;  // counts '<' ... '>' nesting incl. the opener
        } else if (bang_buffer_.size() > 7) {
          return Fail("malformed '<!' markup");
        }
        break;
      case State::kComment:
        if (c == '-') {
          ++comment_dashes_;
        } else if (c == '>' && comment_dashes_ >= 2) {
          state_ = State::kContent;
        } else {
          comment_dashes_ = 0;
        }
        break;
      case State::kCdata:
        if (c == ']') {
          ++cdata_brackets_;
        } else if (c == '>' && cdata_brackets_ >= 2) {
          state_ = State::kContent;
          cdata_brackets_ = 0;
        } else {
          while (cdata_brackets_ > 0) {
            text_ += ']';
            --cdata_brackets_;
          }
          text_ += c;
          if (!CheckTokenLimit(text_, "text node")) return false;
        }
        break;
      case State::kPi:
        if (c == '>' && pi_prev_ == '?') {
          state_ = State::kContent;
        }
        pi_prev_ = c;
        break;
      case State::kDoctype:
        if (c == '<') {
          ++doctype_depth_;
        } else if (c == '>') {
          --doctype_depth_;
          if (doctype_depth_ == 0) state_ = State::kContent;
        }
        break;
      case State::kError:
        return false;
    }
  }
  FlushBatch();
  return ok();
}

bool XmlParser::Finish() {
  if (state_ == State::kError) return false;
  if (state_ != State::kContent) {
    return Fail("input ended inside markup");
  }
  if (in_entity_) {
    return Fail("input ended inside entity reference");
  }
  FlushText();
  if (!ok()) return false;
  if (!open_elements_.empty()) {
    return Fail("unclosed <" + open_elements_.back() + "> at end of input");
  }
  if (!seen_root_) {
    return Fail("no root element");
  }
  EmitStartDocumentIfNeeded();
  if (options_.emit_document_events) {
    Emit(EventKind::kEndDocument, {}, {}, kNoSymbol);
  }
  FlushBatch();
  return true;
}

bool XmlParser::Parse(std::string_view document) {
  return Feed(document) && Finish();
}

bool ParseXmlToEvents(std::string_view document, std::vector<StreamEvent>* out,
                      std::string* error, XmlParserOptions options) {
  RecordingEventSink sink;
  XmlParser parser(&sink, options);
  if (!parser.Parse(document)) {
    if (error != nullptr) *error = parser.error();
    return false;
  }
  *out = sink.events();
  return true;
}

Status ParseXmlToEvents(std::string_view document,
                        std::vector<StreamEvent>* out,
                        XmlParserOptions options) {
  RecordingEventSink sink;
  XmlParser parser(&sink, options);
  parser.Parse(document);
  *out = sink.events();
  return parser.status();
}

}  // namespace spex
