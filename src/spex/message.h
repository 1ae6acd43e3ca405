// SPEX network messages (paper Def. 2).
//
// Three kinds of messages travel on the tapes of a SPEX network:
//   * document messages  — the XML stream events themselves (<a>, </a>, <$>,
//     </$>, text),
//   * activation messages [f] — carry a condition formula; they activate the
//     receiving transducer and immediately precede the activating document
//     message,
//   * condition determination messages {c,v} — announce the value v of a
//     condition variable c.
//
// Hot-path layout (see DESIGN.md "Hot path & memory discipline"): a document
// message carries only the cheap core — kind, the event's kind, and its
// interned label symbol — plus a borrowed pointer to the StreamEvent for the
// cold fields (name/text strings, needed only by the output transducer when
// it materializes results).  The engine builds one document message per
// stream event with Message::DocumentRef, and a sweep keeps that one array
// for every tape (sparse tapes, transducer.h): documents are never copied
// or moved between tapes, and the event outlives the synchronous sweep, so
// no copy and no allocation happens anywhere on the routing path, however
// large the network's fan-out.  Message::Document keeps ownership semantics
// for hand-built messages in tests (the event is moved into shared storage).

#ifndef SPEX_SPEX_MESSAGE_H_
#define SPEX_SPEX_MESSAGE_H_

#include <memory>
#include <string>
#include <utility>

#include "spex/formula.h"
#include "xml/stream_event.h"

namespace spex {

enum class MessageKind : uint8_t {
  kDocument,
  kActivation,
  kDetermination,
};

struct Message {
  MessageKind kind = MessageKind::kDocument;
  EventKind event_kind = EventKind::kStartDocument;  // kDocument
  Symbol symbol = kNoSymbol;  // kDocument: interned element label
  // kDocument: the full event.  `payload` is always valid for a document
  // message; `owned` keeps it alive only when the message owns its event
  // (Message::Document) — on the engine's zero-copy path (DocumentRef) the
  // caller guarantees the event outlives the sweep and `owned` stays empty.
  const StreamEvent* payload = nullptr;
  std::shared_ptr<const StreamEvent> owned;
  Formula formula;     // kActivation
  VarId var = 0;       // kDetermination
  bool value = false;  // kDetermination

  // Owning document message: for hand-built streams (tests, examples).
  static Message Document(StreamEvent event) {
    Message m;
    m.kind = MessageKind::kDocument;
    m.event_kind = event.kind;
    m.symbol = event.label;
    m.owned = std::make_shared<const StreamEvent>(std::move(event));
    m.payload = m.owned.get();
    return m;
  }
  // Borrowing document message: the caller keeps `event` alive until the
  // sweep completes (true for the engine, whose fed events outlive the
  // synchronous sweep).
  static Message DocumentRef(const StreamEvent& event) {
    Message m;
    m.kind = MessageKind::kDocument;
    m.event_kind = event.kind;
    m.symbol = event.label;
    m.payload = &event;
    return m;
  }
  static Message Activation(Formula formula) {
    Message m;
    m.kind = MessageKind::kActivation;
    m.formula = std::move(formula);
    return m;
  }
  static Message Determination(VarId var, bool value) {
    Message m;
    m.kind = MessageKind::kDetermination;
    m.var = var;
    m.value = value;
    return m;
  }

  bool is_document() const { return kind == MessageKind::kDocument; }
  bool is_activation() const { return kind == MessageKind::kActivation; }
  bool is_determination() const { return kind == MessageKind::kDetermination; }

  // The event of a document message.  Only valid when is_document().
  const StreamEvent& event() const { return *payload; }

  // True for <a> and <$> (messages that open a tree level).
  bool is_open() const {
    return is_document() && (event_kind == EventKind::kStartElement ||
                             event_kind == EventKind::kStartDocument);
  }
  // True for </a> and </$>.
  bool is_close() const {
    return is_document() && (event_kind == EventKind::kEndElement ||
                             event_kind == EventKind::kEndDocument);
  }
  bool is_text() const {
    return is_document() && event_kind == EventKind::kText;
  }

  // Paper notation: "[f]", "{co0_1,true}", "<a>".
  std::string ToString() const;
};

}  // namespace spex

#endif  // SPEX_SPEX_MESSAGE_H_
