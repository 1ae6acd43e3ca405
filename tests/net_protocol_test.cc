// Wire-protocol codec battery (DESIGN.md §15): round-trips every frame
// type, proves the incremental decoder is chunking-independent by splitting
// a multi-frame byte string at every offset, and drives the decoder through
// a malformed/truncated/oversized corpus plus a seeded deterministic fuzz —
// asserting throughout that buffered memory stays bounded and that a
// framing violation poisons the decoder instead of resynchronizing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/wire_protocol.h"

namespace spex {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Typed round-trips: Encode → decoder → Parse reproduces every field.

// Decodes exactly one frame from a full encoded byte string.
Frame MustDecodeOne(FrameDecoder* decoder, const std::string& bytes) {
  EXPECT_TRUE(decoder->Append(bytes).ok()) << decoder->status().ToString();
  Frame frame;
  EXPECT_TRUE(decoder->Next(&frame)) << decoder->status().ToString();
  return frame;
}

TEST(NetProtocol, HelloRoundTrip) {
  HelloFrame in;
  in.min_version = 1;
  in.max_version = 7;
  in.client_name = "soak-worker-3";
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kHello);
  HelloFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.min_version, 1);
  EXPECT_EQ(out.max_version, 7);
  EXPECT_EQ(out.client_name, "soak-worker-3");
}

TEST(NetProtocol, WelcomeRoundTrip) {
  WelcomeFrame in;
  in.version = 1;
  in.max_frame_bytes = 1234567;
  in.banner = "spex test";
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kWelcome);
  WelcomeFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.version, 1);
  EXPECT_EQ(out.max_frame_bytes, 1234567u);
  EXPECT_EQ(out.banner, "spex test");
}

TEST(NetProtocol, PrepareRoundTrip) {
  PrepareFrame in;
  in.kind = PrepareFrame::kPopulation;
  in.text = "_*.a[b].c\n_*.title";
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kPrepare);
  PrepareFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.kind, PrepareFrame::kPopulation);
  EXPECT_EQ(out.text, "_*.a[b].c\n_*.title");
}

TEST(NetProtocol, PreparedRoundTrip) {
  PreparedFrame in;
  in.handle = 42;
  in.slots = 17;
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kPrepared);
  PreparedFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.handle, 42u);
  EXPECT_EQ(out.slots, 17u);
}

TEST(NetProtocol, StreamRoundTripWithBinaryChunk) {
  std::string chunk;
  for (int i = 0; i < 256; ++i) chunk.push_back(static_cast<char>(i));
  StreamFrame in;
  in.handle = 3;
  in.doc_id = 9;
  in.chunk = chunk;
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kStream);
  StreamFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.handle, 3u);
  EXPECT_EQ(out.doc_id, 9u);
  EXPECT_EQ(std::string(out.chunk), chunk);
}

TEST(NetProtocol, EndDocRoundTrip) {
  EndDocFrame in;
  in.handle = 5;
  in.doc_id = 12;
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kEndDoc);
  EndDocFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.handle, 5u);
  EXPECT_EQ(out.doc_id, 12u);
}

TEST(NetProtocol, ResultRoundTrip) {
  ResultFrame in;
  in.doc_id = 8;
  in.slot = 2;
  in.certain = 0;
  in.fragment = "<title>found</title>";
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kResult);
  ResultFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.doc_id, 8u);
  EXPECT_EQ(out.slot, 2u);
  EXPECT_EQ(out.certain, 0);
  EXPECT_EQ(std::string(out.fragment), "<title>found</title>");
}

TEST(NetProtocol, ResultEncodeToAppendsTheEncodedFrame) {
  // The server encodes RESULT frames straight into a connection's write
  // buffer: EncodeTo must append exactly Encode()'s bytes, which keep the
  // v1 layout (length, type, doc_id, slot, certain, fragment).
  const std::string big(70000, 'x');
  struct Case {
    uint32_t doc_id;
    uint32_t slot;
    uint8_t certain;
    std::string_view fragment;
  };
  const Case cases[] = {{8, 2, 0, "<title>found</title>"},
                        {1, 0, 1, ""},
                        {0xfffffffe, 0x01020304, 1, "<a/>"},
                        {77, 5, 0, big}};
  for (const Case& c : cases) {
    ResultFrame in;
    in.doc_id = c.doc_id;
    in.slot = c.slot;
    in.certain = c.certain;
    in.fragment = c.fragment;
    std::string expected;
    auto put_u32 = [&expected](uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        expected.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
    };
    put_u32(9 + static_cast<uint32_t>(c.fragment.size()));
    expected.push_back(static_cast<char>(FrameType::kResult));
    put_u32(c.doc_id);
    put_u32(c.slot);
    expected.push_back(static_cast<char>(c.certain));
    expected.append(c.fragment);
    EXPECT_EQ(in.Encode(), expected);
    std::string buffer = "pending bytes";
    in.EncodeTo(&buffer);
    EXPECT_EQ(buffer, "pending bytes" + in.Encode());
    in.EncodeTo(&buffer);  // back to back, as PumpResults appends them
    EXPECT_EQ(buffer, "pending bytes" + in.Encode() + in.Encode());
  }
}

TEST(NetProtocol, DocDoneRoundTrip) {
  DocDoneFrame in;
  in.doc_id = 8;
  in.certain = 3;
  in.total = 5;
  FrameDecoder decoder;
  Frame frame = MustDecodeOne(&decoder, in.Encode());
  EXPECT_EQ(frame.type, FrameType::kDocDone);
  DocDoneFrame out;
  ASSERT_TRUE(out.Parse(frame.payload).ok());
  EXPECT_EQ(out.doc_id, 8u);
  EXPECT_EQ(out.certain, 3u);
  EXPECT_EQ(out.total, 5u);
}

TEST(NetProtocol, ErrorRoundTripEveryStatusCode) {
  for (int code = 0; code < kStatusCodeCount; ++code) {
    ErrorFrame in;
    in.doc_id = 4;
    in.code = static_cast<StatusCode>(code);
    in.certain = 1;
    in.total = 2;
    in.retry_after_ms = code == static_cast<int>(StatusCode::kUnavailable)
                            ? 1500u
                            : 0u;
    in.message = std::string("status ") + StatusCodeName(in.code);
    FrameDecoder decoder;
    Frame frame = MustDecodeOne(&decoder, in.Encode());
    EXPECT_EQ(frame.type, FrameType::kError);
    ErrorFrame out;
    ASSERT_TRUE(out.Parse(frame.payload).ok()) << code;
    EXPECT_EQ(out.doc_id, 4u);
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.certain, 1u);
    EXPECT_EQ(out.total, 2u);
    EXPECT_EQ(out.retry_after_ms, in.retry_after_ms);
    EXPECT_EQ(out.message, in.message);
  }
}

TEST(NetProtocol, OpaqueFramesRoundTrip) {
  for (FrameType type :
       {FrameType::kPing, FrameType::kPong, FrameType::kDrain}) {
    FrameDecoder decoder;
    Frame frame = MustDecodeOne(&decoder, EncodeFrame(type, "opaque"));
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(std::string(frame.payload), "opaque");
  }
}

TEST(NetProtocol, FrameTypeNames) {
  EXPECT_STREQ(FrameTypeName(FrameType::kHello), "hello");
  EXPECT_STREQ(FrameTypeName(FrameType::kDrain), "drain");
  EXPECT_STREQ(FrameTypeName(static_cast<FrameType>(0x42)), "unknown");
  EXPECT_TRUE(IsKnownFrameType(0x01));
  EXPECT_TRUE(IsKnownFrameType(0x87));
  EXPECT_FALSE(IsKnownFrameType(0x00));
  EXPECT_FALSE(IsKnownFrameType(0x42));
  EXPECT_FALSE(IsKnownFrameType(0xff));
}

// ---------------------------------------------------------------------------
// Chunking independence: a TCP stream can split the byte sequence anywhere;
// the decoder must produce the identical frame sequence for every split.

std::string WireConversation() {
  std::string bytes;
  HelloFrame hello;
  hello.client_name = "split";
  bytes += hello.Encode();
  PrepareFrame prepare;
  prepare.text = "_*.a[b].c";
  bytes += prepare.Encode();
  StreamFrame stream;
  stream.handle = 1;
  stream.doc_id = 1;
  stream.chunk = "<doc><a><b/><c>x</c></a></doc>";
  bytes += stream.Encode();
  EndDocFrame end;
  end.handle = 1;
  end.doc_id = 1;
  bytes += end.Encode();
  bytes += EncodeFrame(FrameType::kPing, "p");
  return bytes;
}

struct DecodedFrame {
  FrameType type;
  std::string payload;
};

std::vector<DecodedFrame> DecodeAll(FrameDecoder* decoder) {
  std::vector<DecodedFrame> out;
  Frame frame;
  while (decoder->Next(&frame)) {
    out.push_back({frame.type, std::string(frame.payload)});
  }
  return out;
}

TEST(NetProtocol, SplitAtEveryByteOffsetDecodesIdentically) {
  const std::string bytes = WireConversation();

  FrameDecoder reference_decoder;
  ASSERT_TRUE(reference_decoder.Append(bytes).ok());
  const std::vector<DecodedFrame> reference = DecodeAll(&reference_decoder);
  ASSERT_EQ(reference.size(), 5u);

  for (size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Append(bytes.substr(0, split)).ok()) << split;
    std::vector<DecodedFrame> got = DecodeAll(&decoder);
    ASSERT_TRUE(decoder.Append(bytes.substr(split)).ok()) << split;
    for (const DecodedFrame& f : DecodeAll(&decoder)) got.push_back(f);

    ASSERT_EQ(got.size(), reference.size()) << "split at " << split;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, reference[i].type) << "split " << split;
      EXPECT_EQ(got[i].payload, reference[i].payload) << "split " << split;
    }
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "split " << split;
  }
}

TEST(NetProtocol, OneByteAtATimeDecodesIdentically) {
  const std::string bytes = WireConversation();
  FrameDecoder decoder;
  std::vector<DecodedFrame> got;
  for (char byte : bytes) {
    ASSERT_TRUE(decoder.Append(std::string_view(&byte, 1)).ok());
    for (const DecodedFrame& f : DecodeAll(&decoder)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].type, FrameType::kHello);
  EXPECT_EQ(got[4].type, FrameType::kPing);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Adversarial corpus: oversized prefixes, unknown types, truncation.

// Builds the 5 header bytes for (length, type) without any payload.
std::string Header(uint32_t length, uint8_t type) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  out.push_back(static_cast<char>(type));
  return out;
}

TEST(NetProtocol, OversizedLengthRejectedFromHeaderAlone) {
  FrameDecoder decoder(4096);
  // 4 GiB declared; only 5 bytes ever enter the decoder.
  Status status =
      decoder.Append(Header(0xffffffffu, static_cast<uint8_t>(FrameType::kStream)));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes);
  // Poison is sticky: later appends keep failing, no frame comes out.
  EXPECT_FALSE(decoder.Append("more bytes").ok());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, OversizedLengthJustPastCapRejected) {
  FrameDecoder decoder(1024);
  EXPECT_FALSE(
      decoder.Append(Header(1025, static_cast<uint8_t>(FrameType::kPing))).ok());
  // Exactly at the cap is fine.
  FrameDecoder ok_decoder(1024);
  EXPECT_TRUE(
      ok_decoder.Append(Header(1024, static_cast<uint8_t>(FrameType::kPing)))
          .ok());
}

TEST(NetProtocol, UnknownFrameTypePoisons) {
  FrameDecoder decoder;
  Status status = decoder.Append(Header(0, 0x42));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(NetProtocol, LaterFrameHeaderStillValidated) {
  // A valid frame followed by a poisonous header in the same Append: the
  // valid frame decodes, then the decoder poisons on the second header.
  std::string bytes = EncodeFrame(FrameType::kPing, "ok");
  bytes += Header(0xfffffff0u, static_cast<uint8_t>(FrameType::kStream));
  FrameDecoder decoder(4096);
  // Append may or may not report the poison immediately (the bad header is
  // not at the buffer front); Next must surface it after the good frame.
  decoder.Append(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, TruncatedFrameWaitsWithoutPoison) {
  const std::string bytes = EncodeFrame(FrameType::kPing, "0123456789");
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Append(bytes.substr(0, keep)).ok()) << keep;
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << keep;
    EXPECT_TRUE(decoder.status().ok()) << keep;
    EXPECT_EQ(decoder.buffered_bytes(), keep);
  }
}

TEST(NetProtocol, ResetClearsPoison) {
  FrameDecoder decoder(64);
  EXPECT_FALSE(decoder.Append(Header(65, 0x01)).ok());
  decoder.Reset();
  EXPECT_TRUE(decoder.status().ok());
  Frame frame = MustDecodeOne(&decoder, EncodeFrame(FrameType::kPing, ""));
  EXPECT_EQ(frame.type, FrameType::kPing);
}

TEST(NetProtocol, BufferStaysBoundedAcrossManyFrames) {
  // Long-lived connection: stream thousands of frames through one decoder;
  // lazy compaction must keep the buffer near one frame, not the total.
  FrameDecoder decoder;
  const std::string frame_bytes = EncodeFrame(FrameType::kPing, std::string(100, 'x'));
  Frame frame;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(decoder.Append(frame_bytes).ok());
    ASSERT_TRUE(decoder.Next(&frame));
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Typed Parse rejection: every struct refuses payloads shorter than its
// fixed fields and any field-level invariant violations.

TEST(NetProtocol, TypedParseRejectsShortPayloads) {
  // Each (frame, minimum fixed bytes) pair; every strictly shorter payload
  // must yield kInvalidArgument.
  const struct {
    const char* name;
    size_t fixed_bytes;
    Status (*parse)(std::string_view);
  } cases[] = {
      {"hello", 4,
       [](std::string_view p) { HelloFrame f; return f.Parse(p); }},
      {"welcome", 6,
       [](std::string_view p) { WelcomeFrame f; return f.Parse(p); }},
      {"prepare", 1,
       [](std::string_view p) { PrepareFrame f; return f.Parse(p); }},
      {"prepared", 8,
       [](std::string_view p) { PreparedFrame f; return f.Parse(p); }},
      {"stream", 8,
       [](std::string_view p) { StreamFrame f; return f.Parse(p); }},
      {"end_doc", 8,
       [](std::string_view p) { EndDocFrame f; return f.Parse(p); }},
      {"result", 9,
       [](std::string_view p) { ResultFrame f; return f.Parse(p); }},
      {"doc_done", 20,
       [](std::string_view p) { DocDoneFrame f; return f.Parse(p); }},
      {"error", 25,
       [](std::string_view p) { ErrorFrame f; return f.Parse(p); }},
  };
  for (const auto& c : cases) {
    for (size_t len = 0; len < c.fixed_bytes; ++len) {
      const std::string payload(len, '\0');
      Status status = c.parse(payload);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << c.name << " with " << len << " bytes: " << status.ToString();
    }
  }
}

TEST(NetProtocol, HelloRejectsInvertedVersionRange) {
  HelloFrame in;
  in.min_version = 3;
  in.max_version = 1;
  const std::string bytes = in.Encode();
  HelloFrame out;
  Status status =
      out.Parse(std::string_view(bytes).substr(kFrameHeaderBytes));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, PrepareRejectsUnknownKind) {
  std::string payload;
  payload.push_back(7);  // not kQuery/kPopulation
  payload += "_*.a";
  PrepareFrame out;
  EXPECT_EQ(out.Parse(payload).code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, ResultRejectsBadCertainFlag) {
  ResultFrame in;
  in.doc_id = 1;
  in.certain = 1;
  in.fragment = "f";
  std::string bytes = in.Encode();
  bytes[kFrameHeaderBytes + 8] = 2;  // certain flag byte
  ResultFrame out;
  EXPECT_EQ(
      out.Parse(std::string_view(bytes).substr(kFrameHeaderBytes)).code(),
      StatusCode::kInvalidArgument);
}

TEST(NetProtocol, DocDoneRejectsCertainExceedingTotal) {
  DocDoneFrame in;
  in.doc_id = 1;
  in.certain = 6;
  in.total = 6;
  std::string bytes = in.Encode();
  // Bump certain's low byte to 7 while total stays 6.
  bytes[kFrameHeaderBytes + 4] = 7;
  DocDoneFrame out;
  EXPECT_EQ(
      out.Parse(std::string_view(bytes).substr(kFrameHeaderBytes)).code(),
      StatusCode::kInvalidArgument);
}

TEST(NetProtocol, ErrorRejectsOutOfRangeStatusCode) {
  ErrorFrame in;
  in.code = StatusCode::kMalformedInput;
  std::string bytes = in.Encode();
  bytes[kFrameHeaderBytes + 4] = static_cast<char>(kStatusCodeCount);
  ErrorFrame out;
  EXPECT_EQ(
      out.Parse(std::string_view(bytes).substr(kFrameHeaderBytes)).code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Deterministic fuzz: seeded garbage through decoder + typed parsers.  The
// assertions are "never crashes, memory stays bounded, poison is sticky,
// and the behaviour is identical across runs" — the sanitizer presets turn
// this into a memory-safety battery.

uint64_t Next(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

TEST(NetProtocol, FuzzDecoderWithSeededGarbage) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    uint64_t state = seed * 0x9e3779b97f4a7c15ull;
    FrameDecoder decoder(4096);
    size_t frames = 0;
    for (int round = 0; round < 200; ++round) {
      std::string chunk;
      const size_t len = Next(&state) % 64;
      for (size_t i = 0; i < len; ++i) {
        chunk.push_back(static_cast<char>(Next(&state) & 0xff));
      }
      decoder.Append(chunk);
      Frame frame;
      while (decoder.Next(&frame)) ++frames;
      ASSERT_LE(decoder.buffered_bytes(), kFrameHeaderBytes + 4096u);
      if (!decoder.status().ok()) break;  // poison is terminal; stop early
    }
    // Random bytes nearly always hit an unknown type / oversized length in
    // the first header; either way the decoder must be in a coherent state.
    Frame frame;
    if (!decoder.status().ok()) {
      EXPECT_FALSE(decoder.Next(&frame));
    }
  }
}

TEST(NetProtocol, FuzzTypedParsersWithSeededGarbage) {
  uint64_t state = 0xdecafbadull;
  for (int round = 0; round < 2000; ++round) {
    std::string payload;
    const size_t len = Next(&state) % 48;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(Next(&state) & 0xff));
    }
    // Every parser must either accept or return kInvalidArgument — never
    // crash, never read past the payload (asan enforces the latter).
    HelloFrame hello;
    WelcomeFrame welcome;
    PrepareFrame prepare;
    PreparedFrame prepared;
    StreamFrame stream;
    EndDocFrame end_doc;
    ResultFrame result;
    DocDoneFrame doc_done;
    ErrorFrame error;
    for (Status status :
         {hello.Parse(payload), welcome.Parse(payload), prepare.Parse(payload),
          prepared.Parse(payload), stream.Parse(payload),
          end_doc.Parse(payload), result.Parse(payload),
          doc_done.Parse(payload), error.Parse(payload)}) {
      EXPECT_TRUE(status.ok() ||
                  status.code() == StatusCode::kInvalidArgument)
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace spex
