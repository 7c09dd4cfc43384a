// Robustness matrix for the daemon's wire protocol (serve/protocol.h).
//
// Mirrors parser_mutation_test.cc: valid byte streams are truncated at
// every boundary, mutated with a seeded PRNG, fed byte-by-byte and in
// adversarial chunkings — and the `FrameReader` must never crash, never
// buffer past the declared-frame cap, and never spin (every Poll consumes
// input or reports kNeedMore/kError).  The admission half asserts the
// reserve/release pairing that keeps a hostile stream from leaking tenant
// slots.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/tenant.h"

namespace tpc {
namespace serve {
namespace {

// ---- Encode/decode round trips ----

TEST(ProtocolTest, HelloRoundTrip) {
  const std::string bytes = EncodeHello("tenant-1.prod");
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  ASSERT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kFrame) << error;
  ASSERT_EQ(frame.type, FrameType::kHello);
  HelloFrame hello;
  ASSERT_TRUE(DecodeHello(frame.payload, &hello, &error)) << error;
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.tenant_id, "tenant-1.prod");
  EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kNeedMore);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ProtocolTest, QueryRoundTrip) {
  const std::string bytes =
      EncodeQuery(42, Mode::kStrong, "a/b[c]", "a//b[.//c]");
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  ASSERT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kFrame);
  ASSERT_EQ(frame.type, FrameType::kQuery);
  QueryFrame query;
  ASSERT_TRUE(DecodeQuery(frame.payload, &query, &error)) << error;
  EXPECT_EQ(query.request_id, 42u);
  EXPECT_EQ(query.mode, Mode::kStrong);
  EXPECT_EQ(query.p, "a/b[c]");
  EXPECT_EQ(query.q, "a//b[.//c]");
}

TEST(ProtocolTest, ResponseRoundTrip) {
  ResponseFrame in;
  in.request_id = 7;
  in.status = WireStatus::kShedOverload;
  in.contained = false;
  in.retryable = true;
  in.retry_after_ms = 250;
  in.detail = "try later";
  const std::string bytes = EncodeResponse(in);
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  ASSERT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResponse);
  ResponseFrame out;
  ASSERT_TRUE(DecodeResponse(frame.payload, &out, &error)) << error;
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.status, WireStatus::kShedOverload);
  EXPECT_TRUE(out.retryable);
  EXPECT_EQ(out.retry_after_ms, 250u);
  EXPECT_EQ(out.detail, "try later");
}

TEST(ProtocolTest, ByteAtATimeFeedingYieldsSameFrames) {
  std::string stream = EncodeHello("t");
  stream += EncodeQuery(1, Mode::kWeak, "a", "a//b");
  stream += EncodeStatsRequest();
  stream += EncodeGoodbye();
  FrameReader reader;
  std::vector<FrameType> types;
  Frame frame;
  std::string error;
  for (char c : stream) {
    reader.Feed(&c, 1);
    while (reader.Poll(&frame, &error) == FrameReader::Result::kFrame) {
      types.push_back(frame.type);
    }
    ASSERT_FALSE(reader.errored()) << error;
  }
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], FrameType::kHello);
  EXPECT_EQ(types[1], FrameType::kQuery);
  EXPECT_EQ(types[2], FrameType::kStats);
  EXPECT_EQ(types[3], FrameType::kGoodbye);
}

// ---- The frozen error-code table ----

TEST(ProtocolTest, WireStatusNumberingIsFrozen) {
  // These values are persisted by clients and orchestrators; changing one
  // is a protocol break, not a refactor.  (README "Error codes".)
  EXPECT_EQ(static_cast<int>(WireStatus::kOk), 0);
  EXPECT_EQ(static_cast<int>(WireStatus::kExhaustedSteps), 1);
  EXPECT_EQ(static_cast<int>(WireStatus::kExhaustedDeadline), 2);
  EXPECT_EQ(static_cast<int>(WireStatus::kExhaustedMemory), 3);
  EXPECT_EQ(static_cast<int>(WireStatus::kCancelledDrain), 4);
  EXPECT_EQ(static_cast<int>(WireStatus::kShedOverload), 5);
  EXPECT_EQ(static_cast<int>(WireStatus::kBadRequest), 6);
  EXPECT_EQ(static_cast<int>(WireStatus::kProtocolError), 7);
  EXPECT_EQ(static_cast<int>(WireStatus::kUnknownTenant), 8);
}

TEST(ProtocolTest, ExhaustionReasonMapping) {
  EXPECT_EQ(WireStatusForReason(ExhaustionReason::kNone), WireStatus::kOk);
  EXPECT_EQ(WireStatusForReason(ExhaustionReason::kSteps),
            WireStatus::kExhaustedSteps);
  EXPECT_EQ(WireStatusForReason(ExhaustionReason::kDeadline),
            WireStatus::kExhaustedDeadline);
  EXPECT_EQ(WireStatusForReason(ExhaustionReason::kMemory),
            WireStatus::kExhaustedMemory);
  EXPECT_EQ(WireStatusForReason(ExhaustionReason::kCancelled),
            WireStatus::kCancelledDrain);
}

TEST(ProtocolTest, RetryableBits) {
  // Steps/deadline: a bigger budget can succeed.  Drain/shed: a successor
  // or a later instant can succeed.  Memory/bad/protocol/unknown: the same
  // request can never succeed as-is.
  EXPECT_FALSE(WireStatusRetryable(WireStatus::kOk));
  EXPECT_TRUE(WireStatusRetryable(WireStatus::kExhaustedSteps));
  EXPECT_TRUE(WireStatusRetryable(WireStatus::kExhaustedDeadline));
  EXPECT_FALSE(WireStatusRetryable(WireStatus::kExhaustedMemory));
  EXPECT_TRUE(WireStatusRetryable(WireStatus::kCancelledDrain));
  EXPECT_TRUE(WireStatusRetryable(WireStatus::kShedOverload));
  EXPECT_FALSE(WireStatusRetryable(WireStatus::kBadRequest));
  EXPECT_FALSE(WireStatusRetryable(WireStatus::kProtocolError));
  EXPECT_FALSE(WireStatusRetryable(WireStatus::kUnknownTenant));
}

// ---- Hostile streams ----

TEST(ProtocolTest, OversizedDeclaredLengthRejectedBeforeBuffering) {
  // Header declaring 512 MiB: the reader must refuse from the 5 header
  // bytes alone, long before a hostile client streams that much.
  std::string header(5, '\0');
  const uint32_t huge = 512u << 20;
  header[0] = static_cast<char>(huge & 0xff);
  header[1] = static_cast<char>((huge >> 8) & 0xff);
  header[2] = static_cast<char>((huge >> 16) & 0xff);
  header[3] = static_cast<char>((huge >> 24) & 0xff);
  header[4] = static_cast<char>(FrameType::kQuery);
  FrameReader reader;
  reader.Feed(header.data(), header.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kError);
  EXPECT_TRUE(reader.errored());
  EXPECT_LE(reader.buffered_bytes(), kFrameHeaderBytes);
  // Sticky: feeding valid bytes afterwards cannot resurrect the stream.
  const std::string good = EncodeGoodbye();
  reader.Feed(good.data(), good.size());
  EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kError);
}

TEST(ProtocolTest, UnknownFrameTypeIsError) {
  std::string bytes = EncodeGoodbye();
  bytes[4] = 99;  // not a FrameType
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Result::kError);
}

TEST(ProtocolTest, TruncationAtEveryBoundaryNeverFalselyFrames) {
  std::string stream = EncodeHello("tenant");
  stream += EncodeQuery(9, Mode::kWeak, "a/b", "a//b");
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    FrameReader reader;
    reader.Feed(stream.data(), cut);
    Frame frame;
    std::string error;
    int frames = 0;
    while (reader.Poll(&frame, &error) == FrameReader::Result::kFrame) {
      ++frames;
      ASSERT_LE(frames, 2);
    }
    ASSERT_FALSE(reader.errored())
        << "a truncated valid stream is incomplete, not invalid (cut="
        << cut << "): " << error;
    // Only fully-delivered frames may have been produced.
    const size_t first_frame_bytes = EncodeHello("tenant").size();
    if (cut < first_frame_bytes) {
      EXPECT_EQ(frames, 0);
    }
    if (cut >= first_frame_bytes && cut < stream.size()) {
      EXPECT_EQ(frames, 1);
    }
  }
}

TEST(ProtocolTest, GarbageTenantIds) {
  EXPECT_FALSE(ValidTenantId(""));
  EXPECT_FALSE(ValidTenantId(std::string(kMaxTenantIdBytes + 1, 'a')));
  EXPECT_FALSE(ValidTenantId(std::string_view("nul\0byte", 8)));
  EXPECT_FALSE(ValidTenantId("spaces are bad"));
  EXPECT_FALSE(ValidTenantId("$(rm -rf /)"));
  EXPECT_FALSE(ValidTenantId("semi;colon"));
  EXPECT_TRUE(ValidTenantId("ok-tenant_1.prod"));
  EXPECT_TRUE(ValidTenantId(std::string(kMaxTenantIdBytes, 'a')));

  // A HELLO whose declared tenant length disagrees with the payload.
  std::string bytes = EncodeHello("abcdef");
  // Payload layout: u32 version, u16 len, bytes.  Bump the length field.
  bytes[kFrameHeaderBytes + 4] = 60;
  HelloFrame hello;
  std::string error;
  EXPECT_FALSE(DecodeHello(
      std::string_view(bytes).substr(kFrameHeaderBytes), &hello, &error));
}

TEST(ProtocolTest, SeededMutationMatrixNeverCrashesOrSpins) {
  std::vector<std::string> seeds;
  seeds.push_back(EncodeHello("tenant-a"));
  seeds.push_back(EncodeQuery(1, Mode::kWeak, "a/b[c]", "a//*"));
  seeds.push_back(EncodeQuery(2, Mode::kStrong, "", ""));
  seeds.push_back(EncodeStatsRequest());
  seeds.push_back(EncodeGoodbye());
  {
    ResponseFrame r;
    r.request_id = 3;
    r.detail = "detail bytes";
    seeds.push_back(EncodeResponse(r));
  }
  std::string all;
  for (const std::string& s : seeds) all += s;
  seeds.push_back(all);

  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = seeds[rng() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      if (bytes.empty()) break;
      switch (rng() % 4) {
        case 0:  // flip a byte
          bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
          break;
        case 1:  // truncate
          bytes.resize(rng() % bytes.size());
          break;
        case 2:  // duplicate a chunk
          bytes += bytes.substr(rng() % bytes.size());
          break;
        case 3:  // insert junk
          bytes.insert(rng() % bytes.size(), 1,
                       static_cast<char>(rng() % 256));
          break;
      }
    }
    FrameReader reader;
    // Adversarial chunking: feed in random-sized slices.
    size_t off = 0;
    Frame frame;
    std::string error;
    size_t polls = 0;
    const size_t poll_cap = 2 * bytes.size() + 16;
    while (off < bytes.size() && !reader.errored()) {
      const size_t n = 1 + rng() % 64;
      const size_t take = std::min(n, bytes.size() - off);
      reader.Feed(bytes.data() + off, take);
      off += take;
      FrameReader::Result r;
      while ((r = reader.Poll(&frame, &error)) ==
             FrameReader::Result::kFrame) {
        ASSERT_LE(++polls, poll_cap) << "reader must not spin";
        EXPECT_LE(frame.payload.size(), kMaxPayloadBytes);
        // Decoders must reject or accept without crashing.
        HelloFrame hello;
        QueryFrame query;
        ResponseFrame response;
        DecodeHello(frame.payload, &hello, &error);
        DecodeQuery(frame.payload, &query, &error);
        DecodeResponse(frame.payload, &response, &error);
      }
      ASSERT_LE(++polls, poll_cap);
    }
    EXPECT_LE(reader.buffered_bytes(),
              kMaxPayloadBytes + kFrameHeaderBytes);
  }
}

// ---- Admission slots never leak ----

TEST(TenantAdmissionTest, ReserveReleasePairingUnderChurn) {
  TenantQuota quota;
  quota.max_outstanding = 4;
  TenantRegistry registry(quota);
  Tenant* tenant = registry.Resolve("churn");
  ASSERT_NE(tenant, nullptr);

  std::mt19937_64 rng(7);
  int held = 0;
  for (int i = 0; i < 10000; ++i) {
    uint32_t retry_after_ms = 0;
    if (rng() % 2 == 0) {
      if (registry.TryReserve(tenant, &retry_after_ms)) {
        ++held;
        EXPECT_LE(held, 4);
      } else {
        EXPECT_EQ(held, 4) << "refusal only at the cap";
        EXPECT_GT(retry_after_ms, 0u);
      }
    } else if (held > 0) {
      registry.ReleaseSlot(tenant);
      --held;
    }
  }
  while (held-- > 0) registry.ReleaseSlot(tenant);
  EXPECT_EQ(tenant->outstanding(), 0)
      << "every reservation must be returned exactly once";
}

TEST(TenantAdmissionTest, RegistryPolicies) {
  TenantQuota strict;
  strict.max_outstanding = 1;
  TenantRegistry required(strict, /*require_registered=*/true);
  EXPECT_EQ(required.Resolve("stranger"), nullptr);
  ASSERT_TRUE(required.Register("member", strict));
  EXPECT_NE(required.Resolve("member"), nullptr);
  EXPECT_FALSE(required.Register("member", strict))
      << "quotas are immutable once registered";
  EXPECT_FALSE(required.Register("bad id!", strict));

  TenantRegistry small(TenantQuota{}, false, /*max_tenants=*/2);
  EXPECT_NE(small.Resolve("a"), nullptr);
  EXPECT_NE(small.Resolve("b"), nullptr);
  EXPECT_EQ(small.Resolve("c"), nullptr) << "directory is bounded";
  EXPECT_NE(small.Resolve("a"), nullptr) << "existing tenants still resolve";
}

}  // namespace
}  // namespace serve
}  // namespace tpc
