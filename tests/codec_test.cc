// Seeded property tests for the posting codec (src/index/codec.h): the
// group-delta + varint encoding must round-trip every sorted posting list
// byte-exactly, EncodedBytes must predict the buffer size without
// allocating, encoded size must be monotone in list length, and malformed
// input must fail with a Corruption status instead of crashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "index/codec.h"
#include "index/posting.h"

namespace kadop::index {
namespace {

/// Clustered random list in canonical order: few peers, ascending docs,
/// random (but valid, end >= start) SIDs, occasional exact duplicates.
PostingList RandomSortedList(std::mt19937_64& rng, size_t n) {
  PostingList list;
  list.reserve(n);
  std::uniform_int_distribution<uint32_t> peer_d(0, 7);
  std::uniform_int_distribution<uint32_t> doc_d(0, 500);
  std::uniform_int_distribution<uint32_t> start_d(1, 1 << 20);
  std::uniform_int_distribution<uint32_t> width_d(0, 1 << 10);
  std::uniform_int_distribution<uint16_t> level_d(0, 24);
  std::uniform_int_distribution<int> dup_d(0, 9);
  while (list.size() < n) {
    const uint32_t start = start_d(rng);
    Posting p{peer_d(rng), doc_d(rng), {start, start + width_d(rng),
                                        level_d(rng)}};
    list.push_back(p);
    if (dup_d(rng) == 0 && list.size() < n) list.push_back(p);  // duplicate
  }
  std::sort(list.begin(), list.end());
  return list;
}

void ExpectRoundtrip(const PostingList& list) {
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  EXPECT_EQ(buf.size(), codec::EncodedBytes(list));
  PostingList decoded;
  const Status st = codec::DecodePostings(buf, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded, list);
}

TEST(CodecTest, RoundtripRandomSortedLists) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    for (size_t n : {0u, 1u, 2u, 17u, 256u, 1000u}) {
      ExpectRoundtrip(RandomSortedList(rng, n));
    }
  }
}

TEST(CodecTest, RoundtripAdversarialLists) {
  ExpectRoundtrip({});
  ExpectRoundtrip({Posting{0, 0, {0, 0, 0}}});
  const uint32_t u32 = std::numeric_limits<uint32_t>::max();
  const uint16_t u16 = std::numeric_limits<uint16_t>::max();
  ExpectRoundtrip({Posting{u32, u32, {u32, u32, u16}}});
  // A full run of exact duplicates (publish retries can store these).
  ExpectRoundtrip(PostingList(64, Posting{3, 9, {100, 200, 5}}));
  // Same (peer, doc) group with many SIDs, including start == end.
  PostingList group;
  for (uint32_t s = 1; s <= 50; ++s) group.push_back({1, 1, {s, s, 7}});
  ExpectRoundtrip(group);
  // Peer changes with doc resetting to a *smaller* absolute value: the
  // doc field must be encoded absolute, not as an unsigned delta.
  ExpectRoundtrip({Posting{0, 400, {5, 6, 1}}, Posting{1, 2, {5, 6, 1}}});
}

TEST(CodecTest, EncodedSizeIsMonotoneInLength) {
  std::mt19937_64 rng(42);
  const PostingList list = RandomSortedList(rng, 500);
  size_t prev = codec::EncodedBytes({});
  for (size_t n = 1; n <= list.size(); ++n) {
    PostingList prefix(list.begin(), list.begin() + static_cast<long>(n));
    const size_t bytes = codec::EncodedBytes(prefix);
    EXPECT_GT(bytes, prev - 1) << "shrank at length " << n;
    EXPECT_GE(bytes, prev) << "not monotone at length " << n;
    prev = bytes;
  }
}

TEST(CodecTest, CompressionBeatsRawOnClusteredLists) {
  std::mt19937_64 rng(7);
  const PostingList list = RandomSortedList(rng, 2000);
  EXPECT_LT(codec::EncodedBytes(list), codec::RawBytes(list));
  // At least 2x on clustered data.
  EXPECT_LE(2 * codec::EncodedBytes(list), codec::RawBytes(list));
}

TEST(CodecTest, TruncatedInputFailsWithCorruption) {
  std::mt19937_64 rng(3);
  const PostingList list = RandomSortedList(rng, 40);
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  for (size_t len = 0; len < buf.size(); ++len) {
    PostingList out;
    const Status st = codec::DecodePostings(buf.data(), len, &out);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }
}

TEST(CodecTest, TrailingBytesFailWithCorruption) {
  std::vector<uint8_t> buf =
      codec::EncodePostings({Posting{1, 2, {3, 4, 1}}});
  buf.push_back(0);
  PostingList out;
  const Status st = codec::DecodePostings(buf, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(CodecTest, AbsurdCountFailsInsteadOfAllocating) {
  // varint(2^60): a malicious count must be rejected by the plausibility
  // check, not turned into a giant reserve.
  const std::vector<uint8_t> buf{0x80, 0x80, 0x80, 0x80, 0x80,
                                 0x80, 0x80, 0x80, 0x10};
  PostingList out;
  EXPECT_EQ(codec::DecodePostings(buf, &out).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace kadop::index
