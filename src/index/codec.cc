#include "index/codec.h"

#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile_clock.h"

namespace kadop::index::codec {

namespace {

/// Codec-wide counters. `encode_ns`/`decode_ns` are wall-clock and only
/// move when obs::SetWallClockProfiling(true) has opted this process into
/// nondeterministic timing (micro benches do; nothing under src/ does).
/// In deterministic runs ProfileNowNs() is 0, the deltas are 0, and
/// same-seed metric snapshots stay byte-identical.
struct CodecCounters {
  obs::Counter* encodes;
  obs::Counter* decodes;
  obs::Counter* encode_ns;
  obs::Counter* decode_ns;
};

CodecCounters& C() {
  static CodecCounters c = [] {
    auto& r = obs::MetricRegistry::Default();
    return CodecCounters{
        r.GetCounter("codec.encodes"),   r.GetCounter("codec.decodes"),
        r.GetCounter("codec.encode_ns"), r.GetCounter("codec.decode_ns"),
    };
  }();
  return c;
}

void AppendVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

[[nodiscard]] bool ReadVarint(const uint8_t* data, size_t size, size_t* pos,
                              uint64_t* v) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
  }
  return false;  // > 10 bytes: malformed
}

/// Shared traversal for the encoder and the size function: walks the runs
/// of `list` and feeds each varint (or its length) to `emit`, so
/// `EncodedBytes` is exact by construction.
template <typename Emit>
void WalkEncoded(const PostingList& list, Emit&& emit) {
  emit(list.size());
  uint32_t prev_peer = 0;
  uint32_t prev_doc = 0;
  size_t i = 0;
  while (i < list.size()) {
    const uint32_t peer = list[i].peer;
    const uint32_t doc = list[i].doc;
    size_t end = i;
    while (end < list.size() && list[end].peer == peer &&
           list[end].doc == doc) {
      ++end;
    }
    emit(peer - prev_peer);
    emit(peer != prev_peer ? doc : doc - prev_doc);
    emit(static_cast<uint64_t>(end - i));
    uint32_t prev_start = 0;
    for (; i < end; ++i) {
      const xml::StructuralId& sid = list[i].sid;
      KADOP_CHECK(sid.end >= sid.start, "codec: sid interval end < start");
      emit(sid.start - prev_start);
      emit(sid.end - sid.start);
      emit(sid.level);
      prev_start = sid.start;
    }
    prev_peer = peer;
    prev_doc = doc;
  }
}

}  // namespace

size_t VarintLen(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

std::vector<uint8_t> EncodePostings(const PostingList& list) {
  KADOP_CHECK(IsSortedPostingList(list), "codec: encoding an unsorted list");
  const uint64_t t0 = obs::ProfileNowNs();
  std::vector<uint8_t> out;
  out.reserve(list.size() * 6 + 4);
  WalkEncoded(list, [&out](uint64_t v) { AppendVarint(out, v); });
  C().encodes->Increment();
  C().encode_ns->Increment(obs::ProfileNowNs() - t0);
  return out;
}

Status DecodePostings(const uint8_t* data, size_t size, PostingList* out) {
  const uint64_t t0 = obs::ProfileNowNs();
  out->clear();
  size_t pos = 0;
  uint64_t count = 0;
  if (!ReadVarint(data, size, &pos, &count)) {
    return Status::Corruption("codec: truncated posting count");
  }
  // Every posting needs >= 3 payload bytes; reject counts the buffer can't
  // possibly hold before reserving.
  if (count > (size - pos) / 3 + 1) {
    return Status::Corruption("codec: posting count exceeds buffer");
  }
  out->reserve(count);
  uint32_t prev_peer = 0;
  uint32_t prev_doc = 0;
  while (out->size() < count) {
    uint64_t dpeer = 0;
    uint64_t doc_field = 0;
    uint64_t run_len = 0;
    if (!ReadVarint(data, size, &pos, &dpeer) ||
        !ReadVarint(data, size, &pos, &doc_field) ||
        !ReadVarint(data, size, &pos, &run_len)) {
      return Status::Corruption("codec: truncated run header");
    }
    const uint64_t peer = prev_peer + dpeer;
    const uint64_t doc = dpeer != 0 ? doc_field : prev_doc + doc_field;
    if (run_len == 0 || run_len > count - out->size() ||
        peer > std::numeric_limits<uint32_t>::max() ||
        doc > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("codec: malformed run header");
    }
    uint64_t prev_start = 0;
    for (uint64_t k = 0; k < run_len; ++k) {
      uint64_t dstart = 0;
      uint64_t width = 0;
      uint64_t level = 0;
      if (!ReadVarint(data, size, &pos, &dstart) ||
          !ReadVarint(data, size, &pos, &width) ||
          !ReadVarint(data, size, &pos, &level)) {
        return Status::Corruption("codec: truncated posting");
      }
      const uint64_t start = prev_start + dstart;
      const uint64_t sid_end = start + width;
      if (sid_end > std::numeric_limits<uint32_t>::max() ||
          level > std::numeric_limits<uint16_t>::max()) {
        return Status::Corruption("codec: posting field overflow");
      }
      Posting p;
      p.peer = static_cast<uint32_t>(peer);
      p.doc = static_cast<uint32_t>(doc);
      p.sid.start = static_cast<uint32_t>(start);
      p.sid.end = static_cast<uint32_t>(sid_end);
      p.sid.level = static_cast<uint16_t>(level);
      out->push_back(p);
      prev_start = static_cast<uint32_t>(start);
    }
    prev_peer = static_cast<uint32_t>(peer);
    prev_doc = static_cast<uint32_t>(doc);
  }
  if (pos != size) {
    return Status::Corruption("codec: trailing bytes after postings");
  }
  C().decodes->Increment();
  C().decode_ns->Increment(obs::ProfileNowNs() - t0);
  return Status::OK();
}

Status DecodePostings(const std::vector<uint8_t>& buffer, PostingList* out) {
  return DecodePostings(buffer.data(), buffer.size(), out);
}

size_t EncodedBytes(const PostingList& list) {
  size_t total = 0;
  WalkEncoded(list, [&total](uint64_t v) { total += VarintLen(v); });
  return total;
}

}  // namespace kadop::index::codec
