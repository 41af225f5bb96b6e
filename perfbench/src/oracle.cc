#include "src/oracle.h"

#include <algorithm>

#include "query/local_eval.h"

namespace kadop::perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t TupleHash(const std::vector<xml::StructuralId>& tuple) {
  uint64_t h = Mix(tuple.size());
  for (const xml::StructuralId& sid : tuple) {
    h = Mix(h ^ ((static_cast<uint64_t>(sid.start) << 32) | sid.end));
    h = Mix(h ^ sid.level);
  }
  return h;
}

AnswerDigest Digest(const std::vector<query::Answer>& answers,
                    const std::function<bool(const index::DocId&)>& keep) {
  AnswerDigest out;
  for (const query::Answer& a : answers) {
    // Answers arrive grouped by document; a document seen again later
    // simply gets a second entry, merged by the check.
    if (out.empty() || out.back().first != a.doc) {
      out.emplace_back(a.doc, DocDigest{});
      out.back().second.kept = keep(a.doc);
    }
    DocDigest& d = out.back().second;
    d.count++;
    d.hash_sum += TupleHash(a.elements);
    if (d.kept) d.tuples.push_back(a.elements);
  }
  return out;
}

const Oracle::Expect& Oracle::Expected(const std::string& xpath,
                                       const query::TreePattern& pattern,
                                       size_t ordinal,
                                       const xml::Document& doc) {
  auto [it, inserted] = memo_.try_emplace({xpath, ordinal});
  if (inserted) {
    Expect& e = it->second;
    for (query::Answer& a :
         query::EvaluateOnDocument(pattern, doc, index::DocId{})) {
      e.hash_sum += TupleHash(a.elements);
      e.tuples.push_back(std::move(a.elements));
    }
    std::sort(e.tuples.begin(), e.tuples.end());
  }
  return it->second;
}

long PublishedSet::OrdinalOf(const xml::Document* doc) const {
  const auto it = ordinal_.find(doc);
  return it == ordinal_.end() ? -1 : static_cast<long>(it->second);
}

bool PublishedSet::AckedBy(const xml::Document* doc, double t) const {
  const auto it = acked_at_.find(doc);
  return it != acked_at_.end() && it->second <= t;
}

std::string CheckAnswers(
    Oracle& oracle, core::KadopNet& net, const PublishedSet& published,
    const std::string& xpath, const query::TreePattern& pattern,
    const AnswerDigest& digest,
    const std::function<bool(const xml::Document*)>& must_be_complete) {
  std::map<index::DocId, DocDigest> merged;
  for (const auto& [id, d] : digest) {
    DocDigest& m = merged[id];
    m.count += d.count;
    m.hash_sum += d.hash_sum;
    m.kept = m.kept || d.kept;
    m.tuples.insert(m.tuples.end(), d.tuples.begin(), d.tuples.end());
  }

  std::unordered_map<const xml::Document*, const DocDigest*> answered;
  for (auto& [id, got] : merged) {
    if (id.peer >= net.PeerCount()) {
      return "answer names unknown peer " + id.ToString();
    }
    const xml::Document* doc = net.peer(id.peer)->doc_store().Get(id.doc);
    const long ordinal = doc == nullptr ? -1 : published.OrdinalOf(doc);
    if (ordinal < 0) {
      return "answer names unpublished document " + id.ToString();
    }
    const Oracle::Expect& expected =
        oracle.Expected(xpath, pattern, static_cast<size_t>(ordinal), *doc);
    if (must_be_complete(doc)) {
      if (got.count != expected.tuples.size() ||
          got.hash_sum != expected.hash_sum) {
        return "document " + id.ToString() + " has " +
               std::to_string(got.count) + " answers, oracle " +
               std::to_string(expected.tuples.size()) +
               (got.count == expected.tuples.size() ? " (different tuples)"
                                                    : "");
      }
    } else {
      if (!got.kept) return "no tuples kept for partial document";
      Tuples tuples = got.tuples;
      std::sort(tuples.begin(), tuples.end());
      if (!std::includes(expected.tuples.begin(), expected.tuples.end(),
                         tuples.begin(), tuples.end())) {
        return "unsound answers in document " + id.ToString();
      }
    }
    answered[doc] = &got;
  }
  for (const auto& [ordinal, doc] : published.docs()) {
    if (!must_be_complete(doc) || answered.count(doc) > 0) continue;
    const Oracle::Expect& expected =
        oracle.Expected(xpath, pattern, ordinal, *doc);
    if (!expected.tuples.empty()) {
      return "document ordinal " + std::to_string(ordinal) + " missing " +
             std::to_string(expected.tuples.size()) + " answers";
    }
  }
  return "";
}

}  // namespace kadop::perfbench
