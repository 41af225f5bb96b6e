#ifndef KADOP_PERFBENCH_ORACLE_H_
#define KADOP_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/kadop.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"
#include "xml/node.h"

namespace kadop::perfbench {

/// One document's answers as element tuples (the DocId is implied),
/// sorted, so two answer sets compare with ==.
using Tuples = std::vector<std::vector<xml::StructuralId>>;

/// Order-independent digest of one document's answers: the tuple count and
/// the wrapping sum of per-tuple hashes (a multiset hash). Queries keep
/// digests instead of answers, so a run that returns millions of answer
/// tuples does not hold them all until the check. The tuples themselves
/// are kept only where a subset check is needed (see `keep`).
struct DocDigest {
  uint64_t count = 0;
  uint64_t hash_sum = 0;
  bool kept = false;
  Tuples tuples;
};
using AnswerDigest = std::vector<std::pair<index::DocId, DocDigest>>;

uint64_t TupleHash(const std::vector<xml::StructuralId>& tuple);

/// Digests `answers` per document. `keep(doc)` says whether to keep that
/// document's tuples (documents whose answers may legitimately be partial).
AnswerDigest Digest(const std::vector<query::Answer>& answers,
                    const std::function<bool(const index::DocId&)>& keep);

/// Answers computed apart from the index: `query::EvaluateOnDocument` over
/// the generated document trees, memoized per (pattern, document ordinal in
/// the workload's corpus) because a round repeats each pattern many times.
///
/// EvaluateOnDocument feeds the same `query.join.answers` counter as the
/// distributed join, so callers check only after they have read the
/// registry, and never inside a timed phase.
class Oracle {
 public:
  struct Expect {
    Tuples tuples;
    uint64_t hash_sum = 0;
  };
  const Expect& Expected(const std::string& xpath,
                         const query::TreePattern& pattern, size_t ordinal,
                         const xml::Document& doc);

 private:
  std::map<std::pair<std::string, size_t>, Expect> memo_;
};

/// The documents one round published: their ordinals, and when each
/// publish was acknowledged (virtual time; absent = never acknowledged).
class PublishedSet {
 public:
  void Add(const xml::Document* doc, size_t ordinal) {
    ordinal_[doc] = ordinal;
    docs_.emplace_back(ordinal, doc);
  }
  void Ack(const xml::Document* doc, double when) { acked_at_[doc] = when; }

  /// Ordinal of a published document, or -1.
  long OrdinalOf(const xml::Document* doc) const;
  /// True when the document's publish was acknowledged at or before `t`.
  bool AckedBy(const xml::Document* doc, double t) const;
  const std::vector<std::pair<size_t, const xml::Document*>>& docs() const {
    return docs_;
  }

 private:
  std::unordered_map<const xml::Document*, size_t> ordinal_;
  std::unordered_map<const xml::Document*, double> acked_at_;
  std::vector<std::pair<size_t, const xml::Document*>> docs_;
};

/// Checks one query's index answers against the oracle.
///  - Sound: each answered document resolves through its publisher's
///    DocStore to a published document, and its answers are a subset of
///    the oracle's for that document.
///  - Complete: for each published document `must_be_complete` selects,
///    the answers equal the oracle's (documents without answers included).
/// A document that is not `must_be_complete` needs its tuples kept in the
/// digest. Returns "" when the answers pass, else a one-line reason.
std::string CheckAnswers(
    Oracle& oracle, core::KadopNet& net, const PublishedSet& published,
    const std::string& xpath, const query::TreePattern& pattern,
    const AnswerDigest& digest,
    const std::function<bool(const xml::Document*)>& must_be_complete);

}  // namespace kadop::perfbench

#endif  // KADOP_PERFBENCH_ORACLE_H_
