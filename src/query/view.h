#ifndef KADOP_QUERY_VIEW_H_
#define KADOP_QUERY_VIEW_H_

#include <optional>
#include <string>
#include <vector>

#include "index/posting.h"
#include "index/terms.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {

/// A materialized tree-pattern view (docs/views.md): a registered pattern
/// whose answer set is precomputed and kept fresh in the DHT. The extent is
/// stored *column-wise* — one ordinary posting list per pattern node under
/// `ColumnKey(node)`, holding the document-ordered projection of the answer
/// tuples onto that node — so extents ride the existing B+-tree store,
/// `GetBlocks` streaming and the twig join without any view-specific
/// storage or wire format.
struct ViewDefinition {
  std::string name;
  TreePattern pattern;
  /// Key prefix of this view's extent columns. Contains a catalog-assigned
  /// generation so a re-created view never appends onto a dropped
  /// predecessor's columns ("view:<name>.g<gen>").
  std::string extent_prefix;

  /// Canonical identity of the pattern (catalog lookup key).
  [[nodiscard]] std::string PatternKey() const { return pattern.ToString(); }

  /// DHT key of the extent column for pattern node `node`.
  [[nodiscard]] std::string ColumnKey(size_t node) const {
    return extent_prefix + ":" + std::to_string(node);
  }
};

/// A containment mapping of a view pattern into a query pattern: view node
/// v corresponds to query node `node_map[v]`. `exact` means the patterns
/// are identical (every query node is covered); otherwise the unmapped
/// query nodes are the rewrite's *residual* predicates, evaluated from
/// their base term lists through the twig join.
struct ViewMatch {
  bool exact = false;
  std::vector<int> node_map;

  /// True if query node `q` is the image of some view node.
  [[nodiscard]] bool Covers(int q) const {
    for (int m : node_map) {
      if (m == q) return true;
    }
    return false;
  }
};

/// Sub-pattern containment test (the rewrite soundness argument is in
/// docs/views.md): finds an injective map m from view nodes to query nodes
/// such that every query answer's projection onto the mapped nodes is a
/// view answer — i.e. the query's constraints *imply* the view's:
///   - m preserves node kind and term;
///   - a child-axis view edge maps onto a single child-axis query edge;
///   - a descendant-axis view edge maps onto a strict ancestor chain;
///   - a child-axis view *root* only maps onto a child-axis query root.
/// Returns the lexicographically first mapping (deterministic), preferring
/// the identity when the patterns are equal.
[[nodiscard]] std::optional<ViewMatch> MatchViewPattern(
    const TreePattern& view, const TreePattern& query);

/// Projects an answer set onto per-node extent columns: column v is the
/// sorted, distinct posting list {(doc.peer, doc.doc, elements[v])}. The
/// join of the columns under the view's own pattern re-derives exactly the
/// projected answer set, in document order.
[[nodiscard]] std::vector<index::PostingList> ProjectAnswers(
    const std::vector<Answer>& answers, size_t arity);

/// Evaluates a view pattern over one document's extracted term relation
/// (the `ExtractTerms` output the publisher already has in hand): per-node
/// candidates are the document's postings under the node's term key, joined
/// with the same structural iterator the index query uses — so the result
/// is exactly the document's slice of the global answer set.
[[nodiscard]] std::vector<Answer> ViewAnswersForDoc(
    const TreePattern& pattern,
    const std::vector<index::TermPosting>& postings);

}  // namespace kadop::query

#endif  // KADOP_QUERY_VIEW_H_
