#ifndef HM_PERFBENCH_MODEL_H_
#define HM_PERFBENCH_MODEL_H_

// Reference model of a generated HyperModel database, kept in
// uniqueId space. It is filled by running the §5.2 generator against
// ModelStore, which records every creation call and serves no reads,
// and it computes the expected answer of each §6 operation with its
// own plain code. Answers from a store under test are translated to
// uniqueIds through a RefMap before they are compared.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "hypermodel/types.h"

namespace perfbench {

using Uid = int64_t;

struct ModelEdge {
  Uid node = 0;
  int64_t offset_from = 0;
  int64_t offset_to = 0;
};

struct ModelNode {
  hm::NodeAttrs attrs;
  Uid parent = 0;
  std::vector<Uid> children;
  std::vector<Uid> parts;
  std::vector<Uid> part_of;
  std::vector<ModelEdge> refs_to;
  std::vector<ModelEdge> refs_from;
  std::string text;
  uint32_t form_width = 0;
  uint32_t form_height = 0;
};

class Model {
 public:
  /// Runs the generator with `config` against a recording store.
  static hm::util::Result<Model> Generate(const hm::GeneratorConfig& config);

  size_t size() const { return nodes_.size(); }
  const ModelNode& node(Uid uid) const {
    return nodes_[static_cast<size_t>(uid - 1)];
  }
  /// Structure in uid space (root, levels, text/form nodes).
  const hm::TestDatabase& db() const { return db_; }

  // Expected answers. Sets come back sorted; ordered answers keep the
  // order the operation specifies.
  std::vector<Uid> RangeMillion(int64_t lo, int64_t hi) const;
  std::vector<Uid> Preorder(Uid start) const;
  std::vector<Uid> PreorderPruned(Uid start, int64_t lo, int64_t hi) const;
  std::vector<Uid> PartsClosure(Uid start) const;
  std::vector<Uid> RefClosure(Uid start, int depth) const;
  /// For op 18: every node reachable over at most `depth` refTo edges,
  /// with the offset sums of all such paths to it.
  std::map<Uid, std::set<int64_t>> RefPathSums(Uid start, int depth) const;

  friend class ModelStore;

 private:
  ModelNode& mutable_node(Uid uid) {
    return nodes_[static_cast<size_t>(uid - 1)];
  }

  std::vector<ModelNode> nodes_;
  hm::TestDatabase db_;
};

/// NodeRef <-> uniqueId for one store. The generator assigns uniqueIds
/// in creation order, so the i-th entry of TestDatabase::all_nodes has
/// uniqueId i + 1.
class RefMap {
 public:
  RefMap() = default;
  explicit RefMap(const hm::TestDatabase& db);

  hm::NodeRef ref(Uid uid) const {
    return refs_[static_cast<size_t>(uid - 1)];
  }
  /// 0 for a ref the store never created.
  Uid uid(hm::NodeRef ref) const {
    auto it = uids_.find(ref);
    return it == uids_.end() ? 0 : it->second;
  }
  std::vector<Uid> Uids(const std::vector<hm::NodeRef>& refs) const;
  const std::vector<hm::NodeRef>& refs() const { return refs_; }

 private:
  std::vector<hm::NodeRef> refs_;
  std::unordered_map<hm::NodeRef, Uid> uids_;
};

/// Compares a store's answer with the model's; on a mismatch appends a
/// line to `*why` (when non-null) and returns false.
bool SameList(const std::vector<Uid>& got, const std::vector<Uid>& want,
              const char* what, std::string* why);
bool SameSet(const std::vector<Uid>& got, const std::vector<Uid>& want,
             const char* what, std::string* why);
/// Op 18: the node set equals the reachable set and every distance is
/// the offset sum of some path of at most `depth` edges.
bool ValidLinkSums(const std::vector<std::pair<Uid, int64_t>>& got,
                   const std::map<Uid, std::set<int64_t>>& want,
                   std::string* why);

/// Replaces every non-overlapping occurrence; returns the count.
size_t ReplaceSubstrings(std::string* text, const std::string& from,
                         const std::string& to);

/// A form bitmap in the model: one byte per pixel.
struct ModelForm {
  uint32_t width = 0;
  uint32_t height = 0;
  std::vector<uint8_t> bits;
  /// Op 17's edit: clamp the rectangle into the form, then invert it.
  void InvertClamped(uint32_t x, uint32_t y, uint32_t w, uint32_t h);
};

}  // namespace perfbench

#endif  // HM_PERFBENCH_MODEL_H_
