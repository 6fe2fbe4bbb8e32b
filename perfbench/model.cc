#include "model.h"

#include <algorithm>

namespace perfbench {

using hm::NodeRef;
using hm::util::Result;
using hm::util::Status;

/// Write-only HyperStore that records what the generator creates. A
/// NodeRef here is the node's uniqueId.
class ModelStore : public hm::HyperStore {
 public:
  explicit ModelStore(Model* model) : model_(model) {}

  std::string name() const override { return "model"; }
  Status Begin() override { return Status::Ok(); }
  Status Commit() override { return Status::Ok(); }
  Status Abort() override { return Status::Ok(); }
  Status CloseReopen() override { return Status::Ok(); }

  Result<NodeRef> CreateNode(const hm::NodeAttrs& attrs, NodeRef) override {
    if (attrs.unique_id != static_cast<int64_t>(model_->nodes_.size()) + 1) {
      return Status::Internal("uniqueIds are not assigned in order");
    }
    ModelNode node;
    node.attrs = attrs;
    model_->nodes_.push_back(std::move(node));
    return static_cast<NodeRef>(attrs.unique_id);
  }
  Status SetText(NodeRef node, std::string_view text) override {
    HM_RETURN_IF_ERROR(Check(node));
    model_->mutable_node(Uid(node)).text = std::string(text);
    return Status::Ok();
  }
  Status SetForm(NodeRef node, const hm::util::Bitmap& form) override {
    HM_RETURN_IF_ERROR(Check(node));
    if (form.PopCount() != 0) return Status::Internal("form not blank");
    ModelNode& n = model_->mutable_node(Uid(node));
    n.form_width = form.width();
    n.form_height = form.height();
    return Status::Ok();
  }
  Status AddChild(NodeRef parent, NodeRef child) override {
    HM_RETURN_IF_ERROR(Check(parent));
    HM_RETURN_IF_ERROR(Check(child));
    model_->mutable_node(Uid(parent)).children.push_back(Uid(child));
    model_->mutable_node(Uid(child)).parent = Uid(parent);
    return Status::Ok();
  }
  Status AddPart(NodeRef owner, NodeRef part) override {
    HM_RETURN_IF_ERROR(Check(owner));
    HM_RETURN_IF_ERROR(Check(part));
    model_->mutable_node(Uid(owner)).parts.push_back(Uid(part));
    model_->mutable_node(Uid(part)).part_of.push_back(Uid(owner));
    return Status::Ok();
  }
  Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                int64_t offset_to) override {
    HM_RETURN_IF_ERROR(Check(from));
    HM_RETURN_IF_ERROR(Check(to));
    model_->mutable_node(Uid(from))
        .refs_to.push_back({Uid(to), offset_from, offset_to});
    model_->mutable_node(Uid(to))
        .refs_from.push_back({Uid(from), offset_from, offset_to});
    return Status::Ok();
  }

  // The generator only writes; every read is refused.
  Result<int64_t> GetAttr(NodeRef, hm::Attr) override { return No(); }
  Status SetAttr(NodeRef, hm::Attr, int64_t) override { return No(); }
  Result<hm::NodeKind> GetKind(NodeRef) override { return No(); }
  Result<std::string> GetText(NodeRef) override { return No(); }
  Result<hm::util::Bitmap> GetForm(NodeRef) override { return No(); }
  Status SetContents(NodeRef, std::string_view) override { return No(); }
  Result<std::string> GetContents(NodeRef) override { return No(); }
  Result<NodeRef> LookupUnique(int64_t) override { return No(); }
  Status RangeHundred(int64_t, int64_t, std::vector<NodeRef>*) override {
    return No();
  }
  Status RangeMillion(int64_t, int64_t, std::vector<NodeRef>*) override {
    return No();
  }
  Status Children(NodeRef, std::vector<NodeRef>*) override { return No(); }
  Result<NodeRef> Parent(NodeRef) override { return No(); }
  Status Parts(NodeRef, std::vector<NodeRef>*) override { return No(); }
  Status PartOf(NodeRef, std::vector<NodeRef>*) override { return No(); }
  Status RefsTo(NodeRef, std::vector<hm::RefEdge>*) override { return No(); }
  Status RefsFrom(NodeRef, std::vector<hm::RefEdge>*) override {
    return No();
  }
  Result<uint64_t> StorageBytes() override { return No(); }

 private:
  static Status No() { return Status::NotSupported("model store is write-only"); }
  Status Check(NodeRef ref) const {
    if (ref == 0 || ref > model_->nodes_.size()) {
      return Status::Internal("unknown node " + std::to_string(ref));
    }
    return Status::Ok();
  }

  Model* model_;
};

Result<Model> Model::Generate(const hm::GeneratorConfig& config) {
  Model model;
  ModelStore store(&model);
  HM_ASSIGN_OR_RETURN(model.db_,
                      hm::Generator(config).Build(&store, nullptr));
  return model;
}

std::vector<Uid> Model::RangeMillion(int64_t lo, int64_t hi) const {
  std::vector<Uid> out;
  for (const ModelNode& n : nodes_) {
    if (n.attrs.million >= lo && n.attrs.million <= hi) {
      out.push_back(n.attrs.unique_id);
    }
  }
  return out;
}

std::vector<Uid> Model::Preorder(Uid start) const {
  return PreorderPruned(start, 1, 0);  // empty range prunes nothing
}

std::vector<Uid> Model::PreorderPruned(Uid start, int64_t lo,
                                       int64_t hi) const {
  std::vector<Uid> out;
  std::vector<Uid> stack{start};
  while (!stack.empty()) {
    Uid uid = stack.back();
    stack.pop_back();
    const ModelNode& n = node(uid);
    if (n.attrs.million >= lo && n.attrs.million <= hi) continue;
    out.push_back(uid);
    stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
  }
  return out;
}

std::vector<Uid> Model::PartsClosure(Uid start) const {
  std::set<Uid> seen{start};
  std::vector<Uid> todo{start};
  while (!todo.empty()) {
    Uid uid = todo.back();
    todo.pop_back();
    for (Uid part : node(uid).parts) {
      if (seen.insert(part).second) todo.push_back(part);
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<Uid> Model::RefClosure(Uid start, int depth) const {
  std::vector<Uid> out;
  for (const auto& [uid, sums] : RefPathSums(start, depth)) {
    out.push_back(uid);
  }
  return out;
}

std::map<Uid, std::set<int64_t>> Model::RefPathSums(Uid start,
                                                    int depth) const {
  std::map<Uid, std::set<int64_t>> sums{{start, {0}}};
  std::set<std::pair<Uid, int64_t>> layer{{start, 0}};
  for (int d = 0; d < depth && !layer.empty(); ++d) {
    std::set<std::pair<Uid, int64_t>> next;
    for (const auto& [uid, sum] : layer) {
      for (const ModelEdge& e : node(uid).refs_to) {
        next.insert({e.node, sum + e.offset_to});
      }
    }
    for (const auto& [uid, sum] : next) sums[uid].insert(sum);
    layer = std::move(next);
  }
  return sums;
}

namespace {

/// Sorted, de-duplicated copy.
std::vector<Uid> AsSet(std::vector<Uid> uids) {
  std::sort(uids.begin(), uids.end());
  uids.erase(std::unique(uids.begin(), uids.end()), uids.end());
  return uids;
}

}  // namespace

RefMap::RefMap(const hm::TestDatabase& db) : refs_(db.all_nodes) {
  uids_.reserve(refs_.size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    uids_.emplace(refs_[i], static_cast<Uid>(i + 1));
  }
}

std::vector<Uid> RefMap::Uids(const std::vector<NodeRef>& refs) const {
  std::vector<Uid> out;
  out.reserve(refs.size());
  for (NodeRef ref : refs) out.push_back(uid(ref));
  return out;
}

namespace {

void Explain(std::string* why, const char* what, const std::string& detail) {
  if (why != nullptr && why->size() < 4096) {
    *why += std::string(what) + ": " + detail + "\n";
  }
}

}  // namespace

bool SameList(const std::vector<Uid>& got, const std::vector<Uid>& want,
              const char* what, std::string* why) {
  if (got == want) return true;
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  Explain(why, what,
          "got " + std::to_string(got.size()) + " nodes, want " +
              std::to_string(want.size()) + ", first difference at " +
              std::to_string(i));
  return false;
}

bool SameSet(const std::vector<Uid>& got, const std::vector<Uid>& want,
             const char* what, std::string* why) {
  return SameList(AsSet(got), AsSet(want), what, why);
}

bool ValidLinkSums(const std::vector<std::pair<Uid, int64_t>>& got,
                   const std::map<Uid, std::set<int64_t>>& want,
                   std::string* why) {
  std::vector<Uid> nodes;
  nodes.reserve(got.size());
  for (const auto& [uid, distance] : got) {
    auto it = want.find(uid);
    if (it == want.end() || !it->second.contains(distance)) {
      Explain(why, "18 closureMNATTLINKSUM",
              "node " + std::to_string(uid) + " at distance " +
                  std::to_string(distance) + " is not on a path");
      return false;
    }
    nodes.push_back(uid);
  }
  std::vector<Uid> reachable;
  for (const auto& [uid, sums] : want) reachable.push_back(uid);
  // Each node is listed once: compare as a list of the sorted nodes.
  std::sort(nodes.begin(), nodes.end());
  return SameList(nodes, reachable, "18 closureMNATTLINKSUM", why);
}

size_t ReplaceSubstrings(std::string* text, const std::string& from,
                         const std::string& to) {
  std::string out;
  size_t count = 0;
  size_t i = 0;
  while (i < text->size()) {
    if (text->compare(i, from.size(), from) == 0) {
      out += to;
      i += from.size();
      ++count;
    } else {
      out += (*text)[i++];
    }
  }
  *text = std::move(out);
  return count;
}

void ModelForm::InvertClamped(uint32_t x, uint32_t y, uint32_t w,
                              uint32_t h) {
  if (x + w > width) x = width - w;
  if (y + h > height) y = height - h;
  for (uint32_t row = y; row < y + h; ++row) {
    for (uint32_t col = x; col < x + w; ++col) {
      bits[static_cast<size_t>(row) * width + col] ^= 1;
    }
  }
}

}  // namespace perfbench
