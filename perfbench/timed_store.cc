#include "timed_store.h"

#include <chrono>
#include <type_traits>

#include "hypermodel/traversal.h"

namespace perfbench {

void CallStats::Record(uint64_t ns) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  buckets_[hm::telemetry::BucketIndex(ns)].fetch_add(
      1, std::memory_order_relaxed);
}

void CallStats::AddCommit(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_us_.push_back(us);
}

void CallStats::Reset() {
  calls_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  commit_us_.clear();
}

hm::telemetry::HistogramData CallStats::Latencies() const {
  hm::telemetry::HistogramData out;
  for (uint32_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.buckets[i] = n;
    out.count += n;
  }
  out.sum = busy_ns();
  return out;
}

std::vector<double> CallStats::Commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_us_;
}

namespace {

using hm::NodeRef;
using hm::util::Result;
using hm::util::Status;

/// The HyperStore half: forwards and times every interface call.
class TimedBase : public hm::HyperStore {
 public:
  TimedBase(hm::HyperStore* inner, CallStats* stats)
      : inner_(inner), stats_(stats) {}

  /// Makes the wrapper own the store it forwards to.
  void Adopt(std::unique_ptr<hm::HyperStore> inner) {
    owned_ = std::move(inner);
  }

  template <typename F>
  auto Call(F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = f();
    const auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    stats_->Record(ns);
    return result;
  }

  std::string name() const override { return inner_->name(); }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }
  Status Begin() override {
    return Call([&] { return inner_->Begin(); });
  }
  Status Commit() override {
    const auto t0 = std::chrono::steady_clock::now();
    Status status = inner_->Commit();
    stats_->AddCommit(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    return status;
  }
  Status Abort() override {
    return Call([&] { return inner_->Abort(); });
  }
  Status CloseReopen() override {
    return Call([&] { return inner_->CloseReopen(); });
  }
  Result<NodeRef> CreateNode(const hm::NodeAttrs& attrs,
                             NodeRef near) override {
    return Call([&] { return inner_->CreateNode(attrs, near); });
  }
  Status SetText(NodeRef node, std::string_view text) override {
    return Call([&] { return inner_->SetText(node, text); });
  }
  Status SetForm(NodeRef node, const hm::util::Bitmap& form) override {
    return Call([&] { return inner_->SetForm(node, form); });
  }
  Status AddChild(NodeRef parent, NodeRef child) override {
    return Call([&] { return inner_->AddChild(parent, child); });
  }
  Status AddPart(NodeRef owner, NodeRef part) override {
    return Call([&] { return inner_->AddPart(owner, part); });
  }
  Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                int64_t offset_to) override {
    return Call(
        [&] { return inner_->AddRef(from, to, offset_from, offset_to); });
  }
  Result<int64_t> GetAttr(NodeRef node, hm::Attr attr) override {
    return Call([&] { return inner_->GetAttr(node, attr); });
  }
  Status SetAttr(NodeRef node, hm::Attr attr, int64_t value) override {
    return Call([&] { return inner_->SetAttr(node, attr, value); });
  }
  Result<hm::NodeKind> GetKind(NodeRef node) override {
    return Call([&] { return inner_->GetKind(node); });
  }
  Result<std::string> GetText(NodeRef node) override {
    return Call([&] { return inner_->GetText(node); });
  }
  Result<hm::util::Bitmap> GetForm(NodeRef node) override {
    return Call([&] { return inner_->GetForm(node); });
  }
  Status SetContents(NodeRef node, std::string_view data) override {
    return Call([&] { return inner_->SetContents(node, data); });
  }
  Result<std::string> GetContents(NodeRef node) override {
    return Call([&] { return inner_->GetContents(node); });
  }
  Result<NodeRef> LookupUnique(int64_t unique_id) override {
    return Call([&] { return inner_->LookupUnique(unique_id); });
  }
  Status RangeHundred(int64_t lo, int64_t hi,
                      std::vector<NodeRef>* out) override {
    return Call([&] { return inner_->RangeHundred(lo, hi, out); });
  }
  Status RangeMillion(int64_t lo, int64_t hi,
                      std::vector<NodeRef>* out) override {
    return Call([&] { return inner_->RangeMillion(lo, hi, out); });
  }
  Status Children(NodeRef node, std::vector<NodeRef>* out) override {
    return Call([&] { return inner_->Children(node, out); });
  }
  Result<NodeRef> Parent(NodeRef node) override {
    return Call([&] { return inner_->Parent(node); });
  }
  Status Parts(NodeRef node, std::vector<NodeRef>* out) override {
    return Call([&] { return inner_->Parts(node, out); });
  }
  Status PartOf(NodeRef node, std::vector<NodeRef>* out) override {
    return Call([&] { return inner_->PartOf(node, out); });
  }
  Status RefsTo(NodeRef node, std::vector<hm::RefEdge>* out) override {
    return Call([&] { return inner_->RefsTo(node, out); });
  }
  Status RefsFrom(NodeRef node, std::vector<hm::RefEdge>* out) override {
    return Call([&] { return inner_->RefsFrom(node, out); });
  }
  Result<uint64_t> StorageBytes() override {
    return Call([&] { return inner_->StorageBytes(); });
  }

 private:
  hm::HyperStore* inner_;
  CallStats* stats_;
  std::unique_ptr<hm::HyperStore> owned_;
};

/// Stand-in base for a capability the wrapped store lacks.
template <int kSlot>
struct Absent {
  Absent(TimedBase*, hm::HyperStore*) {}
};

class TraversalForward : public hm::TraversalCapable {
 public:
  TraversalForward(TimedBase* self, hm::HyperStore* inner)
      : self_(self), inner_(dynamic_cast<hm::TraversalCapable*>(inner)) {}

  Status BulkGetAttr(std::span<const NodeRef> nodes, hm::Attr attr,
                     std::vector<int64_t>* values) override {
    return self_->Call([&] { return inner_->BulkGetAttr(nodes, attr, values); });
  }
  Status TravClosure1N(NodeRef start, std::vector<NodeRef>* out) override {
    return self_->Call([&] { return inner_->TravClosure1N(start, out); });
  }
  Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                      uint64_t* visited) override {
    return self_->Call(
        [&] { return inner_->TravClosure1NAttSum(start, visited); });
  }
  Result<uint64_t> TravClosure1NAttSet(NodeRef start) override {
    return self_->Call([&] { return inner_->TravClosure1NAttSet(start); });
  }
  Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                           std::vector<NodeRef>* out) override {
    return self_->Call(
        [&] { return inner_->TravClosure1NPred(start, lo, hi, out); });
  }
  Status TravClosureMN(NodeRef start, std::vector<NodeRef>* out) override {
    return self_->Call([&] { return inner_->TravClosureMN(start, out); });
  }
  Status TravClosureMNAtt(NodeRef start, int depth,
                          std::vector<NodeRef>* out) override {
    return self_->Call(
        [&] { return inner_->TravClosureMNAtt(start, depth, out); });
  }
  Status TravClosureMNAttLinkSum(
      NodeRef start, int depth, std::vector<hm::NodeDistance>* out) override {
    return self_->Call(
        [&] { return inner_->TravClosureMNAttLinkSum(start, depth, out); });
  }

 private:
  TimedBase* self_;
  hm::TraversalCapable* inner_;
};

class PipelineForward : public hm::PipelinedCommitCapable {
 public:
  PipelineForward(TimedBase* self, hm::HyperStore* inner)
      : self_(self),
        inner_(dynamic_cast<hm::PipelinedCommitCapable*>(inner)) {}

  Result<uint64_t> CommitBegin() override {
    return self_->Call([&] { return inner_->CommitBegin(); });
  }
  Status CommitWait(uint64_t ticket) override {
    return self_->Call([&] { return inner_->CommitWait(ticket); });
  }

 private:
  TimedBase* self_;
  hm::PipelinedCommitCapable* inner_;
};

template <bool kTraversal, bool kPipelined>
class TimedStore final
    : public TimedBase,
      public std::conditional_t<kTraversal, TraversalForward, Absent<0>>,
      public std::conditional_t<kPipelined, PipelineForward, Absent<1>> {
  using Trav = std::conditional_t<kTraversal, TraversalForward, Absent<0>>;
  using Pipe = std::conditional_t<kPipelined, PipelineForward, Absent<1>>;

 public:
  TimedStore(hm::HyperStore* inner, CallStats* stats)
      : TimedBase(inner, stats), Trav(this, inner), Pipe(this, inner) {}
};

std::unique_ptr<TimedBase> Wrap(hm::HyperStore* inner, CallStats* stats) {
  const bool trav = dynamic_cast<hm::TraversalCapable*>(inner) != nullptr;
  const bool pipe =
      dynamic_cast<hm::PipelinedCommitCapable*>(inner) != nullptr;
  if (trav && pipe) return std::make_unique<TimedStore<true, true>>(inner, stats);
  if (trav) return std::make_unique<TimedStore<true, false>>(inner, stats);
  if (pipe) return std::make_unique<TimedStore<false, true>>(inner, stats);
  return std::make_unique<TimedStore<false, false>>(inner, stats);
}

}  // namespace

std::unique_ptr<hm::HyperStore> WrapTimed(hm::HyperStore* inner,
                                          CallStats* stats) {
  return Wrap(inner, stats);
}

std::unique_ptr<hm::HyperStore> WrapTimed(
    std::unique_ptr<hm::HyperStore> inner, CallStats* stats) {
  std::unique_ptr<TimedBase> timed = Wrap(inner.get(), stats);
  timed->Adopt(std::move(inner));
  return timed;
}

}  // namespace perfbench
