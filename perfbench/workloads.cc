#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/operations.h"
#include "hypermodel/traversal.h"
#include "model.h"
#include "server/server.h"
#include "storage/page.h"
#include "telemetry/metrics.h"
#include "timed_store.h"
#include "util/random.h"

namespace perfbench {
namespace {

using hm::NodeRef;
using hm::OpId;
using hm::util::Result;
using hm::util::Status;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Depth bound of the refTo closures (§6.5, the paper's 25).
constexpr int kDepth = 25;
/// Inputs per protocol run (§6, the paper's 50).
constexpr int kIterations = 50;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------
// Operations: inputs, execution and checks

enum class OpClass { kLookup, kClosure, kUpdate };

OpClass ClassOf(OpId op) {
  switch (op) {
    case OpId::kClosure1NAttSet:
    case OpId::kTextNodeEdit:
    case OpId::kFormNodeEdit:
      return OpClass::kUpdate;
    case OpId::kSeqScan:
    case OpId::kClosure1N:
    case OpId::kClosure1NAttSum:
    case OpId::kClosure1NPred:
    case OpId::kClosureMN:
    case OpId::kClosureMNAtt:
    case OpId::kClosureMNAttLinkSum:
      return OpClass::kClosure;
    default:
      return OpClass::kLookup;
  }
}

/// One operation input, in uniqueId space.
struct Input {
  Uid node = 0;
  int64_t value = 0;  // 01 uniqueId; 03/04/13 range start
  uint32_t x = 0, y = 0, w = 0, h = 0;  // 17 rectangle
};

/// What one operation returned.
struct Answer {
  std::vector<NodeRef> refs;
  std::vector<hm::NodeDistance> distances;
  std::vector<int64_t> values;
  int64_t value = 0;
  /// Nodes returned or involved: the protocol's per-node normalizer.
  uint64_t nodes = 0;
};

/// Expected values of the attributes and contents the edit operations
/// change, starting from the model.
struct Shadow {
  explicit Shadow(const Model& m) : model(&m) {
    hundred.reserve(m.size());
    for (Uid uid = 1; uid <= static_cast<Uid>(m.size()); ++uid) {
      hundred.push_back(m.node(uid).attrs.hundred);
    }
  }
  std::string& Text(Uid uid) {
    auto it = texts.find(uid);
    if (it == texts.end()) it = texts.emplace(uid, model->node(uid).text).first;
    return it->second;
  }
  ModelForm& Form(Uid uid) {
    auto it = forms.find(uid);
    if (it == forms.end()) {
      const ModelNode& n = model->node(uid);
      ModelForm form{n.form_width, n.form_height,
                     std::vector<uint8_t>(size_t{n.form_width} * n.form_height)};
      it = forms.emplace(uid, std::move(form)).first;
    }
    return it->second;
  }

  const Model* model;
  std::vector<int64_t> hundred;
  std::map<Uid, std::string> texts;
  std::map<Uid, ModelForm> forms;
};

std::vector<Input> SelectInputs(const Model& model, OpId op, uint64_t seed,
                                int n) {
  hm::util::Rng rng(seed * 1000003 + static_cast<uint64_t>(op) + 1);
  const hm::TestDatabase& db = model.db();
  auto pick = [&](const std::vector<NodeRef>& pool) {
    return static_cast<Uid>(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  };
  // Closures start "on level three" (§6.5).
  const size_t closure_level =
      std::min<size_t>(3, db.nodes_by_level.size() - 2);
  std::vector<Input> inputs(static_cast<size_t>(n));
  for (Input& in : inputs) {
    switch (op) {
      case OpId::kNameLookup:
        in.value = rng.UniformInt(1, static_cast<int64_t>(model.size()));
        break;
      case OpId::kNameOidLookup:
      case OpId::kGroupLookupMNAtt:
      case OpId::kRefLookupMNAtt:
        in.node = pick(db.all_nodes);
        break;
      case OpId::kRangeLookupHundred:
        in.value = rng.UniformInt(1, 90);
        break;
      case OpId::kRangeLookupMillion:
        in.value = rng.UniformInt(1, 990000);
        break;
      case OpId::kGroupLookup1N:
      case OpId::kGroupLookupMN:
        in.node = pick(db.internal_nodes);
        break;
      case OpId::kRefLookup1N:
      case OpId::kRefLookupMN:
        do {
          in.node = pick(db.all_nodes);
        } while (in.node == static_cast<Uid>(db.root));
        break;
      case OpId::kSeqScan:
        break;
      case OpId::kClosure1NPred:
        in.value = rng.UniformInt(1, 990000);
        in.node = pick(db.level(closure_level));
        break;
      case OpId::kClosure1N:
      case OpId::kClosure1NAttSum:
      case OpId::kClosure1NAttSet:
      case OpId::kClosureMN:
      case OpId::kClosureMNAtt:
      case OpId::kClosureMNAttLinkSum:
        in.node = pick(db.level(closure_level));
        break;
      case OpId::kTextNodeEdit:
        in.node = pick(db.text_nodes);
        break;
      case OpId::kFormNodeEdit:
        // The paper edits one form node fifty times. Its cost grows
        // with the bitmap's area (100x100 to 400x400), so one draw per
        // run would make the figure hinge on the seed; each input draws
        // its own form node instead.
        in.node = pick(db.form_nodes);
        in.w = static_cast<uint32_t>(rng.UniformInt(25, 50));
        in.h = static_cast<uint32_t>(rng.UniformInt(25, 50));
        in.x = static_cast<uint32_t>(rng.UniformInt(0, 49));
        in.y = static_cast<uint32_t>(rng.UniformInt(0, 49));
        break;
    }
  }
  return inputs;
}

const char* EditFrom(bool warm) { return warm ? "version-2" : "version1"; }
const char* EditTo(bool warm) { return warm ? "version1" : "version-2"; }

/// Runs one operation on one input through the public `hm::ops` API.
/// The cold (`warm` false) textNodeEdit substitutes version1 ->
/// version-2, the warm one substitutes back.
Status Execute(hm::HyperStore* store, const RefMap& map, OpId op,
               const Input& in, bool warm, Answer* a) {
  namespace ops = hm::ops;
  const NodeRef ref = in.node == 0 ? hm::kInvalidNode : map.ref(in.node);
  a->nodes = 1;
  switch (op) {
    case OpId::kNameLookup: {
      HM_ASSIGN_OR_RETURN(a->value, ops::NameLookup(store, in.value));
      return Status::Ok();
    }
    case OpId::kNameOidLookup: {
      HM_ASSIGN_OR_RETURN(a->value, ops::NameOidLookup(store, ref));
      return Status::Ok();
    }
    case OpId::kRangeLookupHundred:
      HM_RETURN_IF_ERROR(ops::RangeLookupHundred(store, in.value, &a->refs));
      break;
    case OpId::kRangeLookupMillion:
      HM_RETURN_IF_ERROR(ops::RangeLookupMillion(store, in.value, &a->refs));
      break;
    case OpId::kGroupLookup1N:
      HM_RETURN_IF_ERROR(ops::GroupLookup1N(store, ref, &a->refs));
      break;
    case OpId::kGroupLookupMN:
      HM_RETURN_IF_ERROR(ops::GroupLookupMN(store, ref, &a->refs));
      break;
    case OpId::kGroupLookupMNAtt:
      HM_RETURN_IF_ERROR(ops::GroupLookupMNAtt(store, ref, &a->refs));
      break;
    case OpId::kRefLookup1N: {
      HM_ASSIGN_OR_RETURN(NodeRef parent, ops::RefLookup1N(store, ref));
      a->refs.assign(1, parent);
      return Status::Ok();
    }
    case OpId::kRefLookupMN:
      HM_RETURN_IF_ERROR(ops::RefLookupMN(store, ref, &a->refs));
      break;
    case OpId::kRefLookupMNAtt:
      HM_RETURN_IF_ERROR(ops::RefLookupMNAtt(store, ref, &a->refs));
      break;
    case OpId::kSeqScan: {
      // ops::SeqScan reads and discards the values; read them through
      // the same store calls so they can be checked.
      auto* trav = dynamic_cast<hm::TraversalCapable*>(store);
      HM_RETURN_IF_ERROR(
          trav != nullptr
              ? trav->BulkGetAttr(map.refs(), hm::Attr::kTen, &a->values)
              : hm::traversal::BulkGetAttr(store, map.refs(), hm::Attr::kTen,
                                           &a->values));
      a->nodes = a->values.size();
      return Status::Ok();
    }
    case OpId::kClosure1N:
      HM_RETURN_IF_ERROR(ops::Closure1N(store, ref, &a->refs));
      break;
    case OpId::kClosure1NAttSum: {
      uint64_t visited = 0;
      HM_ASSIGN_OR_RETURN(a->value, ops::Closure1NAttSum(store, ref, &visited));
      a->nodes = visited;
      return Status::Ok();
    }
    case OpId::kClosure1NAttSet: {
      HM_ASSIGN_OR_RETURN(uint64_t updated, ops::Closure1NAttSet(store, ref));
      a->value = static_cast<int64_t>(updated);
      a->nodes = updated;
      return Status::Ok();
    }
    case OpId::kClosure1NPred:
      HM_RETURN_IF_ERROR(ops::Closure1NPred(store, ref, in.value, &a->refs));
      break;
    case OpId::kClosureMN:
      HM_RETURN_IF_ERROR(ops::ClosureMN(store, ref, &a->refs));
      break;
    case OpId::kClosureMNAtt:
      HM_RETURN_IF_ERROR(ops::ClosureMNAtt(store, ref, kDepth, &a->refs));
      break;
    case OpId::kClosureMNAttLinkSum:
      HM_RETURN_IF_ERROR(
          ops::ClosureMNAttLinkSum(store, ref, kDepth, &a->distances));
      a->nodes = a->distances.size();
      return Status::Ok();
    case OpId::kTextNodeEdit: {
      HM_ASSIGN_OR_RETURN(uint64_t replaced,
                          ops::TextNodeEdit(store, ref, EditFrom(warm),
                                            EditTo(warm)));
      a->value = static_cast<int64_t>(replaced);
      return Status::Ok();
    }
    case OpId::kFormNodeEdit:
      return ops::FormNodeEdit(store, ref, in.x, in.y, in.w, in.h);
  }
  a->nodes = a->refs.size();
  return Status::Ok();
}

bool SameValue(int64_t got, int64_t want, const char* what, std::string* why) {
  if (got == want) return true;
  if (why != nullptr) {
    *why += std::string(what) + ": got " + std::to_string(got) + ", want " +
            std::to_string(want) + "\n";
  }
  return false;
}

std::vector<Uid> Targets(const std::vector<ModelEdge>& edges) {
  std::vector<Uid> out;
  for (const ModelEdge& e : edges) out.push_back(e.node);
  return out;
}

/// Checks one answer against the model and applies the edit
/// operations to the shadow state, in execution order.
bool Check(const Model& m, Shadow* shadow, const RefMap& map, OpId op,
           const Input& in, bool warm, const Answer& a, std::string* why) {
  switch (op) {
    case OpId::kNameLookup:
      return SameValue(a.value, shadow->hundred[in.value - 1],
                       "01 nameLookup", why);
    case OpId::kNameOidLookup:
      return SameValue(a.value, shadow->hundred[in.node - 1],
                       "02 nameOIDLookup", why);
    case OpId::kRangeLookupHundred: {
      std::vector<Uid> want;
      for (size_t i = 0; i < shadow->hundred.size(); ++i) {
        const int64_t h = shadow->hundred[i];
        if (h >= in.value && h <= in.value + 9) {
          want.push_back(static_cast<Uid>(i + 1));
        }
      }
      return SameSet(map.Uids(a.refs), want, "03 rangeLookupHundred", why);
    }
    case OpId::kRangeLookupMillion:
      return SameSet(map.Uids(a.refs),
                     m.RangeMillion(in.value, in.value + 9999),
                     "04 rangeLookupMillion", why);
    case OpId::kGroupLookup1N:
      return SameList(map.Uids(a.refs), m.node(in.node).children,
                      "05A groupLookup1N", why);
    case OpId::kGroupLookupMN:
      return SameSet(map.Uids(a.refs), m.node(in.node).parts,
                     "05B groupLookupMN", why);
    case OpId::kGroupLookupMNAtt:
      return SameSet(map.Uids(a.refs), Targets(m.node(in.node).refs_to),
                     "06 groupLookupMNATT", why);
    case OpId::kRefLookup1N:
      return SameList(map.Uids(a.refs), {m.node(in.node).parent},
                      "07A refLookup1N", why);
    case OpId::kRefLookupMN:
      return SameSet(map.Uids(a.refs), m.node(in.node).part_of,
                     "07B refLookupMN", why);
    case OpId::kRefLookupMNAtt:
      return SameSet(map.Uids(a.refs), Targets(m.node(in.node).refs_from),
                     "08 refLookupMNATT", why);
    case OpId::kSeqScan: {
      if (!SameValue(static_cast<int64_t>(a.values.size()),
                     static_cast<int64_t>(m.size()), "09 seqScan", why)) {
        return false;
      }
      for (size_t i = 0; i < a.values.size(); ++i) {
        if (!SameValue(a.values[i], m.node(static_cast<Uid>(i + 1)).attrs.ten,
                       "09 seqScan", why)) {
          return false;
        }
      }
      return true;
    }
    case OpId::kClosure1N:
      return SameList(map.Uids(a.refs), m.Preorder(in.node),
                      "10 closure1N", why);
    case OpId::kClosure1NAttSum: {
      std::vector<Uid> closure = m.Preorder(in.node);
      int64_t sum = 0;
      for (Uid uid : closure) sum += shadow->hundred[uid - 1];
      return SameValue(a.value, sum, "11 closure1NAttSum", why) &&
             SameValue(static_cast<int64_t>(a.nodes),
                       static_cast<int64_t>(closure.size()),
                       "11 closure1NAttSum visited", why);
    }
    case OpId::kClosure1NAttSet: {
      std::vector<Uid> closure = m.Preorder(in.node);
      for (Uid uid : closure) {
        shadow->hundred[uid - 1] = 99 - shadow->hundred[uid - 1];
      }
      return SameValue(a.value, static_cast<int64_t>(closure.size()),
                       "12 closure1NAttSet", why);
    }
    case OpId::kClosure1NPred:
      return SameList(map.Uids(a.refs),
                      m.PreorderPruned(in.node, in.value, in.value + 9999),
                      "13 closure1NPred", why);
    case OpId::kClosureMN:
      return SameSet(map.Uids(a.refs), m.PartsClosure(in.node),
                     "14 closureMN", why);
    case OpId::kClosureMNAtt:
      return SameSet(map.Uids(a.refs), m.RefClosure(in.node, kDepth),
                     "15 closureMNATT", why);
    case OpId::kClosureMNAttLinkSum: {
      std::vector<std::pair<Uid, int64_t>> got;
      got.reserve(a.distances.size());
      for (const hm::NodeDistance& d : a.distances) {
        got.emplace_back(map.uid(d.node), d.distance);
      }
      return ValidLinkSums(got, m.RefPathSums(in.node, kDepth), why);
    }
    case OpId::kTextNodeEdit: {
      const size_t want = ReplaceSubstrings(&shadow->Text(in.node),
                                            EditFrom(warm), EditTo(warm));
      return SameValue(a.value, static_cast<int64_t>(want),
                       "16 textNodeEdit substitutions", why);
    }
    case OpId::kFormNodeEdit:
      shadow->Form(in.node).InvertClamped(in.x, in.y, in.w, in.h);
      return true;  // the bitmap itself is compared by ReadBack
  }
  return false;
}

/// After a run of an edit operation, reads back what it changed and
/// compares it with the shadow state. `store` should be the unwrapped
/// store, so the read-back is not traced.
Result<bool> ReadBack(hm::HyperStore* store, const Model& m, Shadow* shadow,
                      const RefMap& map, OpId op,
                      const std::vector<Input>& inputs, std::string* why) {
  bool ok = true;
  std::set<Uid> forms_seen;
  for (const Input& in : inputs) {
    const NodeRef ref = map.ref(in.node);
    if (op == OpId::kClosure1NAttSet) {
      for (Uid uid : m.Preorder(in.node)) {
        HM_ASSIGN_OR_RETURN(int64_t hundred,
                            store->GetAttr(map.ref(uid), hm::Attr::kHundred));
        ok = SameValue(hundred, shadow->hundred[uid - 1],
                       "12 closure1NAttSet read-back", why) && ok;
      }
    } else if (op == OpId::kTextNodeEdit) {
      HM_ASSIGN_OR_RETURN(std::string text, store->GetText(ref));
      if (text != shadow->Text(in.node)) {
        ok = false;
        if (why != nullptr) *why += "16 textNodeEdit read-back differs\n";
      }
    } else if (op == OpId::kFormNodeEdit) {
      if (!forms_seen.insert(in.node).second) continue;
      HM_ASSIGN_OR_RETURN(hm::util::Bitmap form, store->GetForm(ref));
      const ModelForm& want = shadow->Form(in.node);
      bool same = form.width() == want.width && form.height() == want.height;
      uint64_t set = 0;
      for (size_t i = 0; same && i < want.bits.size(); ++i) {
        if (want.bits[i] == 0) continue;
        ++set;
        same = form.Get(static_cast<uint32_t>(i % want.width),
                        static_cast<uint32_t>(i / want.width));
      }
      // Every pixel set in the model is set, and no other one.
      same = same && form.PopCount() == set;
      if (!same && why != nullptr) *why += "17 formNodeEdit read-back differs\n";
      ok = ok && same;
    } else {
      break;
    }
  }
  return ok;
}

/// One protocol run: Begin, the operation over every input, Commit.
struct Batch {
  size_t answered = 0;  // inputs that returned an answer
  uint64_t nodes = 0;
  uint64_t attempted = 0;  // operation calls and the commit
  double ms = 0;           // Begin to the end of Commit
  double ops_ms = 0;       // inside the operation calls only
  Status status;
};

Batch RunBatch(hm::HyperStore* store, const RefMap& map, OpId op,
               const Input* inputs, size_t n, bool warm, Answer* answers) {
  Batch run;
  const Clock::time_point t0 = Clock::now();
  run.status = store->Begin();
  while (run.status.ok() && run.answered < n) {
    ++run.attempted;
    Answer* a = &answers[run.answered];
    const Clock::time_point op_start = Clock::now();
    run.status = Execute(store, map, op, inputs[run.answered], warm, a);
    run.ops_ms += std::chrono::duration<double, std::milli>(Clock::now() -
                                                            op_start)
                      .count();
    if (run.status.ok()) {
      run.nodes += a->nodes;
      ++run.answered;
    }
  }
  if (run.status.ok()) {
    ++run.attempted;
    run.status = store->Commit();
  }
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!run.status.ok()) run.attempted = std::max<uint64_t>(run.attempted, 1);
  return run;
}

hm::GeneratorConfig ConfigFor(int levels, uint64_t seed) {
  hm::GeneratorConfig config;
  config.levels = levels;
  config.seed = seed * 2654435761ULL + 17;
  return config;
}

/// Verifies that the i-th created node carries uniqueId i + 1, the
/// premise of RefMap.
Status CheckRefMap(hm::HyperStore* store, const RefMap& map) {
  for (size_t i = 0; i < map.refs().size(); ++i) {
    HM_ASSIGN_OR_RETURN(int64_t uid,
                        store->GetAttr(map.refs()[i], hm::Attr::kUniqueId));
    if (uid != static_cast<int64_t>(i + 1)) {
      return Status::Internal("node " + std::to_string(i + 1) +
                              " carries uniqueId " + std::to_string(uid));
    }
  }
  return Status::Ok();
}

/// Generator phases (§5.3) of one build, in seconds.
struct SetupPhases {
  double internal = 0, leaf = 0, rel_1n = 0, rel_mn = 0, rel_mnatt = 0;
  void Add(const hm::CreationTiming& t) {
    internal += t.internal_nodes_ms / 1000;
    leaf += t.leaf_nodes_ms / 1000;
    rel_1n += t.rel_1n_ms / 1000;
    rel_mn += t.rel_mn_ms / 1000;
    rel_mnatt += t.rel_mnatt_ms / 1000;
  }
};

/// Median of each phase over the builds.
void AddSetupMetrics(const std::vector<SetupPhases>& builds,
                     std::vector<Metric>* out) {
  auto median_of = [&](double SetupPhases::*field) {
    std::vector<double> v;
    for (const SetupPhases& p : builds) v.push_back(p.*field);
    return Median(v);
  };
  out->push_back({"setup.internal_s", median_of(&SetupPhases::internal), "s"});
  out->push_back({"setup.leaf_s", median_of(&SetupPhases::leaf), "s"});
  out->push_back({"setup.rel_1n_s", median_of(&SetupPhases::rel_1n), "s"});
  out->push_back({"setup.rel_mn_s", median_of(&SetupPhases::rel_mn), "s"});
  out->push_back(
      {"setup.rel_mnatt_s", median_of(&SetupPhases::rel_mnatt), "s"});
}

// ---------------------------------------------------------------------
// Per-layer counters, as differences of the telemetry registry

struct Counters {
  static Counters Take() {
    Counters c;
    c.snap = hm::telemetry::Registry::Global().TakeSnapshot();
    return c;
  }
  uint64_t Delta(const Counters& before, const std::string& name) const {
    const uint64_t now = snap.counter(name);
    const uint64_t then = before.snap.counter(name);
    return now >= then ? now - then : 0;
  }
  /// Histogram cells accumulated since `before` over every histogram
  /// whose name starts with `prefix` and ends with `suffix`.
  hm::telemetry::HistogramData HistDelta(const Counters& before,
                                         const std::string& prefix,
                                         const std::string& suffix) const {
    hm::telemetry::HistogramData out;
    for (const auto& [name, data] : snap.histograms) {
      if (!name.starts_with(prefix) || !name.ends_with(suffix)) continue;
      const hm::telemetry::HistogramData* old = nullptr;
      auto it = before.snap.histograms.find(name);
      if (it != before.snap.histograms.end()) old = &it->second;
      for (const auto& [bucket, n] : data.buckets) {
        uint64_t prev = 0;
        if (old != nullptr) {
          auto b = old->buckets.find(bucket);
          if (b != old->buckets.end()) prev = b->second;
        }
        if (n > prev) {
          out.buckets[bucket] += n - prev;
          out.count += n - prev;
        }
      }
      out.sum += data.sum - (old != nullptr ? old->sum : 0);
    }
    return out;
  }

  hm::telemetry::Snapshot snap;
};

/// Storage-layer counters, read straight from the telemetry registry.
/// Differences of two readings give the counts of the work between.
struct StorageCounts {
  uint64_t hits = 0, misses = 0, evictions = 0, flushes = 0;
  uint64_t wal_appends = 0, wal_syncs = 0;
  uint64_t group_commits = 0, group_members = 0;

  static StorageCounts Now() {
    auto& registry = hm::telemetry::Registry::Global();
    static hm::telemetry::Counter* const kHits =
        registry.GetCounter("storage.buffer_pool.hits");
    static hm::telemetry::Counter* const kMisses =
        registry.GetCounter("storage.buffer_pool.misses");
    static hm::telemetry::Counter* const kEvictions =
        registry.GetCounter("storage.buffer_pool.evictions");
    static hm::telemetry::Counter* const kFlushes =
        registry.GetCounter("storage.buffer_pool.flushes");
    static hm::telemetry::Counter* const kAppends =
        registry.GetCounter("storage.wal.appends");
    static hm::telemetry::Counter* const kSyncs =
        registry.GetCounter("storage.wal.syncs");
    static hm::telemetry::Histogram* const kGroups =
        registry.GetHistogram("storage.wal.group_size");
    return {kHits->value(),    kMisses->value(), kEvictions->value(),
            kFlushes->value(), kAppends->value(), kSyncs->value(),
            kGroups->count(),  kGroups->sum()};
  }
  /// Adds the counts of `after - before`.
  void Add(const StorageCounts& before, const StorageCounts& after) {
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    evictions += after.evictions - before.evictions;
    flushes += after.flushes - before.flushes;
    wal_appends += after.wal_appends - before.wal_appends;
    wal_syncs += after.wal_syncs - before.wal_syncs;
    group_commits += after.group_commits - before.group_commits;
    group_members += after.group_members - before.group_members;
  }
};

/// Call latencies of several wrappers, merged (nanoseconds).
hm::telemetry::HistogramData Latencies(
    const std::vector<const CallStats*>& stats) {
  hm::telemetry::HistogramData merged;
  for (const CallStats* s : stats) {
    hm::telemetry::HistogramData h = s->Latencies();
    for (const auto& [bucket, n] : h.buckets) merged.buckets[bucket] += n;
    merged.count += h.count;
    merged.sum += h.sum;
  }
  return merged;
}

/// The per-layer metric set, the same names on every workload; a layer
/// a workload does not exercise reads 0.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const char* prefix : {"oodb.", "rel.", "net.", "store."}) {
      SetStore(prefix, {}, 0);
    }
    for (const char* prefix : {"oodb.", "rel.", "net.", ""}) {
      SetStorage(prefix, StorageCounts{}, 0, 0);
    }
    for (const char* name :
         {"oodb.objects_read_per_node", "server.dispatch_us.p50",
          "wire_queue_us.p50", "remote.roundtrips_per_op",
          "server.bytes_per_op", "cluster.shard_rpcs_per_op.namelookup",
          "cluster.shard_rpcs_per_op.seqscan",
          "cluster.shard_rpcs_per_op.closure1n",
          "cluster.shard_rpcs_per_op.closuremnatt",
          "cluster.shard_rpcs_per_op.textnodeedit", "cluster.bytes_per_node",
          "cluster.fanout_mean"}) {
      Set(name, 0);
    }
  }
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Calls into the store through the given wrappers, per `nodes`
  /// returned: <prefix>calls_per_node, us_per_node, commit_us, and for
  /// "store." the median call, store.call_us.p50.
  void SetStore(const std::string& prefix,
                const std::vector<const CallStats*>& stats, double nodes) {
    uint64_t calls = 0;
    std::vector<double> commits;
    for (const CallStats* s : stats) {
      calls += s->calls();
      std::vector<double> c = s->Commits();
      commits.insert(commits.end(), c.begin(), c.end());
    }
    const hm::telemetry::HistogramData latencies = Latencies(stats);
    Set(prefix + "calls_per_node", Ratio(static_cast<double>(calls), nodes));
    Set(prefix + "us_per_node",
        Ratio(static_cast<double>(latencies.sum) / 1000, nodes));
    Set(prefix + "commit_us", Median(commits));
    if (prefix == "store.") {
      Set("store.call_us.p50",
          static_cast<double>(latencies.Quantile(0.5)) / 1000);
    }
  }

  /// <prefix>pool.* and <prefix>wal.* from storage counts.
  void SetStorage(const std::string& prefix, const StorageCounts& c,
                  double nodes, double commits) {
    const double accesses = static_cast<double>(c.hits + c.misses);
    Set(prefix + "pool.hit_ratio", Ratio(static_cast<double>(c.hits), accesses));
    Set(prefix + "pool.accesses", accesses);
    Set(prefix + "pool.misses_per_node",
        Ratio(static_cast<double>(c.misses), nodes));
    Set(prefix + "pool.evictions", static_cast<double>(c.evictions));
    Set(prefix + "pool.flushes_per_commit",
        Ratio(static_cast<double>(c.flushes), commits));
    Set(prefix + "wal.appends_per_commit",
        Ratio(static_cast<double>(c.wal_appends), commits));
    Set(prefix + "wal.syncs_per_commit",
        Ratio(static_cast<double>(c.wal_syncs), commits));
    Set(prefix + "wal.group_size_mean",
        Ratio(static_cast<double>(c.group_members),
              static_cast<double>(c.group_commits)));
  }

  std::vector<Metric> Take(const std::vector<SetupPhases>& builds) const {
    std::vector<Metric> out;
    AddSetupMetrics(builds, &out);
    for (const auto& [name, value] : values_) {
      out.push_back({name, value, UnitOf(name)});
    }
    return out;
  }

 private:
  static std::string UnitOf(const std::string& name) {
    if (name == "server.bytes_per_op") return "B/op";
    if (name == "cluster.bytes_per_node") return "B/node";
    if (name.ends_with("_us") || name.ends_with("_us.p50")) return "us";
    if (name.ends_with(".us_per_node")) return "us/node";
    if (name.ends_with("_per_node")) return "count/node";
    if (name.ends_with("_per_commit")) return "count/commit";
    if (name.ends_with("_per_op") || name.find("_per_op.") != std::string::npos)
      return "count/op";
    if (name.ends_with("ratio")) return "ratio";
    return "count";
  }

  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------
// paper: the §6 protocol on oodb, rel and net, in and out of core

Result<std::unique_ptr<hm::HyperStore>> OpenBackend(const std::string& name,
                                                    const std::string& dir,
                                                    size_t cache_pages) {
  using namespace hm::backends;
  if (name == "oodb") {
    OodbOptions options;
    options.cache_pages = cache_pages;
    HM_ASSIGN_OR_RETURN(auto store, OodbStore::Open(options, dir));
    return std::unique_ptr<hm::HyperStore>(std::move(store));
  }
  if (name == "rel") {
    RelOptions options;
    options.cache_pages = cache_pages;
    HM_ASSIGN_OR_RETURN(auto store, RelStore::Open(options, dir));
    return std::unique_ptr<hm::HyperStore>(std::move(store));
  }
  NetOptions options;
  options.cache_pages = cache_pages;
  HM_ASSIGN_OR_RETURN(auto store, NetStore::Open(options, dir));
  return std::unique_ptr<hm::HyperStore>(std::move(store));
}

/// Where a protocol run's pages come from: a cache that holds the whole
/// database, or one cut to about an eighth of its pages.
enum class Cache { kInCore, kOutOfCore };
constexpr Cache kCaches[] = {Cache::kInCore, Cache::kOutOfCore};

const char* CacheName(Cache cache) {
  return cache == Cache::kInCore ? "in-core" : "out-of-core";
}

/// One protocol run: the operation, warm or cold, and the cache.
struct RunKey {
  OpId op;
  bool warm;
  Cache cache;
  auto operator<=>(const RunKey&) const = default;
};

struct PaperBackend {
  std::string name;
  std::string dir;
  size_t out_of_core_pages = 0;
  CallStats calls;  // outlives `timed`, which records into it
  std::unique_ptr<hm::HyperStore> store;
  std::unique_ptr<hm::HyperStore> timed;
  RefMap map;
  std::unique_ptr<Shadow> shadow;
  /// ms/node of each protocol run, one sample per pass.
  std::map<RunKey, std::vector<double>> ms_per_node;
  /// Traced runs: storage counts of each protocol run, summed over
  /// passes.
  std::map<RunKey, StorageCounts> storage_per_run;
  uint64_t nodes = 0;
  uint64_t commits = 0;
  uint64_t objects_read = 0;
  StorageCounts storage;

  hm::HyperStore* api() { return timed ? timed.get() : store.get(); }
};

constexpr size_t kDefaultCachePages = 2048;

Result<Outcome> RunPaper(const Options& opt) {
  constexpr int kLevels = 6;
  constexpr int kSetups = 3;
  constexpr int kMinPasses = 3;
  Outcome result;
  HM_ASSIGN_OR_RETURN(Model model,
                      Model::Generate(ConfigFor(kLevels, opt.seed)));
  std::vector<PaperBackend> backends(3);
  const char* names[] = {"oodb", "rel", "net"};
  for (size_t i = 0; i < backends.size(); ++i) {
    backends[i].name = names[i];
    backends[i].dir = opt.workdir + "/" + names[i];
    backends[i].shadow = std::make_unique<Shadow>(model);
  }

  // Set-up: build the three databases, several times.
  std::vector<double> setup_s;
  std::vector<SetupPhases> phases;
  for (int k = 0; k < kSetups; ++k) {
    SetupPhases build;
    double total = 0;
    for (PaperBackend& b : backends) {
      b.store.reset();
      fs::remove_all(b.dir);
      fs::create_directories(b.dir);
      HM_ASSIGN_OR_RETURN(b.store,
                          OpenBackend(b.name, b.dir, kDefaultCachePages));
      hm::CreationTiming timing;
      const Clock::time_point t0 = Clock::now();
      HM_ASSIGN_OR_RETURN(hm::TestDatabase db,
                          hm::Generator(ConfigFor(kLevels, opt.seed))
                              .Build(b.store.get(), &timing));
      total += SecondsSince(t0);
      build.Add(timing);
      b.map = RefMap(db);
    }
    setup_s.push_back(total);
    phases.push_back(build);
  }

  double store_bytes = 0;
  for (PaperBackend& b : backends) {
    HM_RETURN_IF_ERROR(CheckRefMap(b.store.get(), b.map));
    HM_ASSIGN_OR_RETURN(uint64_t bytes, b.store->StorageBytes());
    store_bytes += static_cast<double>(bytes);
    // Out of core, the cache holds about an eighth of the pages.
    b.out_of_core_pages =
        std::max<size_t>(16, bytes / hm::storage::kPageSize / 8);
    std::cerr << "perfbench: " << b.name << " out-of-core cache "
              << b.out_of_core_pages << " pages for "
              << bytes / hm::storage::kPageSize << " database pages\n";
  }

  std::vector<Answer> answers(kIterations);
  std::string why;

  const Clock::time_point start = Clock::now();
  int passes = 0;
  while (passes < kMinPasses || SecondsSince(start) < opt.seconds) {
    // Each pass draws fresh inputs, so the per-operation medians are
    // taken over several input sets; every backend gets the same ones.
    std::vector<std::vector<Input>> inputs;
    for (OpId op : hm::AllOps()) {
      inputs.push_back(
          SelectInputs(model, op, opt.seed * 7919 + static_cast<uint64_t>(passes),
                       kIterations));
    }
    for (Cache cache : kCaches) {
      for (PaperBackend& b : backends) {
        // Reopen with this half's cache size.
        b.timed.reset();
        b.store.reset();
        HM_ASSIGN_OR_RETURN(
            b.store, OpenBackend(b.name, b.dir,
                                 cache == Cache::kInCore ? kDefaultCachePages
                                                         : b.out_of_core_pages));
        if (opt.trace) b.timed = WrapTimed(b.store.get(), &b.calls);
        auto* oodb = dynamic_cast<hm::backends::OodbStore*>(b.store.get());
        for (size_t o = 0; o < hm::AllOps().size(); ++o) {
          const OpId op = hm::AllOps()[o];
          // (e) of the previous operation: close, so this one runs cold.
          HM_RETURN_IF_ERROR(b.store->CloseReopen());
          for (bool warm : {false, true}) {
            const RunKey key{op, warm, cache};
            const std::vector<Input>& in = inputs[o];
            const StorageCounts storage_before =
                opt.trace ? StorageCounts::Now() : StorageCounts{};
            const uint64_t objects_before =
                opt.trace && oodb != nullptr
                    ? oodb->object_store()->stats().objects_read
                    : 0;
            const Batch run = RunBatch(b.api(), b.map, op, in.data(), in.size(),
                                       warm, answers.data());
            if (opt.trace) {
              const StorageCounts storage_after = StorageCounts::Now();
              b.storage.Add(storage_before, storage_after);
              b.storage_per_run[key].Add(storage_before, storage_after);
              if (oodb != nullptr) {
                b.objects_read += oodb->object_store()->stats().objects_read -
                                  objects_before;
              }
            }
            result.attempted += run.attempted;
            if (!run.status.ok()) {
              ++result.failed;
              std::cerr << "perfbench: " << b.name << " " << CacheName(cache)
                        << " " << hm::OpName(op)
                        << (warm ? " warm: " : " cold: ")
                        << run.status.ToString() << "\n";
            }
            for (size_t i = 0; i < run.answered; ++i) {
              result.correct &= Check(model, b.shadow.get(), b.map, op, in[i],
                                      warm, answers[i], &why);
            }
            HM_ASSIGN_OR_RETURN(bool same,
                                ReadBack(b.store.get(), model, b.shadow.get(),
                                         b.map, op, in, &why));
            result.correct &= same;
            // Edits are timed with their commit, as §6 requires. Reads
            // are timed without it: their commit only logs and syncs, an
            // fsync whose latency on a shared disk wanders too far from
            // one minute to the next to compare runs by (it is reported
            // per layer as <backend>.commit_us).
            const double ms =
                ClassOf(op) == OpClass::kUpdate ? run.ms : run.ops_ms;
            if (run.status.ok() && run.nodes > 0) {
              b.ms_per_node[key].push_back(
                  ms / static_cast<double>(run.nodes));
            }
            b.nodes += run.nodes;
            ++b.commits;
          }
        }
        HM_RETURN_IF_ERROR(b.store->CloseReopen());
      }
    }
    ++passes;
  }
  if (!why.empty()) std::cerr << "perfbench: wrong answers:\n" << why;
  std::cerr << "perfbench: " << passes << " passes in " << SecondsSince(start)
            << " s\n";

  // Per-operation table on stderr, for people reading the run; traced
  // runs add the storage work of each run's commit, per pass.
  for (Cache cache : kCaches) {
    for (PaperBackend& b : backends) {
      for (OpId op : hm::AllOps()) {
        std::cerr << "  " << b.name << "  " << CacheName(cache) << "  "
                  << hm::OpName(op) << "  cold "
                  << Median(b.ms_per_node[{op, false, cache}]) << "  warm "
                  << Median(b.ms_per_node[{op, true, cache}]) << " ms/node";
        if (opt.trace) {
          for (bool warm : {false, true}) {
            const StorageCounts& c = b.storage_per_run[{op, warm, cache}];
            const double n = passes;
            std::cerr << (warm ? "  warm" : "  cold") << " wal appends "
                      << c.wal_appends / n << " syncs " << c.wal_syncs / n
                      << " flushes " << c.flushes / n << " misses "
                      << c.misses / n;
          }
        }
        std::cerr << "\n";
      }
    }
  }

  std::map<OpClass, std::vector<double>> by_class;
  for (PaperBackend& b : backends) {
    for (const auto& [key, samples] : b.ms_per_node) {
      by_class[ClassOf(key.op)].push_back(Median(samples));
    }
  }
  const double total_nodes = static_cast<double>(backends.size()) *
                             static_cast<double>(model.size());
  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"lookup_ms_per_node", GeoMean(by_class[OpClass::kLookup]), "ms/node"},
      {"closure_ms_per_node", GeoMean(by_class[OpClass::kClosure]), "ms/node"},
      {"update_ms_per_node", GeoMean(by_class[OpClass::kUpdate]), "ms/node"},
      {"store_bytes_per_node", store_bytes / total_nodes, "B/node"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
  if (opt.trace) {
    LayerMetrics layers;
    std::vector<const CallStats*> all;
    StorageCounts total;
    uint64_t nodes = 0, commits = 0;
    for (PaperBackend& b : backends) {
      all.push_back(&b.calls);
      layers.SetStore(b.name + ".", {&b.calls}, static_cast<double>(b.nodes));
      layers.SetStorage(b.name + ".", b.storage, static_cast<double>(b.nodes),
                        static_cast<double>(b.commits));
      if (b.name == "oodb") {
        layers.Set("oodb.objects_read_per_node",
                   Ratio(static_cast<double>(b.objects_read),
                         static_cast<double>(b.nodes)));
      }
      nodes += b.nodes;
      commits += b.commits;
      total.Add(StorageCounts{}, b.storage);
    }
    layers.SetStore("store.", all, static_cast<double>(nodes));
    layers.SetStorage("", total, static_cast<double>(nodes),
                      static_cast<double>(commits));
    result.end_to_end = std::move(result.metrics);
    result.metrics = layers.Take(phases);
  }
  return result;
}

// ---------------------------------------------------------------------
// wire: remote clients of an in-process server, and a sharded fleet

/// A uniform sample of at most kCapacity values (reservoir sampling),
/// so memory does not grow with the length of a run.
class Reservoir {
 public:
  static constexpr size_t kCapacity = size_t{1} << 15;

  void Add(double value) {
    ++seen_;
    if (values_.size() < kCapacity) {
      values_.push_back(value);
      return;
    }
    const uint64_t slot = rng_.NextBounded(seen_);
    if (slot < kCapacity) values_[slot] = value;
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  uint64_t seen_ = 0;
  hm::util::Rng rng_{12345};
};

/// Latency samples of one client, ms per node, keyed by operation.
struct ClientLog {
  std::map<OpId, Reservoir> ms_per_node;
  uint64_t ops = 0;
  uint64_t nodes = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string why;
};

constexpr int kEditsPerCommit = 16;

/// A remote reader: cycles through 01, 05A, 07A, 10 and 15, a whole
/// cycle at a time. Its position carries over from one slice to the
/// next.
struct Reader {
  static constexpr OpId kCycle[] = {OpId::kNameLookup, OpId::kGroupLookup1N,
                                    OpId::kRefLookup1N, OpId::kClosure1N,
                                    OpId::kClosureMNAtt};
  static constexpr int kPool = 512;

  Reader(const Model& model, uint64_t seed) : shadow(model) {
    for (OpId op : kCycle) pools.push_back(SelectInputs(model, op, seed, kPool));
  }

  void Run(hm::HyperStore* store, const Model& model, const RefMap& map,
           Clock::time_point deadline) {
    Answer answer;
    for (; Clock::now() < deadline; ++round) {
      for (size_t k = 0; k < std::size(kCycle); ++k) {
        const Input& in = pools[k][round % kPool];
        const Clock::time_point t0 = Clock::now();
        Status status = Execute(store, map, kCycle[k], in, false, &answer);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        ++log.ops;
        if (!status.ok()) {
          ++log.failed;
          log.why += status.ToString() + "\n";
          continue;
        }
        log.nodes += answer.nodes;
        log.ms_per_node[kCycle[k]].Add(
            ms / static_cast<double>(std::max<uint64_t>(1, answer.nodes)));
        log.correct &= Check(model, &shadow, map, kCycle[k], in, false, answer,
                             &log.why);
      }
    }
  }

  std::vector<std::vector<Input>> pools;
  Shadow shadow;
  size_t round = 0;
  ClientLog log;
};

/// The remote editor: rounds of 16 textNodeEdit plus a commit. Odd
/// rounds undo the even round before them, and a slice ends after an
/// odd round.
struct Editor {
  static constexpr int kGroups = 8;

  Editor(const Model& model, uint64_t seed)
      : pool(SelectInputs(model, OpId::kTextNodeEdit, seed,
                          kGroups * kEditsPerCommit)),
        shadow(model) {}

  void Run(hm::HyperStore* store, const Model& model, const RefMap& map,
           Clock::time_point deadline) {
    std::vector<Answer> answers(kEditsPerCommit);
    for (; round % 2 == 1 || Clock::now() < deadline; ++round) {
      const bool undo = round % 2 == 1;
      const Input* in = &pool[((round / 2) % kGroups) * kEditsPerCommit];
      const Batch run = RunBatch(store, map, OpId::kTextNodeEdit, in,
                                 kEditsPerCommit, undo, answers.data());
      log.ops += run.attempted;
      log.nodes += run.nodes;
      if (!run.status.ok()) {
        ++log.failed;
        log.why += run.status.ToString() + "\n";
      } else {
        round_ms.push_back(run.ms);
      }
      for (size_t i = 0; i < run.answered; ++i) {
        log.correct &= Check(model, &shadow, map, OpId::kTextNodeEdit, in[i],
                             undo, answers[i], &log.why);
      }
    }
  }

  std::vector<Input> pool;
  Shadow shadow;
  size_t round = 0;
  ClientLog log;
  std::vector<double> round_ms;
};

/// Adds the cells of `h` to `into`.
void Merge(const hm::telemetry::HistogramData& h,
           hm::telemetry::HistogramData* into) {
  for (const auto& [bucket, n] : h.buckets) into->buckets[bucket] += n;
  into->count += h.count;
  into->sum += h.sum;
}

/// Counter and histogram differences summed over the slices of one
/// load (traced runs only).
struct SliceCounts {
  hm::telemetry::HistogramData dispatch_us;
  hm::telemetry::HistogramData fanout;
  uint64_t roundtrips = 0;
  uint64_t wire_bytes = 0;
  StorageCounts storage;
  uint64_t objects_read = 0;

  void Add(const Counters& before, const Counters& after) {
    Merge(after.HistDelta(before, "server.op.", ".latency_us"), &dispatch_us);
    Merge(after.HistDelta(before, "cluster.fanout", ""), &fanout);
    roundtrips += after.Delta(before, "remote.pushdown.roundtrips");
    wire_bytes += after.Delta(before, "server.net.bytes_in") +
                  after.Delta(before, "server.net.bytes_out");
  }
};

/// The wire workload: a closed loop of remote readers and an editor
/// against an in-process oodb server, and one client on a two-shard
/// fleet. The two loads run in alternating slices of kSliceSeconds, so
/// each of them samples the whole run.
Result<Outcome> RunWire(const Options& opt) {
  constexpr int kLevels = 5;
  constexpr int kSetups = 3;
  // Two readers and the editor: with their server workers, three
  // closed loops time-slice the benchmark's one CPU.
  constexpr int kReaders = 2;
  constexpr uint32_t kShards = 2;
  constexpr int kPerRound = 16;
  constexpr double kSliceSeconds = 2;
  constexpr double kWarmupSeconds = 0.5;
  Outcome result;
  HM_ASSIGN_OR_RETURN(Model model,
                      Model::Generate(ConfigFor(kLevels, opt.seed)));

  // Set-up, several times: a fresh oodb database behind a fresh server,
  // generated through the wire, and a fresh fleet generated through the
  // sharded client. The last ones are measured.
  CallStats backend_calls;
  std::unique_ptr<hm::backends::RemoteStore> owner;
  hm::backends::OodbStore* oodb = nullptr;
  RefMap remote_map;
  std::unique_ptr<hm::backends::ShardedStore> fleet;
  RefMap shard_map;
  std::vector<double> setup_s;
  std::vector<SetupPhases> phases;
  for (int k = 0; k < kSetups; ++k) {
    owner.reset();
    fleet.reset();
    const std::string dir = opt.workdir + "/remote";
    fs::remove_all(dir);
    fs::create_directories(dir);
    SetupPhases build;
    hm::CreationTiming timing;
    const Clock::time_point t0 = Clock::now();
    HM_ASSIGN_OR_RETURN(auto opened,
                        OpenBackend("oodb", dir, kDefaultCachePages));
    oodb = dynamic_cast<hm::backends::OodbStore*>(opened.get());
    std::unique_ptr<hm::HyperStore> backend = std::move(opened);
    if (opt.trace) backend = WrapTimed(std::move(backend), &backend_calls);
    hm::server::ServerOptions server_options;
    server_options.workers = kReaders + 2;  // every client plus the owner
    HM_ASSIGN_OR_RETURN(owner, hm::backends::RemoteStore::Loopback(
                                   std::move(backend), server_options));
    HM_ASSIGN_OR_RETURN(hm::TestDatabase remote_db,
                        hm::Generator(ConfigFor(kLevels, opt.seed))
                            .Build(owner.get(), &timing));
    build.Add(timing);
    HM_ASSIGN_OR_RETURN(fleet, hm::backends::ShardedStore::Loopback(kShards));
    HM_ASSIGN_OR_RETURN(hm::TestDatabase shard_db,
                        hm::Generator(ConfigFor(kLevels, opt.seed))
                            .Build(fleet.get(), &timing));
    build.Add(timing);
    setup_s.push_back(SecondsSince(t0));
    phases.push_back(build);
    remote_map = RefMap(remote_db);
    shard_map = RefMap(shard_db);
  }
  HM_RETURN_IF_ERROR(CheckRefMap(owner.get(), remote_map));
  HM_RETURN_IF_ERROR(CheckRefMap(fleet.get(), shard_map));
  HM_ASSIGN_OR_RETURN(uint64_t remote_bytes, owner->StorageBytes());
  HM_ASSIGN_OR_RETURN(uint64_t fleet_bytes, fleet->StorageBytes());

  // Remote clients: kReaders readers and the editor, one connection each.
  hm::backends::RemoteOptions client_options;
  client_options.port = owner->owned_server()->port();
  std::vector<std::unique_ptr<hm::backends::RemoteStore>> clients;
  std::vector<std::unique_ptr<CallStats>> client_calls;
  std::vector<std::unique_ptr<hm::HyperStore>> timed;
  std::vector<hm::HyperStore*> apis;
  for (int i = 0; i <= kReaders; ++i) {
    HM_ASSIGN_OR_RETURN(auto client,
                        hm::backends::RemoteStore::Connect(client_options));
    client_calls.push_back(std::make_unique<CallStats>());
    if (opt.trace) {
      timed.push_back(WrapTimed(client.get(), client_calls.back().get()));
      apis.push_back(timed.back().get());
    } else {
      apis.push_back(client.get());
    }
    clients.push_back(std::move(client));
  }
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Reader>(
        model, opt.seed * 131 + static_cast<uint64_t>(r)));
  }
  Editor editor(model, opt.seed * 131 + 99);

  // The shard client: a round is a fixed mix; rounds 2k+1 undo the
  // edits of round 2k, and a slice ends after an odd round.
  struct Kind {
    OpId op;
    const char* name;
    int count;
  };
  static const Kind kKinds[] = {
      {OpId::kNameLookup, "namelookup", kPerRound},
      {OpId::kSeqScan, "seqscan", 1},
      {OpId::kClosure1N, "closure1n", kPerRound},
      {OpId::kClosureMNAtt, "closuremnatt", kPerRound},
  };
  constexpr int kPoolRounds = 32;
  std::vector<std::vector<Input>> shard_pools;
  for (const Kind& kind : kKinds) {
    shard_pools.push_back(
        SelectInputs(model, kind.op, opt.seed, kind.count * kPoolRounds));
  }
  const std::vector<Input> shard_edits = SelectInputs(
      model, OpId::kTextNodeEdit, opt.seed, kPerRound * kPoolRounds);
  std::vector<hm::telemetry::Counter*> rpcs;
  for (uint32_t k = 0; k < kShards; ++k) {
    rpcs.push_back(hm::telemetry::Registry::Global().GetCounter(
        "cluster.shard" + std::to_string(k) + ".rpcs"));
  }
  auto total_rpcs = [&] {
    uint64_t n = 0;
    for (auto* c : rpcs) n += c->value();
    return n;
  };
  Shadow shard_shadow(model);
  std::vector<Answer> edit_answers(kPerRound);
  std::string shard_why;
  std::map<OpId, std::vector<double>> shard_samples;
  std::map<std::string, std::pair<uint64_t, uint64_t>> rpc_counts;  // rpcs, ops
  std::vector<double> shard_edit_ms;
  uint64_t shard_ops = 0, shard_nodes = 0;
  size_t shard_round = 0;

  auto remote_slice = [&](double seconds) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::jthread> threads;
    for (size_t r = 0; r < readers.size(); ++r) {
      threads.emplace_back([&, r] {
        readers[r]->Run(apis[r], model, remote_map, deadline);
      });
    }
    threads.emplace_back(
        [&] { editor.Run(apis.back(), model, remote_map, deadline); });
  };

  auto shard_slice = [&](double seconds) {
    Answer answer;
    const Clock::time_point slice_start = Clock::now();
    for (; shard_round % 2 == 1 || SecondsSince(slice_start) < seconds;
         ++shard_round) {
      const size_t slot = (shard_round / 2) % kPoolRounds;
      for (size_t k = 0; k < std::size(kKinds); ++k) {
        const Kind& kind = kKinds[k];
        for (int i = 0; i < kind.count; ++i) {
          const Input& in =
              shard_pools[k][slot * static_cast<size_t>(kind.count) +
                             static_cast<size_t>(i)];
          const uint64_t rpcs_before = opt.trace ? total_rpcs() : 0;
          const Clock::time_point t0 = Clock::now();
          Status status = Execute(fleet.get(), shard_map, kind.op, in, false,
                                  &answer);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
          ++shard_ops;
          ++result.attempted;
          if (!status.ok()) {
            ++result.failed;
            shard_why += status.ToString() + "\n";
            continue;
          }
          if (opt.trace) {
            auto& [n_rpcs, n_ops] = rpc_counts[kind.name];
            n_rpcs += total_rpcs() - rpcs_before;
            ++n_ops;
          }
          shard_nodes += answer.nodes;
          shard_samples[kind.op].push_back(
              ms / static_cast<double>(std::max<uint64_t>(1, answer.nodes)));
          result.correct &= Check(model, &shard_shadow, shard_map, kind.op, in,
                                  false, answer, &shard_why);
        }
      }
      // The edit round: 16 textNodeEdit and a commit.
      const bool undo = shard_round % 2 == 1;
      const Input* in = &shard_edits[slot * kPerRound];
      const uint64_t rpcs_before = opt.trace ? total_rpcs() : 0;
      const Batch run =
          RunBatch(fleet.get(), shard_map, OpId::kTextNodeEdit, in, kPerRound,
                   undo, edit_answers.data());
      shard_ops += run.attempted;
      result.attempted += run.attempted;
      shard_nodes += run.nodes;
      if (!run.status.ok()) {
        ++result.failed;
        shard_why += run.status.ToString() + "\n";
      } else {
        shard_edit_ms.push_back(run.ms / kPerRound);
        if (opt.trace) {
          auto& [n_rpcs, n_ops] = rpc_counts["textnodeedit"];
          n_rpcs += total_rpcs() - rpcs_before;
          n_ops += kPerRound;
        }
      }
      for (size_t i = 0; i < run.answered; ++i) {
        result.correct &= Check(model, &shard_shadow, shard_map,
                                OpId::kTextNodeEdit, in[i], undo,
                                edit_answers[i], &shard_why);
      }
    }
  };

  // Warm-up: one short slice of each load, whose timings are dropped.
  remote_slice(kWarmupSeconds);
  shard_slice(kWarmupSeconds);
  for (auto& reader : readers) reader->log.ms_per_node.clear();
  editor.round_ms.clear();
  shard_samples.clear();
  shard_edit_ms.clear();
  rpc_counts.clear();
  backend_calls.Reset();
  for (auto& calls : client_calls) calls->Reset();

  // Measured: alternating slices until opt.seconds have passed.
  SliceCounts remote_counts, shard_counts;
  const uint64_t objects_before = oodb->object_store()->stats().objects_read;
  const uint64_t remote_ops_before = [&] {
    uint64_t n = editor.log.ops;
    for (auto& reader : readers) n += reader->log.ops;
    return n;
  }();
  const uint64_t remote_nodes_before = [&] {
    uint64_t n = editor.log.nodes;
    for (auto& reader : readers) n += reader->log.nodes;
    return n;
  }();
  const uint64_t shard_ops_before = shard_ops, shard_nodes_before = shard_nodes;
  const Clock::time_point start = Clock::now();
  int slices = 0;
  while (slices < 2 || SecondsSince(start) < opt.seconds) {
    Counters before = opt.trace ? Counters::Take() : Counters{};
    const StorageCounts storage_before =
        opt.trace ? StorageCounts::Now() : StorageCounts{};
    remote_slice(kSliceSeconds);
    if (opt.trace) {
      Counters after = Counters::Take();
      remote_counts.Add(before, after);
      remote_counts.storage.Add(storage_before, StorageCounts::Now());
      before = std::move(after);
    }
    shard_slice(kSliceSeconds);
    if (opt.trace) shard_counts.Add(before, Counters::Take());
    slices += 2;
  }
  const double elapsed = SecondsSince(start);
  const uint64_t objects_read =
      oodb->object_store()->stats().objects_read - objects_before;

  std::map<OpId, std::vector<double>> remote_samples;
  uint64_t remote_ops = 0, remote_nodes = 0;
  std::vector<const ClientLog*> logs;
  for (auto& reader : readers) logs.push_back(&reader->log);
  logs.push_back(&editor.log);
  for (const ClientLog* log : logs) {
    for (const auto& [op, reservoir] : log->ms_per_node) {
      const std::vector<double>& v = reservoir.values();
      remote_samples[op].insert(remote_samples[op].end(), v.begin(), v.end());
    }
    remote_ops += log->ops;
    remote_nodes += log->nodes;
    result.attempted += log->ops;
    result.failed += log->failed;
    result.correct &= log->correct;
    if (!log->why.empty()) std::cerr << "perfbench: remote client:\n" << log->why;
  }
  if (!shard_why.empty()) std::cerr << "perfbench: shard client:\n" << shard_why;
  remote_ops -= remote_ops_before;
  remote_nodes -= remote_nodes_before;
  shard_ops -= shard_ops_before;
  shard_nodes -= shard_nodes_before;
  const uint64_t commits = editor.round_ms.size();
  std::cerr << "perfbench: " << slices << " slices in " << elapsed
            << " s; remote: " << remote_ops << " operations, " << commits
            << " commits with " << kReaders << " readers and 1 editor; shard: "
            << shard_ops << " operations\n";

  auto median_of = [](std::map<OpId, std::vector<double>>& samples, OpId op) {
    return Median(samples[op]);
  };
  std::vector<double> remote_round;
  for (double ms : editor.round_ms) remote_round.push_back(ms / kEditsPerCommit);
  for (auto& [op, v] : remote_samples) {
    std::cerr << "  remote  " << hm::OpName(op) << "  " << Median(v)
              << " ms/node\n";
  }
  std::cerr << "  remote  16  textNodeEdit round  " << Median(remote_round)
            << " ms/node\n";
  for (auto& [op, v] : shard_samples) {
    std::cerr << "  shard  " << hm::OpName(op) << "  " << Median(v)
              << " ms/node\n";
  }
  std::cerr << "  shard  16  textNodeEdit round  " << Median(shard_edit_ms)
            << " ms/node\n";

  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"lookup_ms_per_node",
       GeoMean({median_of(remote_samples, OpId::kNameLookup),
                median_of(remote_samples, OpId::kGroupLookup1N),
                median_of(remote_samples, OpId::kRefLookup1N),
                median_of(shard_samples, OpId::kNameLookup)}),
       "ms/node"},
      {"closure_ms_per_node",
       GeoMean({median_of(remote_samples, OpId::kClosure1N),
                median_of(remote_samples, OpId::kClosureMNAtt),
                median_of(shard_samples, OpId::kSeqScan),
                median_of(shard_samples, OpId::kClosure1N),
                median_of(shard_samples, OpId::kClosureMNAtt)}),
       "ms/node"},
      {"update_ms_per_node",
       GeoMean({Median(remote_round), Median(shard_edit_ms)}), "ms/node"},
      {"store_bytes_per_node",
       static_cast<double>(remote_bytes + fleet_bytes) /
           (2 * static_cast<double>(model.size())),
       "B/node"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
  if (opt.trace) {
    const double nodes = static_cast<double>(remote_nodes);
    const double ops = static_cast<double>(remote_ops);
    LayerMetrics layers;
    std::vector<const CallStats*> stats;
    for (auto& s : client_calls) stats.push_back(s.get());
    layers.SetStore("store.", stats, nodes);
    layers.SetStore("oodb.", {&backend_calls}, nodes);
    layers.SetStorage("", remote_counts.storage, nodes,
                      static_cast<double>(commits));
    layers.SetStorage("oodb.", remote_counts.storage, nodes,
                      static_cast<double>(commits));
    layers.Set("oodb.objects_read_per_node",
               Ratio(static_cast<double>(objects_read), nodes));
    const double dispatch_p50 =
        static_cast<double>(remote_counts.dispatch_us.Quantile(0.5));
    const double rtt_p50 =
        static_cast<double>(Latencies(stats).Quantile(0.5)) / 1000;
    layers.Set("server.dispatch_us.p50", dispatch_p50);
    layers.Set("wire_queue_us.p50", rtt_p50 - dispatch_p50);
    layers.Set("remote.roundtrips_per_op",
               Ratio(static_cast<double>(remote_counts.roundtrips), ops));
    layers.Set("server.bytes_per_op",
               Ratio(static_cast<double>(remote_counts.wire_bytes), ops));
    layers.Set("cluster.bytes_per_node",
               Ratio(static_cast<double>(shard_counts.wire_bytes),
                     static_cast<double>(shard_nodes)));
    for (const auto& [name, counts] : rpc_counts) {
      layers.Set("cluster.shard_rpcs_per_op." + name,
                 Ratio(static_cast<double>(counts.first),
                       static_cast<double>(counts.second)));
    }
    layers.Set("cluster.fanout_mean", shard_counts.fanout.Mean());
    result.end_to_end = std::move(result.metrics);
    result.metrics = layers.Take(phases);
  }
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper", "wire"};
  return names;
}

Result<Outcome> RunWorkload(const Options& options) {
  if (options.workload == "paper") return RunPaper(options);
  if (options.workload == "wire") return RunWire(options);
  return Status::InvalidArgument("unknown workload " + options.workload);
}

int RunSelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };
  auto model = Model::Generate(ConfigFor(4, 1));
  if (!model.ok()) {
    std::cerr << "selftest: " << model.status().ToString() << "\n";
    return 1;
  }
  hm::backends::MemStore store;
  auto db = hm::Generator(ConfigFor(4, 1)).Build(&store, nullptr);
  if (!db.ok()) {
    std::cerr << "selftest: " << db.status().ToString() << "\n";
    return 1;
  }
  RefMap map(*db);
  expect(CheckRefMap(&store, map).ok(), "uniqueIds follow creation order");

  // Every operation's real answers pass the check, cold and warm.
  Shadow shadow(*model);
  std::map<OpId, std::pair<Input, Answer>> kept;
  for (OpId op : hm::AllOps()) {
    std::vector<Input> inputs = SelectInputs(*model, op, 1, 8);
    std::vector<Answer> answers(inputs.size());
    for (bool warm : {false, true}) {
      const Batch run = RunBatch(&store, map, op, inputs.data(), inputs.size(),
                                 warm, answers.data());
      expect(run.status.ok(), std::string(hm::OpName(op)) + " runs");
      for (size_t i = 0; i < run.answered; ++i) {
        std::string why;
        expect(Check(*model, &shadow, map, op, inputs[i], warm, answers[i],
                     &why),
               std::string(hm::OpName(op)) + " answer accepted: " + why);
      }
      if (!warm && run.answered > 0) {
        kept.emplace(op, std::make_pair(inputs[0], answers[0]));
      }
      auto same = ReadBack(&store, *model, &shadow, map, op, inputs, nullptr);
      expect(same.ok() && *same, std::string(hm::OpName(op)) + " read-back");
    }
  }

  // Perturbed answers are rejected.
  auto rejects = [&](OpId op, const std::function<void(Answer*)>& perturb,
                     const std::string& what) {
    auto [in, a] = kept.at(op);
    perturb(&a);
    Shadow fresh(*model);
    expect(!Check(*model, &fresh, map, op, in, false, a, nullptr),
           "rejects " + what);
  };
  rejects(OpId::kClosure1N,
          [](Answer* a) { a->refs.erase(a->refs.begin() + 1); },
          "closure1N with one uid dropped");
  rejects(OpId::kClosure1N,
          [](Answer* a) { std::swap(a->refs[1], a->refs[2]); },
          "closure1N with two nodes swapped");
  rejects(OpId::kGroupLookup1N,
          [](Answer* a) { std::swap(a->refs.front(), a->refs.back()); },
          "groupLookup1N with two children swapped");
  rejects(OpId::kClosureMNAtt, [](Answer* a) { a->refs.pop_back(); },
          "closureMNATT with one uid dropped");
  rejects(OpId::kClosureMN,
          [&](Answer* a) { a->refs.push_back(map.ref(1)); },
          "closureMN with the root added");
  rejects(OpId::kRangeLookupHundred, [](Answer* a) { a->refs.pop_back(); },
          "rangeLookupHundred with one member dropped");
  rejects(OpId::kClosureMNAttLinkSum,
          [](Answer* a) { a->distances.back().distance += 1000; },
          "closureMNATTLINKSUM with a distance off every path");
  rejects(OpId::kClosureMNAttLinkSum,
          [](Answer* a) { a->distances.pop_back(); },
          "closureMNATTLINKSUM with a reachable node dropped");
  rejects(OpId::kNameLookup, [](Answer* a) { a->value += 1; },
          "nameLookup with a wrong hundred");
  rejects(OpId::kSeqScan, [](Answer* a) { a->values[7] += 1; },
          "seqScan with a wrong ten");
  rejects(OpId::kClosure1NAttSum, [](Answer* a) { a->value -= 1; },
          "closure1NAttSum with a wrong sum");
  rejects(OpId::kTextNodeEdit, [](Answer* a) { a->value += 1; },
          "textNodeEdit with a wrong substitution count");

  // An edit that did not happen is caught by the read-back.
  {
    Shadow fresh(*model);
    std::vector<Input> in = SelectInputs(*model, OpId::kFormNodeEdit, 2, 1);
    Answer a;
    expect(Check(*model, &fresh, map, OpId::kFormNodeEdit, in[0], false, a,
                 nullptr),
           "formNodeEdit shadow update");
    auto same = ReadBack(&store, *model, &fresh, map, OpId::kFormNodeEdit, in,
                         nullptr);
    expect(same.ok() && !*same, "read-back rejects a missing form edit");
  }
  std::cerr << "selftest: " << (failures == 0 ? "ok" : "FAILED") << "\n";
  return failures;
}

}  // namespace perfbench
