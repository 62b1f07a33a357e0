#include "replay/replay.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/stage_graph.h"
#include "util/clock.h"

namespace pkb::replay {

namespace {

using rag::StageKind;

/// The earliest stage each override invalidates: replay must re-run from
/// there even when the caller asked for a later cut.
StageKind effective_from(const ReplayOverrides& ov) {
  StageKind from = ov.from;
  const auto pull = [&from](StageKind k) {
    if (static_cast<int>(k) < static_cast<int>(from)) from = k;
  };
  if (ov.first_pass_k.has_value()) pull(StageKind::Retrieve);
  if (ov.final_l.has_value() || ov.reranker.has_value()) {
    pull(StageKind::Rerank);
  }
  if (ov.max_attended.has_value()) pull(StageKind::Prompt);
  if (ov.model.has_value()) pull(StageKind::Generate);
  return from;
}

std::vector<std::string> context_ids(
    const std::vector<llm::ContextDoc>& docs) {
  std::vector<std::string> ids;
  ids.reserve(docs.size());
  for (const llm::ContextDoc& doc : docs) ids.push_back(doc.id);
  return ids;
}

}  // namespace

std::string ReplayDiff::summary() const {
  std::ostringstream out;
  if (!any()) {
    out << "no differences: the replay reproduced the recorded run";
    if (!unresolved_contexts.empty()) {
      out << " (" << unresolved_contexts.size()
          << " recorded context(s) no longer in the live generation)";
    }
    return out.str();
  }
  if (generation_changed) out << "generation: changed since the recording\n";
  for (const std::string& id : contexts_added) {
    out << "context +" << id << "\n";
  }
  for (const std::string& id : contexts_removed) {
    out << "context -" << id << "\n";
  }
  if (context_order_changed) out << "context order: changed\n";
  for (const std::string& id : unresolved_contexts) {
    out << "context ?" << id << " (not in live generation)\n";
  }
  if (prompt_changed) out << "prompt: changed\n";
  if (mode_changed) {
    out << "mode: \"" << recorded_mode << "\" -> \"" << replayed_mode
        << "\"\n";
  }
  if (answer_changed) {
    out << "answer: changed\n--- recorded ---\n"
        << recorded_answer << "\n--- replayed ---\n"
        << replayed_answer << "\n";
  } else {
    out << "answer: identical\n";
  }
  return out.str();
}

ReplayEngine::ReplayEngine(const rag::KnowledgeBase& kb) : kb_(kb) {}

void ReplayEngine::set_fault_plan(const resilience::FaultPlan* plan,
                                  std::uint32_t search_hedges) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_plan_ = plan;
  search_hedges_ = search_hedges;
  for (auto& [key, wf] : workflows_) {
    wf->set_fault_plan(plan, search_hedges);
  }
}

const rag::AugmentedWorkflow& ReplayEngine::workflow_for(
    const rag::StageTrace& recorded, const ReplayOverrides& ov) const {
  const std::string model = ov.model.value_or(recorded.model);
  const std::string reranker = ov.reranker.value_or(recorded.reranker);
  const std::size_t k = ov.first_pass_k.value_or(
      static_cast<std::size_t>(recorded.first_pass_k));
  const std::size_t l =
      ov.final_l.value_or(static_cast<std::size_t>(recorded.final_l));
  std::string key = recorded.arm;
  key += '|';
  key += model;
  key += '|';
  key += reranker;
  key += '|';
  key += std::to_string(k);
  key += '|';
  key += std::to_string(l);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = workflows_.find(key);
  if (it != workflows_.end()) return *it->second;

  const std::optional<rag::PipelineArm> arm = rag::arm_from_string(
      recorded.arm);
  if (!arm.has_value()) {
    throw std::runtime_error("trace has unknown pipeline arm: " +
                             recorded.arm);
  }
  rag::RetrieverOptions opts;
  opts.first_pass_k = k;
  opts.final_l = l;
  opts.reranker = reranker;
  auto wf = std::make_unique<rag::AugmentedWorkflow>(
      kb_, *arm, llm::model_config(model), std::move(opts));
  if (fault_plan_ != nullptr) wf->set_fault_plan(fault_plan_, search_hedges_);
  return *workflows_.emplace(std::move(key), std::move(wf)).first->second;
}

ReplayResult ReplayEngine::replay(const rag::StageTrace& recorded,
                                  const ReplayOverrides& overrides) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kReplayReplaysTotal).inc();
  pkb::util::Stopwatch watch;

  const rag::AugmentedWorkflow& wf = workflow_for(recorded, overrides);
  const StageKind from = effective_from(overrides);

  ReplayResult result;
  result.from = from;

  rag::StageState st;
  st.wf = &wf;
  st.question = recorded.question;
  st.open_retrieve_span = false;  // each stage gets its own replay_stage span
  st.max_attended_override = overrides.max_attended.has_value()
                                 ? *overrides.max_attended
                                 : static_cast<std::size_t>(
                                       recorded.prompt.max_attended);

  // --- seed the artifacts of every stage upstream of the cut --------------
  const bool has_retriever = wf.retriever() != nullptr;
  if (has_retriever && from > StageKind::Embed && from <= StageKind::Prompt) {
    // Retrieval artifacts are resolved against the *live* generation: a
    // recorded chunk id that no longer exists is reported, not fabricated.
    st.snapshot = kb_.snapshot();
    st.outcome.retrieval.snapshot = st.snapshot;
    const std::vector<text::Document>& chunks = st.snapshot->chunks;
    std::unordered_map<std::string_view, std::size_t> by_id;
    by_id.reserve(chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      by_id.emplace(chunks[i].id, i);
    }
    const auto resolve = [&](const std::vector<rag::ContextRef>& refs,
                             std::vector<rag::RetrievedContext>& out) {
      for (const rag::ContextRef& ref : refs) {
        const auto it = by_id.find(ref.id);
        if (it == by_id.end()) {
          result.diff.unresolved_contexts.push_back(ref.id);
          continue;
        }
        out.push_back(rag::RetrievedContext{
            &chunks[it->second], ref.score, ref.via,
            static_cast<std::size_t>(ref.first_pass_rank), it->second});
      }
    };
    st.outcome.retrieval.query_embedding =
        std::make_shared<embed::Vector>(recorded.embed.query_vec);
    st.outcome.retrieval.embed_seconds = recorded.embed_seconds;
    if (from > StageKind::Retrieve) {
      resolve(recorded.retrieve.candidates, st.outcome.retrieval.first_pass);
      st.outcome.retrieval.search_seconds = recorded.search_seconds;
      st.outcome.retrieval.shards_failed = recorded.retrieve.shards_failed;
      st.outcome.retrieval.shards_total = recorded.retrieve.shards_total;
    }
    if (from > StageKind::Rerank) {
      resolve(recorded.rerank.contexts, st.outcome.retrieval.contexts);
      st.outcome.retrieval.rerank_degraded = recorded.rerank.rerank_degraded;
      st.outcome.retrieval.rerank_seconds = recorded.rerank_seconds;
    }
  }
  if (from > StageKind::Prompt) {
    // The fully assembled request is recorded verbatim — no snapshot needed
    // at all, which is what makes replay-from-Generate zero-retrieval.
    st.request.system = recorded.prompt.system;
    st.request.question = recorded.question;
    st.request.contexts = recorded.prompt.contexts;
    st.request.max_attended_contexts =
        static_cast<std::size_t>(recorded.prompt.max_attended);
    st.outcome.prompt = recorded.prompt.prompt;
    st.outcome.generation = recorded.generation;
  }
  if (from > StageKind::Generate) {
    st.outcome.response = recorded.generate.response;
  }

  // --- run [from, Postprocess] through the production stage graph ---------
  const rag::StageGraph& graph = rag::global_stage_graph();
  for (int i = 0; i < static_cast<int>(from); ++i) {
    metrics
        .counter(obs::kReplayStagesSkippedTotal,
                 {{"stage",
                   std::string(to_string(static_cast<StageKind>(i)))}})
        .inc();
  }
  for (int i = static_cast<int>(from);
       i <= static_cast<int>(StageKind::Postprocess); ++i) {
    const auto kind = static_cast<StageKind>(i);
    const std::string name(to_string(kind));
    obs::Span span(obs::global_tracer(), obs::kSpanReplayStage);
    span.set_attr("stage", name);
    span.set_attr("trace_id", recorded.id);
    graph.stage(kind).run(st);
    metrics.counter(obs::kReplayStagesRunTotal, {{"stage", name}}).inc();
  }

  rag::capture_stage_trace(st, result.trace);
  result.trace.id = recorded.id;

  // --- diff what the replay recomputed against the recording --------------
  ReplayDiff& diff = result.diff;
  diff.recorded_answer = recorded.generate.response.text;
  diff.replayed_answer = st.outcome.response.text;
  diff.answer_changed = diff.recorded_answer != diff.replayed_answer;
  diff.recorded_mode = recorded.generate.response.mode;
  diff.replayed_mode = st.outcome.response.mode;
  diff.mode_changed = diff.recorded_mode != diff.replayed_mode;
  if (from <= StageKind::Prompt) {
    diff.prompt_changed = recorded.prompt.prompt != st.outcome.prompt;
    diff.generation_changed = recorded.generation != st.outcome.generation;
    const std::vector<std::string> rec = context_ids(recorded.prompt.contexts);
    const std::vector<std::string> rep = context_ids(st.request.contexts);
    const std::unordered_set<std::string> rec_set(rec.begin(), rec.end());
    const std::unordered_set<std::string> rep_set(rep.begin(), rep.end());
    for (const std::string& id : rep) {
      if (rec_set.count(id) == 0) diff.contexts_added.push_back(id);
    }
    for (const std::string& id : rec) {
      if (rep_set.count(id) == 0) diff.contexts_removed.push_back(id);
    }
    diff.context_order_changed = diff.contexts_added.empty() &&
                                 diff.contexts_removed.empty() && rec != rep;
  }
  if (diff.any()) metrics.counter(obs::kReplayDiffsTotal).inc();

  result.outcome = std::move(st.outcome);
  metrics.histogram(obs::kReplayReplaySeconds).observe(watch.seconds());
  return result;
}

}  // namespace pkb::replay
