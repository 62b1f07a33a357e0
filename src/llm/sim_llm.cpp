#include "llm/sim_llm.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "llm/hallucination.h"
#include "llm/parametric.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pkb::llm {

namespace {

using pkb::util::Rng;

/// Content terms of the question: non-stopword tokens, with symbols kept
/// separately (they carry extra weight).
struct QueryTerms {
  std::vector<std::string> terms;    // lowercased content terms (distinct)
  std::vector<std::string> symbols;  // original-case API symbols
};

QueryTerms query_terms(std::string_view question) {
  QueryTerms out;
  const text::TokenizedText tt = text::tokenize(question);
  std::unordered_set<std::string> seen;
  for (const std::string& tok : tt.tokens) {
    if (text::stopwords().contains(tok) || tok.size() < 2) continue;
    if (seen.insert(tok).second) out.terms.push_back(tok);
  }
  out.symbols = tt.symbols;
  return out;
}

/// Per-request term weights: query terms are weighted by how discriminative
/// they are ACROSS the attended contexts (a term present in every context
/// separates nothing — the in-context analogue of attention sharpening).
struct TermWeights {
  std::unordered_map<std::string, double> weight;
};

TermWeights compute_term_weights(const QueryTerms& q,
                                 const LlmRequest& request,
                                 std::size_t attended) {
  TermWeights tw;
  // Lowercase each attended context once, not once per query term.
  std::vector<std::string> lowered;
  lowered.reserve(attended);
  for (std::size_t c = 0; c < attended; ++c) {
    lowered.push_back(pkb::util::to_lower(request.contexts[c].text));
  }
  auto df_of = [&](const std::string& needle, bool icase) {
    std::size_t df = 0;
    for (std::size_t c = 0; c < attended; ++c) {
      const bool hit =
          icase ? pkb::util::icontains(request.contexts[c].text, needle)
                : lowered[c].find(needle) != std::string::npos;
      if (hit) ++df;
    }
    return df;
  };
  for (const std::string& term : q.terms) {
    const std::size_t df = df_of(term, false);
    tw.weight[term] = 1.0 / (0.5 + static_cast<double>(df));
  }
  for (const std::string& symbol : q.symbols) {
    const std::size_t df = df_of(symbol, true);
    tw.weight["\x01" + symbol] = 3.0 / (0.5 + static_cast<double>(df));
  }
  return tw;
}

/// Relevance of one sentence to the query.
double sentence_score(std::string_view sentence, const QueryTerms& q,
                      const TermWeights& tw) {
  const std::string lower = pkb::util::to_lower(sentence);
  double score = 0.0;
  for (const std::string& term : q.terms) {
    if (lower.find(term) != std::string::npos) {
      score += tw.weight.at(term);
    }
  }
  for (const std::string& symbol : q.symbols) {
    if (pkb::util::icontains(sentence, symbol)) {
      score += tw.weight.at("\x01" + symbol);
    }
  }
  // Mild length normalization: prefer focused sentences.
  const double words =
      static_cast<double>(pkb::util::split_ws(sentence).size());
  return score / (1.0 + 0.015 * words);
}

struct ScoredSentence {
  std::string text;
  double score = 0.0;
  std::size_t context_rank = 0;
  std::size_t position = 0;
  std::string context_id;
};

/// Token-set Jaccard similarity, used to suppress near-duplicate sentences
/// coming from different pages (option page vs function page often state
/// the same thing).
double jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  std::size_t common = 0;
  for (const std::string& t : sa) {
    if (sb.contains(t)) ++common;
  }
  return static_cast<double>(common) /
         static_cast<double>(sa.size() + sb.size() - common);
}

std::string format_options_line(const corpus::ApiSpec& spec) {
  if (spec.options.empty()) return "";
  // "  -opt <v> : description" -> keep the first two entries verbatim.
  std::string out = "Relevant options: ";
  const std::size_t n = std::min<std::size_t>(2, spec.options.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += "; ";
    out += spec.options[i];
  }
  out += ".";
  return out;
}

}  // namespace

SimLlm::SimLlm(LlmConfig config) : config_(std::move(config)) {}

SimLlm SimLlm::from_name(std::string_view name) {
  return SimLlm(model_config(name));
}

SimLlm::Draft SimLlm::answer_grounded(const LlmRequest& request,
                                      Rng& rng) const {
  Draft draft;
  const QueryTerms q = query_terms(request.question);
  const std::size_t attended =
      std::min(request.max_attended_contexts, request.contexts.size());

  // Which question symbols are covered by the attended contexts?
  std::vector<std::string> uncovered_symbols;
  for (const std::string& symbol : q.symbols) {
    bool covered = false;
    for (std::size_t c = 0; c < attended && !covered; ++c) {
      covered = pkb::util::icontains(request.contexts[c].text, symbol);
    }
    if (!covered) uncovered_symbols.push_back(symbol);
  }

  // Score every sentence of every attended context.
  const TermWeights tw = compute_term_weights(q, request, attended);
  std::vector<ScoredSentence> scored;
  for (std::size_t c = 0; c < attended; ++c) {
    const auto sentences = text::split_sentences(request.contexts[c].text);
    for (std::size_t s = 0; s < sentences.size(); ++s) {
      const double base = sentence_score(sentences[s], q, tw);
      if (base <= 0.0) continue;
      ScoredSentence ss;
      ss.text = std::string(sentences[s]);
      // Position bias: models attend most to the leading context and
      // progressively less to later ones ("lost in the middle"). This is
      // the mechanism that makes reranking matter — promoting the decisive
      // document to the front changes what the model actually uses.
      ss.score = base / (1.0 + config_.attention_decay * static_cast<double>(c));
      ss.context_rank = c;
      ss.position = s;
      ss.context_id = request.contexts[c].id;
      scored.push_back(std::move(ss));
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredSentence& a, const ScoredSentence& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.context_rank != b.context_rank) {
                return a.context_rank < b.context_rank;
              }
              return a.position < b.position;
            });

  // Select under a completion budget, with fidelity-controlled drops and
  // near-duplicate suppression (the same statement often exists on both an
  // option page and a function page).
  std::vector<const ScoredSentence*> selected;
  std::vector<std::vector<std::string>> selected_tokens;
  std::size_t budget_words = config_.completion_budget_words;
  for (const ScoredSentence& ss : scored) {
    if (selected.size() >= config_.max_answer_sentences || budget_words == 0) {
      break;
    }
    std::vector<std::string> toks = text::tokens_of(ss.text);
    bool duplicate = false;
    for (const auto& prev : selected_tokens) {
      if (jaccard(toks, prev) >= 0.4) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (!selected.empty() &&
        rng.uniform() > config_.grounding_fidelity) {
      continue;  // imperfect grounding: sentence dropped
    }
    const std::size_t words = pkb::util::split_ws(ss.text).size();
    selected.push_back(&ss);
    selected_tokens.push_back(std::move(toks));
    budget_words -= std::min(budget_words, words);
  }

  // Unknown-symbol caveat (the grounded KSPBurb behaviour): with no covering
  // context and sufficient model discipline, say so instead of guessing.
  std::string caveat;
  if (!uncovered_symbols.empty() && selected.size() <= 2) {
    if (rng.uniform() < config_.quality) {
      caveat = "It appears there may be a typo or misunderstanding: there "
               "is no PETSc function or object named " +
               uncovered_symbols.front() +
               " in the documentation available to me. ";
      if (corpus::find_spec_fuzzy(uncovered_symbols.front()) != nullptr) {
        caveat += "Did you mean " +
                  corpus::find_spec_fuzzy(uncovered_symbols.front())->name +
                  "? ";
      }
      draft.mode = "grounded-caveat";
    } else {
      draft.text = fabricate_symbol_answer(uncovered_symbols.front(), rng);
      draft.mode = "hallucination";
      return draft;
    }
  }

  if (selected.empty() && caveat.empty()) {
    // Nothing in the contexts helps; a disciplined model hedges, an
    // undisciplined one free-associates from memory.
    if (rng.uniform() < config_.quality) {
      draft.text =
          "The retrieved PETSc documentation does not directly address "
          "this; could you share the exact solver configuration (-ksp_view "
          "output) so I can be specific?";
      draft.mode = "grounded-weak";
    } else {
      const TopicMatch topic =
          ParametricMemory::instance().resolve(request.question);
      draft.text = fabricate_topic_answer(request.question, topic.spec, rng);
      draft.mode = "hallucination";
    }
    return draft;
  }

  // Lead with the entity the best-matching context documents: the model
  // names the API it is recommending (as the paper's example answers do:
  // "The pivotal solver for such cases in PETSc is KSPLSQR ...").
  std::string lead;
  if (!selected.empty()) {
    const std::size_t lead_rank = selected.front()->context_rank;
    const std::string& title = request.contexts[lead_rank].title;
    if (!title.empty() && text::looks_like_symbol(title)) {
      lead = "Use " + title + ". ";
    }
  }

  // Compose: keep document order within the selection for coherence.
  std::sort(selected.begin(), selected.end(),
            [](const ScoredSentence* a, const ScoredSentence* b) {
              if (a->context_rank != b->context_rank) {
                return a->context_rank < b->context_rank;
              }
              return a->position < b->position;
            });
  std::string body;
  std::unordered_set<std::string> used;
  for (const ScoredSentence* ss : selected) {
    if (!body.empty()) body += " ";
    body += ss->text;
    if (used.insert(ss->context_id).second) {
      draft.used_context_ids.push_back(ss->context_id);
    }
  }
  draft.text = caveat + lead + body;
  if (draft.mode.empty()) draft.mode = "grounded";
  return draft;
}

SimLlm::Draft SimLlm::answer_parametric(const LlmRequest& request,
                                        Rng& rng) const {
  Draft draft;
  const TopicMatch topic =
      ParametricMemory::instance().resolve(request.question);

  if (topic.spec == nullptr) {
    if (!topic.query_symbol.empty()) {
      // Asked about an entity with zero pretraining signal: mainstream
      // models pattern-match the naming convention and fabricate.
      draft.text = fabricate_symbol_answer(topic.query_symbol, rng);
      draft.mode = "hallucination";
    } else {
      draft.text =
          "This is difficult to answer in general; it depends on the "
          "problem, the discretization, and the machine. PETSc provides "
          "many options that may help.";
      draft.mode = "refusal";
    }
    return draft;
  }

  const corpus::ApiSpec& spec = *topic.spec;
  const double exposure = spec.popularity * config_.knowledge;
  const double effective = exposure + 0.1 * (rng.uniform() - 0.5);

  if (effective >= 0.48) {
    // Well-known topic: a full, correct recall of the entity. Overview
    // (Concept) pages are recalled in broad strokes only — a model knows
    // "what KSP is" far better than the specific details buried in the
    // page (that asymmetry is precisely why RAG helps).
    std::string out = "Use " + spec.name + ". " + spec.summary;
    if (!spec.notes.empty()) out += " " + spec.notes.front();
    if (effective >= 0.62 && spec.notes.size() > 1 &&
        spec.kind != corpus::ApiKind::Concept) {
      out += " " + spec.notes[1];
    }
    const std::string options_line = format_options_line(spec);
    if (!options_line.empty()) out += " " + options_line;
    draft.text = std::move(out);
    draft.mode = "parametric";
    return draft;
  }

  if (effective >= 0.27) {
    // Partially-known topic: the headline is right, the details are thin —
    // the model recalls the gist of the summary, not its fine print.
    const auto words = pkb::util::split_ws(spec.summary);
    std::string gist;
    for (std::size_t i = 0; i < words.size() && i < 11; ++i) {
      if (i != 0) gist += ' ';
      gist += words[i];
    }
    if (words.size() > 11) gist += " ...";
    draft.text = spec.name + " is the relevant functionality here: " + gist +
                 " Check the PETSc manual for the exact calling sequence "
                 "and the related runtime options.";
    draft.mode = "parametric-partial";
    return draft;
  }

  // Thin knowledge: confidently wrong.
  draft.text = fabricate_topic_answer(request.question, &spec, rng);
  draft.mode = "hallucination";
  return draft;
}

LlmResponse SimLlm::complete(const LlmRequest& request) const {
  obs::Span span(obs::global_tracer(), obs::kSpanLlm);
  span.set_attr("model", config_.name);

  // Chaos hook: throws for injected error/timeout decisions, returns extra
  // virtual latency for a spike (added to the latency model below).
  const double spike_seconds =
      pkb::resilience::consult(fault_plan_, pkb::resilience::Stage::Llm);

  Rng rng(pkb::util::seed_from(request.question, config_.seed));

  Draft draft = request.contexts.empty() ? answer_parametric(request, rng)
                                         : answer_grounded(request, rng);

  LlmResponse resp;
  resp.mode = draft.mode;
  resp.used_context_ids = draft.used_context_ids;

  // Token accounting.
  resp.prompt_tokens = text::approx_llm_tokens(request.system) +
                       text::approx_llm_tokens(request.question);
  for (const ContextDoc& ctx : request.contexts) {
    resp.prompt_tokens += text::approx_llm_tokens(ctx.text);
  }
  resp.completion_tokens = text::approx_llm_tokens(draft.text);

  // Output formatting.
  if (request.json_output) {
    pkb::util::Json obj = pkb::util::Json::object();
    obj.set("answer", draft.text);
    pkb::util::Json sources = pkb::util::Json::array();
    for (const std::string& id : draft.used_context_ids) sources.push_back(id);
    obj.set("sources", std::move(sources));
    obj.set("model", config_.name);
    resp.text = obj.dump();
  } else {
    resp.text = std::move(draft.text);
  }

  // Latency model: prefill + decode + base, with deterministic multiplicative
  // jitter (log-uniform in [1/(1+j), (1+j)]).
  const double prefill = static_cast<double>(resp.prompt_tokens) /
                         config_.prefill_tokens_per_second;
  const double decode = static_cast<double>(resp.completion_tokens) /
                        config_.decode_tokens_per_second;
  const double jitter_span = std::log1p(config_.latency_jitter);
  const double jitter =
      std::exp(rng.uniform(-jitter_span, jitter_span));
  resp.latency_seconds =
      (config_.latency_base_seconds + prefill + decode) * jitter +
      spike_seconds;

  span.set_attr("mode", resp.mode);
  span.set_attr("prompt_tokens", resp.prompt_tokens);
  span.set_attr("completion_tokens", resp.completion_tokens);
  span.set_attr("sim_latency_s", resp.latency_seconds);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const obs::LabelSet model_label{{"model", config_.name}};
  metrics.counter(obs::kLlmRequestsTotal, model_label).inc();
  metrics.counter(obs::kLlmModeTotal, {{"mode", resp.mode}}).inc();
  metrics.counter(obs::kLlmPromptTokensTotal, model_label)
      .inc(resp.prompt_tokens);
  metrics.counter(obs::kLlmCompletionTokensTotal, model_label)
      .inc(resp.completion_tokens);
  metrics.histogram(obs::kLlmSimLatencySeconds, model_label)
      .observe(resp.latency_seconds);
  return resp;
}

}  // namespace pkb::llm
