#pragma once
// Code-aware tokenization for scientific-software text.
//
// PETSc questions and docs are full of API symbols (`KSPSetType`), runtime
// options (`-ksp_monitor_true_residual`), and file paths. The tokenizer keeps
// these intact as single tokens, because they carry most of the retrieval
// signal; ordinary prose is lowercased and split on non-identifier characters.

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace pkb::text {

/// Tokenizer options.
struct TokenizerOptions {
  /// Lowercase prose tokens (API-symbol tokens keep their case in `symbols`
  /// but are lowercased in the main stream so query/doc matching is
  /// case-insensitive).
  bool lowercase = true;
  /// Drop tokens shorter than this many bytes (after splitting).
  std::size_t min_token_len = 1;
  /// Remove English stopwords from the prose stream.
  bool drop_stopwords = false;
};

/// Result of tokenizing: the flat token stream plus the API-ish symbols that
/// were seen (original case, deduplicated, in first-appearance order).
struct TokenizedText {
  std::vector<std::string> tokens;
  std::vector<std::string> symbols;
};

/// Byte range of one token in the tokenized string.
struct TokenSpan {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// The token boundaries tokenize() uses: with default options, token i of
/// tokens_of(s) is to_lower(s.substr(spans[i].offset, spans[i].size)).
/// Lowercasing does not move a boundary, so the spans of to_lower(s) are
/// the spans of s.
[[nodiscard]] std::vector<TokenSpan> token_spans(std::string_view s,
                                                 std::size_t min_token_len = 1);

/// Tokenize `s` per `opts`.
[[nodiscard]] TokenizedText tokenize(std::string_view s,
                                     const TokenizerOptions& opts = {});

/// Convenience: just the token stream.
[[nodiscard]] std::vector<std::string> tokens_of(
    std::string_view s, const TokenizerOptions& opts = {});

/// True if `tok` looks like an API symbol: CamelCase with an internal capital
/// (KSPSolve), an ALLCAPS-prefixed identifier (KSPGMRES), or a runtime option
/// (-ksp_type).
[[nodiscard]] bool looks_like_symbol(std::string_view tok);

/// Split a string into sentences (period/question/exclamation followed by
/// whitespace + capital, with abbreviation guards like "e.g.").
[[nodiscard]] std::vector<std::string_view> split_sentences(std::string_view s);

/// The built-in English stopword set.
[[nodiscard]] const std::unordered_set<std::string>& stopwords();

/// Rough word-piece count used by the LLM latency model: whitespace tokens
/// times an empirical 1.33 subword expansion factor.
[[nodiscard]] std::size_t approx_llm_tokens(std::string_view s);

}  // namespace pkb::text
