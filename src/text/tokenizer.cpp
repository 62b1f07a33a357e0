#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace pkb::text {

namespace {

bool is_symbol_char(char c) {
  return pkb::util::is_ident_char(c) || c == '-';
}

bool has_interior_upper(std::string_view tok) {
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (tok[i] >= 'A' && tok[i] <= 'Z') return true;
  }
  return false;
}

bool has_lower(std::string_view tok) {
  return std::any_of(tok.begin(), tok.end(),
                     [](char c) { return c >= 'a' && c <= 'z'; });
}

bool all_upper_or_digit(std::string_view tok) {
  return std::all_of(tok.begin(), tok.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  });
}

/// Calls visit(offset, size) for each token of `s` in order: the one split
/// rule behind token_spans() and tokenize().
template <typename Visit>
void scan_tokens(std::string_view s, std::size_t min_token_len,
                 Visit&& visit) {
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !is_symbol_char(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && is_symbol_char(s[i])) ++i;
    if (i == start) continue;
    // Strip leading '-' runs that are prose dashes (e.g. "--" separators) but
    // keep a single '-' when it forms a plausible runtime option.
    while (i - start > 1 && s[start] == '-' && s[start + 1] == '-') ++start;
    const std::size_t size = i - start;
    if (size == 1 && s[start] == '-') continue;
    if (size < min_token_len) continue;
    visit(start, size);
  }
}

}  // namespace

bool looks_like_symbol(std::string_view tok) {
  if (tok.size() < 3) return false;
  // Product/project names that match the CamelCase pattern but are not API
  // entities.
  static constexpr std::string_view kNotSymbols[] = {
      "PETSc", "PETSC", "MPI_Comm", "LangChain", "ChatGPT", "OpenAI",
      "GitLab", "GitHub", "JavaScript", "BiCGStab", "BiCG", "Gram-Schmidt",
      "Golub-Kahan", "Eisenstat-Walker", "Runge-Kutta", "Gauss-Seidel",
      "Newton-Krylov", "Lanczos"};
  for (std::string_view ns : kNotSymbols) {
    if (tok == ns) return false;
  }
  // A symbol is a single identifier-like token: no spaces or punctuation
  // beyond '-' and '_' (callers sometimes pass whole titles).
  for (char c : tok) {
    if (!pkb::util::is_ident_char(c) && c != '-') return false;
  }
  // Runtime option: -ksp_type, -pc_type, -info ...
  if (tok[0] == '-' && tok.size() >= 4) {
    const std::string_view body = tok.substr(1);
    return std::all_of(body.begin(), body.end(), [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    });
  }
  if (!((tok[0] >= 'A' && tok[0] <= 'Z'))) return false;
  // ALLCAPS identifier (KSPGMRES, MATAIJ) of length >= 4.
  if (all_upper_or_digit(tok) && tok.size() >= 4) return true;
  // CamelCase with interior capital and some lowercase (KSPSolve, MatSetValues).
  return has_interior_upper(tok) && has_lower(tok);
}

std::vector<TokenSpan> token_spans(std::string_view s,
                                   std::size_t min_token_len) {
  std::vector<TokenSpan> out;
  scan_tokens(s, min_token_len, [&](std::size_t offset, std::size_t size) {
    out.push_back(TokenSpan{offset, size});
  });
  return out;
}

TokenizedText tokenize(std::string_view s, const TokenizerOptions& opts) {
  TokenizedText out;
  std::unordered_set<std::string> seen_symbols;
  scan_tokens(s, opts.min_token_len, [&](std::size_t offset, std::size_t size) {
    const std::string_view raw = s.substr(offset, size);
    const bool symbol = looks_like_symbol(raw);
    if (symbol) {
      std::string original(raw);
      if (seen_symbols.insert(original).second) {
        out.symbols.push_back(original);
      }
    }
    std::string tok = opts.lowercase ? pkb::util::to_lower(raw)
                                     : std::string(raw);
    if (opts.drop_stopwords && !symbol && stopwords().contains(tok)) return;
    out.tokens.push_back(std::move(tok));
  });
  return out;
}

std::vector<std::string> tokens_of(std::string_view s,
                                   const TokenizerOptions& opts) {
  return tokenize(s, opts).tokens;
}

std::vector<std::string_view> split_sentences(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  auto is_abbrev_before = [&](std::size_t dot) {
    // Guard "e.g." / "i.e." / "cf." / single-letter initials.
    if (dot >= 1 && dot + 1 < s.size() && s[dot + 1] == 'g') return true;
    static constexpr std::string_view kAbbrevs[] = {"e.g", "i.e", "cf",
                                                    "etc", "vs", "Fig",
                                                    "fig", "Eq", "eq"};
    for (std::string_view a : kAbbrevs) {
      if (dot >= a.size() && s.substr(dot - a.size(), a.size()) == a) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '.' && c != '?' && c != '!') continue;
    if (c == '.' && is_abbrev_before(i)) continue;
    // Sentence end requires whitespace next (or end of text).
    std::size_t j = i + 1;
    if (j < s.size() && s[j] != ' ' && s[j] != '\n' && s[j] != '\t') continue;
    std::string_view sent = pkb::util::trim(s.substr(start, i + 1 - start));
    if (!sent.empty()) out.push_back(sent);
    while (j < s.size() && (s[j] == ' ' || s[j] == '\n' || s[j] == '\t')) ++j;
    start = j;
    i = j - 1;
  }
  std::string_view tail = pkb::util::trim(s.substr(start));
  if (!tail.empty()) out.push_back(tail);
  return out;
}

const std::unordered_set<std::string>& stopwords() {
  static const std::unordered_set<std::string> kStopwords = {
      "a",    "an",   "and",  "are",  "as",   "at",   "be",    "but",
      "by",   "can",  "do",   "does", "for",  "from", "has",   "have",
      "how",  "i",    "if",   "in",   "is",   "it",   "its",   "may",
      "must", "not",  "of",   "on",   "or",   "so",   "such",  "that",
      "the",  "then", "there", "these", "this", "to",  "was",  "we",
      "what", "when", "where", "which", "will", "with", "you",  "your"};
  return kStopwords;
}

std::size_t approx_llm_tokens(std::string_view s) {
  const std::size_t words = pkb::util::split_ws(s).size();
  return static_cast<std::size_t>(static_cast<double>(words) * 1.33) + 1;
}

}  // namespace pkb::text
