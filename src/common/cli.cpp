#include "common/cli.hpp"

#include <charconv>
#include <iostream>
#include <stdexcept>

namespace pcmsim {

namespace {

bool looks_like_key(const std::string& s) { return s.rfind("--", 0) == 0 && s.size() > 2; }

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + key + ": expected " + expected + ", got '" + value + "'");
}

/// Parses all of `value` as a T, or throws naming the flag.
template <typename T>
T parse_number(const std::string& key, const std::string& value, const char* expected) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc{} || ptr != end) bad_value(key, value, expected);
  return out;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> flags)
    : declared_(flags.begin(), flags.end()) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!looks_like_key(tok)) {
      throw std::invalid_argument("unexpected argument: " + tok);
    }
    tok = tok.substr(2);
    const auto eq = tok.find('=');
    std::string key = tok.substr(0, eq);
    if (declared_.count(key) == 0) {
      std::string known;
      for (const auto& flag : declared_) known += " --" + flag;
      throw std::invalid_argument("unknown flag --" + key + " (accepted:" + known + ")");
    }
    if (eq != std::string::npos) {
      kv_[key] = tok.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_key(argv[i + 1])) {
      // `--key value` when the next token is not itself a key; else a bare flag.
      kv_[key] = argv[++i];
    } else {
      kv_[key] = "";
    }
  }
}

const std::string* CliArgs::find(const std::string& key) const {
  if (declared_.count(key) == 0) {
    throw std::logic_error("flag --" + key + " is read but was not declared");
  }
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& key) const { return find(key) != nullptr; }

std::string CliArgs::get(const std::string& key, const std::string& dflt) const {
  const std::string* v = find(key);
  return v ? *v : dflt;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t dflt) const {
  const std::string* v = find(key);
  return v ? parse_number<std::int64_t>(key, *v, "an integer") : dflt;
}

std::uint64_t CliArgs::get_uint(const std::string& key, std::uint64_t dflt) const {
  const std::string* v = find(key);
  return v ? parse_uint(key, *v) : dflt;
}

double CliArgs::get_double(const std::string& key, double dflt) const {
  const std::string* v = find(key);
  return v ? parse_number<double>(key, *v, "a number") : dflt;
}

bool CliArgs::get_bool(const std::string& key, bool dflt) const {
  const std::string* v = find(key);
  if (!v) return dflt;
  if (v->empty() || *v == "1" || *v == "true") return true;
  if (*v == "0" || *v == "false") return false;
  bad_value(key, *v, "true/false");
}

std::vector<std::string> CliArgs::get_list(const std::string& key,
                                           const std::vector<std::string>& dflt) const {
  const std::string* v = find(key);
  if (!v) return dflt;
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = v->find(',', pos);
    const std::size_t end = comma == std::string::npos ? v->size() : comma;
    if (end == pos) bad_value(key, *v, "a comma-separated list with no empty item");
    items.push_back(v->substr(pos, end - pos));
    if (comma == std::string::npos) return items;
    pos = comma + 1;
  }
}

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  return parse_number<std::uint64_t>(key, text, "a non-negative integer");
}

int check_expected_checksum(const CliArgs& args, std::uint64_t actual,
                            std::string_view what_changed) {
  if (!args.has("expect_checksum")) return 0;
  const std::uint64_t expect = args.get_uint("expect_checksum", 0);
  if (expect == actual) return 0;
  std::cerr << "checksum mismatch: expected " << expect << ", got " << actual << " — "
            << what_changed << "\n";
  return 1;
}

int cli_error(const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

}  // namespace pcmsim
