// Minimal command-line option parsing shared by the bench/example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms. Each binary
// declares its flag names once, when it builds CliArgs; a stray positional,
// an undeclared flag, or a value its getter cannot parse in full is rejected
// with an error naming the flag, so typos surface instead of silently running
// a default experiment.
#pragma once

#include <cstdint>
#include <exception>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pcmsim {

class CliArgs {
 public:
  /// Parses argv against the declared `flags` (names without the leading
  /// "--"); throws std::invalid_argument on malformed input or an undeclared
  /// flag.
  CliArgs(int argc, const char* const* argv, std::initializer_list<std::string_view> flags);

  /// Getters throw std::invalid_argument, naming the flag, when a present
  /// value does not parse in full. Reading a flag that was never declared is
  /// a programming error (std::logic_error).
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  /// Digits only: a sign ("-3", "+3") is rejected rather than wrapped, and
  /// the whole uint64 range parses (checksums, sizes).
  [[nodiscard]] std::uint64_t get_uint(const std::string& key, std::uint64_t dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  /// A bare `--flag`, "1" or "true" is true; "0" or "false" is false.
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt = false) const;
  /// The comma-separated items of `--key` ("gcc,milc"), or `dflt` when the
  /// flag is absent. An empty item ("milc,", "a,,b", or an empty value) is
  /// rejected with an error naming the flag.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& key,
                                                  const std::vector<std::string>& dflt) const;

 private:
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::set<std::string> declared_;
  std::map<std::string, std::string> kv_;
};

/// get_uint's parse for one item of a list-valued flag: all of `text` as an
/// unsigned integer, or std::invalid_argument naming `--key`.
[[nodiscard]] std::uint64_t parse_uint(const std::string& key, const std::string& text);

/// The `--expect_checksum` gate of a digest-pinned binary. When the flag is
/// present (read with get_uint, so a sign or a junk suffix is rejected) and
/// differs from `actual`, prints "checksum mismatch: expected E, got A —
/// <what_changed>" on stderr and returns 1; otherwise returns 0. The result
/// is the binary's exit status.
[[nodiscard]] int check_expected_checksum(const CliArgs& args, std::uint64_t actual,
                                          std::string_view what_changed);

/// Reports `e` on stderr and returns the exit status of a failed run, so a
/// binary's `main` can end in `catch (const std::exception& e) { return
/// cli_error(e); }` instead of terminating on a bad flag.
int cli_error(const std::exception& e);

}  // namespace pcmsim
