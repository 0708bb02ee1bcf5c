// Minimal command-line option parsing for the bench/example binaries.
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
// Unknown options are an error so typos do not silently run the default
// experiment scale, and so is a malformed value: parseOrExit and
// argOrExit turn either into a message and exit status 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vs07 {

/// A parsed "host:port" endpoint (CliArgs::getHostPort). The host part is
/// kept verbatim (name or dotted quad); resolution is the caller's job.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;

  friend bool operator==(const HostPort&, const HostPort&) = default;
};

/// Parsed command line. Construct via CliParser.
class CliArgs {
 public:
  bool has(const std::string& name) const;
  /// Returns the raw string value (empty string for bare flags).
  std::optional<std::string> get(const std::string& name) const;
  /// The numeric getters parse strictly: the whole value must be a
  /// number of the requested shape ("12abc", "-5" for unsigned, "" and
  /// "1e999" all throw std::invalid_argument naming the option) so a
  /// malformed value aborts the run instead of silently truncating.
  std::uint64_t getUint(const std::string& name, std::uint64_t fallback) const;
  /// getUint that additionally rejects 0 ("--threads 0" must not spin up
  /// an experiment with no workers).
  std::uint64_t getPositiveUint(const std::string& name,
                                std::uint64_t fallback) const;
  /// getPositiveUint narrowed to 32 bits: a value like 2^32 would
  /// otherwise truncate to 0 and slip past the zero rejection.
  std::uint32_t getPositiveUint32(const std::string& name,
                                  std::uint32_t fallback) const;
  std::int64_t getInt(const std::string& name, std::int64_t fallback) const;
  double getDouble(const std::string& name, double fallback) const;
  /// getDouble restricted to a rate strictly inside (0, 1), e.g. a
  /// per-cycle churn rate: 0 would churn nobody and 1 everybody.
  double getRate(const std::string& name, double fallback) const;
  bool getBool(const std::string& name, bool fallback = false) const;
  /// Enumerated flag: returns the index of the option's value within
  /// `choices`, or `fallbackIndex` when the option is absent. An
  /// unrecognised value throws std::invalid_argument naming the option,
  /// listing the choices, and suggesting the closest match on a
  /// plausible typo ("did you mean 'cyclesync'?").
  std::size_t getChoice(const std::string& name,
                        const std::vector<std::string>& choices,
                        std::size_t fallbackIndex) const;
  /// "host:port" endpoint flag (e.g. --listen 127.0.0.1:9000). Malformed
  /// values throw std::invalid_argument naming the option and — in the
  /// did-you-mean spirit of the other getters — spelling out the repair
  /// for the common slips: a bare port ("9000"), a bare host
  /// ("127.0.0.1"), a trailing colon, or an out-of-range port number.
  /// The port may be 0 (bind-ephemeral convention).
  HostPort getHostPort(const std::string& name,
                       const HostPort& fallback) const;

 private:
  friend class CliParser;
  std::map<std::string, std::string> values_;
};

/// Runs an argument getter (e.g. args.getRate("churn", 0.002)) for a
/// main(): a malformed value prints the getter's error to stderr and
/// exits with status 2, like an unknown option under parseOrExit, instead
/// of unwinding into std::terminate.
template <typename Fn>
auto argOrExit(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

/// Declarative option registry + parser. Declares the accepted options up
/// front so `--help` output is generated and unknown options rejected.
class CliParser {
 public:
  explicit CliParser(std::string programDescription);

  /// Registers an option. `takesValue` distinguishes `--n 100` from
  /// boolean `--paper`.
  CliParser& option(std::string name, std::string help,
                    bool takesValue = true);

  /// Parses argv. On `--help`, prints usage and returns std::nullopt
  /// (caller should exit 0). Throws std::invalid_argument on bad input.
  std::optional<CliArgs> parse(int argc, const char* const* argv) const;

  /// parse() for main(): invalid input prints the error (including the
  /// did-you-mean suggestion) to stderr and exits with status 2 instead
  /// of unwinding into std::terminate. nullopt still means --help.
  std::optional<CliArgs> parseOrExit(int argc,
                                     const char* const* argv) const;

  /// The generated usage text.
  std::string usage(const std::string& program) const;

 private:
  struct Option {
    std::string name;
    std::string help;
    bool takesValue = true;
  };
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace vs07
