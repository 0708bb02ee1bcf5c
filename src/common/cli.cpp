#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vs07 {

namespace {

/// The one source of truth for boolean option literals: nullopt = not a
/// recognised boolean. An empty value (bare `--flag`) means true.
std::optional<bool> parseBool(const std::string& value) {
  if (value.empty() || value == "1" || value == "true" || value == "yes")
    return true;
  if (value == "0" || value == "false" || value == "no") return false;
  return std::nullopt;
}

/// Levenshtein distance, for "did you mean --nodes?" suggestions.
std::size_t editDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t previous = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = previous;
    }
  }
  return row[b.size()];
}

std::string lowered(const std::string& s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// The candidate `value` plausibly meant, or nullptr. Shared by the
/// unknown-option and bad-choice error paths so both speak the same
/// did-you-mean dialect. Two rules, both case-insensitive:
///   1. a unique prefix of >= 3 chars names its completion
///      (--search rand -> randomwalk), and
///   2. otherwise the closest candidate within edit distance 2
///      (a plausible typo: --search flod -> flood, FLOOD -> flood).
const std::string* closestMatch(const std::string& value,
                                const std::vector<std::string>& candidates) {
  const std::string needle = lowered(value);
  if (needle.size() >= 3) {
    const std::string* completion = nullptr;
    bool unique = true;
    for (const auto& candidate : candidates) {
      if (lowered(candidate).rfind(needle, 0) != 0) continue;
      if (completion) unique = false;
      completion = &candidate;
    }
    if (completion && unique) return completion;
  }
  const std::string* closest = nullptr;
  auto best = std::numeric_limits<std::size_t>::max();
  for (const auto& candidate : candidates) {
    const auto distance = editDistance(needle, lowered(candidate));
    if (distance < best) {
      best = distance;
      closest = &candidate;
    }
  }
  return best <= 2 ? closest : nullptr;
}

}  // namespace

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// Strict full-string numeric parse; anything short of a complete,
/// in-range number is an error naming the offending option.
template <typename T>
T parseNumber(const std::string& name, const std::string& value,
              const char* shape) {
  T out{};
  const char* begin = value.c_str();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, out);
  if (result.ec != std::errc() || result.ptr != end)
    throw std::invalid_argument("bad " + std::string(shape) + " for --" +
                                name + ": '" + value + "'");
  return out;
}

}  // namespace

std::uint64_t CliArgs::getUint(const std::string& name,
                               std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseNumber<std::uint64_t>(name, *v, "non-negative integer");
}

std::uint64_t CliArgs::getPositiveUint(const std::string& name,
                                       std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const auto value =
      parseNumber<std::uint64_t>(name, *v, "positive integer");
  if (value == 0)
    throw std::invalid_argument("--" + name + " must be >= 1 (got 0)");
  return value;
}

std::uint32_t CliArgs::getPositiveUint32(const std::string& name,
                                         std::uint32_t fallback) const {
  const std::uint64_t value = getPositiveUint(name, fallback);
  if (value > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("--" + name + " must be below 2^32");
  return static_cast<std::uint32_t>(value);
}

std::int64_t CliArgs::getInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseNumber<std::int64_t>(name, *v, "integer");
}

double CliArgs::getDouble(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseNumber<double>(name, *v, "number");
}

double CliArgs::getRate(const std::string& name, double fallback) const {
  const double rate = getDouble(name, fallback);
  if (!(rate > 0.0 && rate < 1.0))
    throw std::invalid_argument(
        "--" + name + " must be a rate in (0, 1) (got " +
        get(name).value_or(std::to_string(rate)) + ")");
  return rate;
}

bool CliArgs::getBool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const auto parsed = parseBool(*v);
  if (!parsed)
    throw std::invalid_argument("bad boolean for --" + name + ": " + *v);
  return *parsed;
}

std::size_t CliArgs::getChoice(const std::string& name,
                               const std::vector<std::string>& choices,
                               std::size_t fallbackIndex) const {
  if (choices.empty() || fallbackIndex >= choices.size())
    throw std::invalid_argument("--" + name +
                                ": fallback outside the choice list");
  const auto v = get(name);
  if (!v) return fallbackIndex;
  for (std::size_t i = 0; i < choices.size(); ++i)
    if (choices[i] == *v) return i;

  // Same contract as unknown options: a typo fails loudly with the
  // closest registered value named, never silently falls back.
  std::string message = "bad value for --" + name + ": '" + *v + "'";
  if (const auto* closest = closestMatch(*v, choices))
    message += " (did you mean '" + *closest + "'?)";
  message += "; choices:";
  for (const auto& choice : choices) message += " " + choice;
  throw std::invalid_argument(message);
}

HostPort CliArgs::getHostPort(const std::string& name,
                              const HostPort& fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const std::string& value = *v;

  const auto bad = [&](const std::string& hint) -> std::invalid_argument {
    std::string message = "bad host:port for --" + name + ": '" + value + "'";
    if (!hint.empty()) message += " (" + hint + ")";
    return std::invalid_argument(message);
  };

  // Split on the *last* colon so a future bracketed-IPv6 host does not
  // change the grammar of the port side.
  const auto colon = value.rfind(':');
  if (colon == std::string::npos) {
    // Diagnose which half is missing: all digits reads as a lone port.
    const bool allDigits =
        !value.empty() &&
        std::all_of(value.begin(), value.end(),
                    [](unsigned char c) { return std::isdigit(c); });
    if (allDigits)
      throw bad("missing host — did you mean '127.0.0.1:" + value + "'?");
    throw bad("missing port — did you mean '" + value + ":9000'?");
  }
  const std::string host = value.substr(0, colon);
  const std::string portText = value.substr(colon + 1);
  if (host.empty()) throw bad("empty host before ':'");
  if (portText.empty())
    throw bad("empty port after ':' — did you mean '" + host + ":9000'?");

  std::uint32_t port = 0;
  const char* begin = portText.c_str();
  const char* end = begin + portText.size();
  const auto result = std::from_chars(begin, end, port);
  if (result.ec != std::errc() || result.ptr != end)
    throw bad("port '" + portText + "' is not a number");
  if (port > 65535)
    throw bad("port " + portText + " is above 65535");
  return {host, static_cast<std::uint16_t>(port)};
}

CliParser::CliParser(std::string programDescription)
    : description_(std::move(programDescription)) {}

CliParser& CliParser::option(std::string name, std::string help,
                             bool takesValue) {
  options_.push_back({std::move(name), std::move(help), takesValue});
  return *this;
}

std::string CliParser::usage(const std::string& program) const {
  std::ostringstream out;
  out << description_ << "\n\nUsage: " << program << " [options]\n";
  for (const auto& opt : options_) {
    out << "  --" << opt.name;
    if (opt.takesValue) out << " <value>";
    out << "\n      " << opt.help << '\n';
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

std::optional<CliArgs> CliParser::parse(int argc,
                                        const char* const* argv) const {
  CliArgs args;
  auto findOption = [&](const std::string& name) -> const Option* {
    for (const auto& opt : options_)
      if (opt.name == name) return &opt;
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return std::nullopt;
    }
    if (token.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument: " + token);
    token.erase(0, 2);

    std::string name = token;
    std::optional<std::string> inlineValue;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      inlineValue = token.substr(eq + 1);
    }
    const Option* opt = findOption(name);
    if (!opt) {
      // Typos must fail loudly, not silently run the default experiment:
      // name the closest registered option and list the alternatives.
      std::string message = "unknown option: --" + name;
      std::vector<std::string> names;
      names.reserve(options_.size());
      for (const auto& candidate : options_) names.push_back(candidate.name);
      if (const auto* closest = closestMatch(name, names))
        message += " (did you mean --" + *closest + "?)";
      message += "; run with --help to list the options";
      throw std::invalid_argument(message);
    }

    if (!opt->takesValue) {
      if (inlineValue) {
        // Allow --flag=true, but reject junk here rather than letting
        // getBool() blow up long after parsing succeeded.
        if (!parseBool(*inlineValue))
          throw std::invalid_argument("bad boolean for --" + name + ": " +
                                      *inlineValue);
        args.values_[name] = *inlineValue;
      } else {
        args.values_[name] = "";
      }
    } else if (inlineValue) {
      args.values_[name] = *inlineValue;
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --" + name);
      args.values_[name] = argv[++i];
    }
  }
  return args;
}

std::optional<CliArgs> CliParser::parseOrExit(
    int argc, const char* const* argv) const {
  try {
    return parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "program",
                 error.what());
    std::exit(2);
  }
}

}  // namespace vs07
