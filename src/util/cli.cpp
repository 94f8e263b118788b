#include "util/cli.h"

#include <charconv>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace smerge::util {

ArgParser::ArgParser(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void ArgParser::add_flag(const std::string& name, Kind kind, std::string def,
                         const std::string& help) {
  if (name.empty() || name.front() == '-') {
    throw std::invalid_argument("ArgParser: flag names are registered without dashes");
  }
  Flag f{kind, def, help, def};
  if (!flags_.emplace(name, std::move(f)).second) {
    throw std::invalid_argument("ArgParser: duplicate flag --" + name);
  }
}

void ArgParser::add_int(const std::string& name, std::int64_t def, const std::string& help) {
  add_flag(name, Kind::kInt, std::to_string(def), help);
}

void ArgParser::add_double(const std::string& name, double def, const std::string& help) {
  std::ostringstream os;
  os << def;
  add_flag(name, Kind::kDouble, os.str(), help);
}

void ArgParser::add_string(const std::string& name, const std::string& def,
                           const std::string& help) {
  add_flag(name, Kind::kString, def, help);
}

void ArgParser::add_bool(const std::string& name, bool def, const std::string& help) {
  add_flag(name, Kind::kBool, def ? "true" : "false", help);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::optional<std::string> value;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::invalid_argument("unknown flag --" + name + " (see --help)");
    }
    Flag& f = it->second;
    if (!value.has_value()) {
      if (f.kind == Kind::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("flag --" + name + " requires a value");
      }
    }
    f.value = *value;
    f.provided = true;
  }
  return true;
}

bool ArgParser::provided(const std::string& name) const {
  return flag(name).provided;
}

const ArgParser::Flag& ArgParser::flag(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::out_of_range("ArgParser: flag --" + name + " was never registered");
  }
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& text = flag(name).value;
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("flag --" + name + ": not an integer: " + text);
  }
  return out;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& text = flag(name).value;
  try {
    std::size_t pos = 0;
    double out = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + ": not a number: " + text);
  }
}

std::string ArgParser::get_string(const std::string& name) const {
  return flag(name).value;
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string& text = flag(name).value;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw std::invalid_argument("flag --" + name + ": not a boolean: " + text);
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << summary_ << "\n\nFlags:\n";
  for (const auto& [name, f] : flags_) {
    os << "  --" << name << " (default: " << f.default_text << ")\n      " << f.help << "\n";
  }
  return os.str();
}

}  // namespace smerge::util
