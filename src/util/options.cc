#include "util/options.h"

#include <cstdlib>

#include "util/logging.h"

namespace dgc {

Result<Options> Options::Parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("flag with empty name: " + arg);
      }
      opts.flags_[name] = body.substr(eq + 1);
    } else {
      // Bare flag is boolean; values must use --name=value (the space form
      // is ambiguous against positional arguments).
      opts.flags_[body] = "true";
    }
  }
  return opts;
}

std::map<std::string, std::string>::const_iterator Options::Find(
    const std::string& name) const {
  read_.insert(name);
  return flags_.find(name);
}

bool Options::Has(const std::string& name) const {
  return Find(name) != flags_.end();
}

Status Options::CheckAllRead() const {
  std::string unread;
  int count = 0;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) > 0) continue;
    unread += (count++ == 0 ? "--" : ", --") + name;
  }
  if (count == 0) return Status::OK();
  return Status::InvalidArgument(
      (count == 1 ? "unused flag " : "unused flags ") + unread +
      " (misspelled, or not used with these options)");
}

std::string Options::GetString(const std::string& name,
                               const std::string& default_value) const {
  auto it = Find(name);
  return it == flags_.end() ? default_value : it->second;
}

int64_t Options::GetInt(const std::string& name, int64_t default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    DGC_LOG(Fatal) << "flag --" << name << " expects an integer, got '"
                   << it->second << "'";
  }
  return v;
}

double Options::GetDouble(const std::string& name,
                          double default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    DGC_LOG(Fatal) << "flag --" << name << " expects a number, got '"
                   << it->second << "'";
  }
  return v;
}

bool Options::GetBool(const std::string& name, bool default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  DGC_LOG(Fatal) << "flag --" << name << " expects a boolean, got '" << v
                 << "'";
  return default_value;
}

}  // namespace dgc
