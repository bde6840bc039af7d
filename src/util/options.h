// Tiny command-line flag parser for the tool, bench and example binaries.
// Supports --name=value and boolean --flag forms; anything else is
// positional. Every lookup is recorded, so a tool can reject flags it never
// read (a misspelled --labels_b is an error, not a silently skipped step).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace dgc {

/// \brief Parsed command line: named flags plus positional arguments.
///
/// \code
///   Options opts = Options::Parse(argc, argv).ValueOrDie();
///   int64_t n = opts.GetInt("nodes", 10000);
///   double t = opts.GetDouble("threshold", 0.01);
///   bool v = opts.GetBool("verbose", false);
///   Status unread = opts.CheckAllRead();  // after the last lookup
/// \endcode
///
/// The getters are const but record the names they look up, so one Options
/// must not be read from two threads at once.
class Options {
 public:
  /// Parses argv. Fails on malformed flags (e.g. "--=3").
  static Result<Options> Parse(int argc, const char* const* argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults; a present-but-malformed value is a fatal
  /// usage error reported via the returned default + HasError().
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming every flag on the command line that no
  /// Has/Get* call has looked up so far; OK when there is none. Call it
  /// once all flags are read.
  Status CheckAllRead() const;

 private:
  /// Records `name` as read and returns its entry, or flags_.end().
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace dgc
