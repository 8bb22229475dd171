// The policy registry: name → factory + parameter schema for every
// migration policy the control plane can run.
//
// Scenario files, the pam_exp CLI and the experiment runner all select
// policies by name (`pam`, `naive`, `naive-min`, `none`, `scale-in`) and
// tune them with key=value parameters — no recompile, no string switch.
// Unknown names and unknown parameter keys are strict errors that list what
// IS registered, replacing the old silent fall-back to NoMigrationPolicy.
//
// The registry is a fixed table of the built-in policies.  Adding a policy
// is one row: implement MigrationPolicy, then add its PolicyInfo to the
// table in policy_registry.cpp (docs/ARCHITECTURE.md has the recipe).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "core/policy.hpp"

namespace pam {

/// A policy selection: registered name plus key=value tuning parameters.
/// Plain data; the inline text form is `NAME` or `NAME:key=val,key=val`.
struct PolicyConfig {
  std::string name;
  /// Ordered so `parse(to_string()) == *this` round-trips exactly.
  std::vector<std::pair<std::string, double>> params;

  [[nodiscard]] bool operator==(const PolicyConfig&) const = default;

  /// True for the "inherit the surrounding default" sentinel.
  [[nodiscard]] bool empty() const noexcept { return name.empty(); }

  /// `params[key]`, or `fallback` when absent (factories pass the schema
  /// default).
  [[nodiscard]] double get(std::string_view key, double fallback) const noexcept;

  /// True when `key` is already set (duplicate detection in both parsers).
  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Inline text form: `pam` or `pam:utilization_limit=0.9,max_migrations=32`.
  [[nodiscard]] std::string to_string() const;

  /// Parses the inline form.  Syntax only — registry validation (known
  /// name/keys) is PolicyRegistry::validate's job.
  [[nodiscard]] static Result<PolicyConfig> parse(std::string_view text);
};

/// One tunable of a registered policy.
struct PolicyParamSpec {
  std::string key;
  double default_value = 0.0;
  std::string description;
  /// Accepted range, inclusive.  Out-of-range or non-finite values are
  /// validation errors, so factories may cast blindly (e.g. to a count).
  double min_value = 0.0;
  double max_value = 1.0e6;
};

/// Everything the registry knows about one policy.
struct PolicyInfo {
  std::string name;     ///< selection key (also the `.scn` / CLI spelling)
  std::string summary;  ///< one line for `pam_exp policies`
  std::vector<PolicyParamSpec> params;  ///< accepted keys + defaults
  /// Builds an instance from a validated config.  Absent params default.
  std::function<std::unique_ptr<MigrationPolicy>(const PolicyConfig&)> factory;
};

class PolicyRegistry {
 public:
  /// The process-wide registry of built-in policies.
  [[nodiscard]] static const PolicyRegistry& instance();

  [[nodiscard]] const PolicyInfo* find(std::string_view name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  /// "naive, naive-min, none, pam, scale-in" — for error messages.
  [[nodiscard]] std::string names_joined(std::string_view separator = ", ") const;

  /// Strict check of `config`: the name must be registered and every
  /// parameter key must be in the policy's schema.  Errors list the
  /// registered policies (unknown name) or the accepted keys (unknown
  /// parameter).
  Result<bool> validate(const PolicyConfig& config) const;

  /// validate() + the factory.  The ONLY way experiment code builds
  /// policies.
  Result<std::unique_ptr<MigrationPolicy>> create(const PolicyConfig& config) const;

 private:
  PolicyRegistry();  ///< fills the built-in table

  std::vector<PolicyInfo> entries_;  ///< sorted by name
};

}  // namespace pam
