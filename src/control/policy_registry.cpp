#include "control/policy_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "core/scale_in_policy.hpp"

namespace pam {

double PolicyConfig::get(std::string_view key, double fallback) const noexcept {
  for (const auto& [param_key, value] : params) {
    if (param_key == key) {
      return value;
    }
  }
  return fallback;
}

bool PolicyConfig::contains(std::string_view key) const noexcept {
  for (const auto& [param_key, value] : params) {
    if (param_key == key) {
      return true;
    }
  }
  return false;
}

std::string PolicyConfig::to_string() const {
  std::string out = name;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ":" : ",";
    out += params[i].first;
    out += "=";
    out += format_double_shortest(params[i].second);
  }
  return out;
}

Result<PolicyConfig> PolicyConfig::parse(std::string_view text) {
  text = trim(text);
  PolicyConfig out;
  const std::size_t colon = text.find(':');
  out.name = std::string{trim(text.substr(0, colon))};
  if (out.name.empty()) {
    return Error{"policy: empty name"};
  }
  if (colon == std::string_view::npos) {
    return out;
  }
  // Strict: after a ':' every comma-separated item must be key=NUMBER, so a
  // bare "pam:", a trailing comma, or "a=1,,b=2" all fail rather than
  // silently dropping parameters.
  std::string_view rest = text.substr(colon + 1);
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = trim(rest.substr(0, comma));
    const std::size_t eq = item.find('=');
    double value = 0.0;
    if (item.empty() || eq == std::string_view::npos || eq == 0 ||
        !parse_double_strict(trim(item.substr(eq + 1)), value)) {
      return Error{format("policy '%s': expected key=NUMBER, got '%.*s'",
                          out.name.c_str(), static_cast<int>(item.size()),
                          item.data())};
    }
    const std::string key{trim(item.substr(0, eq))};
    if (out.contains(key)) {
      return Error{format("policy '%s': duplicate parameter '%s'",
                          out.name.c_str(), key.c_str())};
    }
    out.params.emplace_back(key, value);
    if (comma == std::string_view::npos) {
      break;
    }
    rest = rest.substr(comma + 1);
  }
  return out;
}

const PolicyRegistry& PolicyRegistry::instance() {
  static const PolicyRegistry registry;
  return registry;
}

PolicyRegistry::PolicyRegistry()
    // The built-in table, sorted by name: names() lists it in this order.
    : entries_{
          {"naive",
           "UNO-style baseline: migrate the bottleneck vNF",
           {{"utilization_limit", 1.0, "device utilisation treated as full",
             0.01, 2.0}},
           [](const PolicyConfig& cfg) -> std::unique_ptr<MigrationPolicy> {
             return std::make_unique<NaiveBottleneckPolicy>(
                 cfg.get("utilization_limit", 1.0));
           }},
          {"naive-min",
           "poster-wording baseline: migrate the min-capacity vNF",
           {{"utilization_limit", 1.0, "device utilisation treated as full",
             0.01, 2.0}},
           [](const PolicyConfig& cfg) -> std::unique_ptr<MigrationPolicy> {
             return std::make_unique<NaiveMinCapacityPolicy>(
                 cfg.get("utilization_limit", 1.0));
           }},
          {"none",
           "never migrate (the paper's 'Original' configuration)",
           {},
           [](const PolicyConfig&) -> std::unique_ptr<MigrationPolicy> {
             return std::make_unique<NoMigrationPolicy>();
           }},
          {"pam",
           "Push Aside Migration: move border vNFs, never add a crossing",
           {{"utilization_limit", 1.0, "device utilisation treated as full (Eq. 2/3)",
             0.01, 2.0},
            {"max_migrations", 64.0, "safety bound on moves per invocation",
             0.0, 4096.0}},
           [](const PolicyConfig& cfg) -> std::unique_ptr<MigrationPolicy> {
             PamOptions options;
             options.utilization_limit = cfg.get("utilization_limit", 1.0);
             options.max_migrations =
                 static_cast<std::size_t>(cfg.get("max_migrations", 64.0));
             return std::make_unique<PamPolicy>(options);
           }},
          {"scale-in",
           "PAM in reverse: pull pushed-aside vNFs back to the SmartNIC",
           {{"smartnic_ceiling", 0.8, "post-pull SmartNIC ceiling (hysteresis)",
             0.0, 1.0},
            {"max_migrations", 64.0, "safety bound on moves per invocation",
             0.0, 4096.0}},
           [](const PolicyConfig& cfg) -> std::unique_ptr<MigrationPolicy> {
             ScaleInOptions options;
             options.smartnic_ceiling = cfg.get("smartnic_ceiling", 0.8);
             options.max_migrations =
                 static_cast<std::size_t>(cfg.get("max_migrations", 64.0));
             return std::make_unique<ScaleInPolicy>(options);
           }},
      } {}

const PolicyInfo* PolicyRegistry::find(std::string_view name) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [name](const PolicyInfo& info) { return info.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const PolicyInfo& info : entries_) {
    out.push_back(info.name);
  }
  return out;
}

std::string PolicyRegistry::names_joined(std::string_view separator) const {
  std::string out;
  for (const PolicyInfo& info : entries_) {
    if (!out.empty()) {
      out += separator;
    }
    out += info.name;
  }
  return out;
}

Result<bool> PolicyRegistry::validate(const PolicyConfig& config) const {
  const PolicyInfo* info = find(config.name);
  if (info == nullptr) {
    return Error{format("unknown policy '%s' (registered: %s)",
                        config.name.c_str(), names_joined().c_str())};
  }
  for (const auto& [key, value] : config.params) {
    const auto spec = std::find_if(
        info->params.begin(), info->params.end(),
        [&key = key](const PolicyParamSpec& p) { return p.key == key; });
    if (spec == info->params.end()) {
      std::string accepted;
      for (const auto& p : info->params) {
        if (!accepted.empty()) {
          accepted += ", ";
        }
        accepted += p.key;
      }
      const std::string hint = accepted.empty()
                                   ? std::string{"takes no parameters"}
                                   : format("accepts: %s", accepted.c_str());
      return Error{format("policy '%s': unknown parameter '%s' (%s)",
                          config.name.c_str(), key.c_str(), hint.c_str())};
    }
    // Range check (rejects NaN too): factories may cast without re-checking.
    if (!(value >= spec->min_value && value <= spec->max_value)) {
      return Error{format(
          "policy '%s': parameter '%s' = %s out of range [%s, %s]",
          config.name.c_str(), key.c_str(), format_double_shortest(value).c_str(),
          format_double_shortest(spec->min_value).c_str(),
          format_double_shortest(spec->max_value).c_str())};
    }
  }
  return true;
}

Result<std::unique_ptr<MigrationPolicy>> PolicyRegistry::create(
    const PolicyConfig& config) const {
  auto valid = validate(config);
  if (!valid) {
    return valid.error();
  }
  return find(config.name)->factory(config);
}

}  // namespace pam
