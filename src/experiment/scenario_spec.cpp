#include "experiment/scenario_spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "chain/chain_spec.hpp"
#include "common/strings.hpp"

namespace pam {

namespace {

/// Canonical shortest-round-trip rendering (common/strings.hpp), aliased to
/// keep to_text() call sites short.
std::string fmt_double(double v) { return format_double_shortest(v); }

struct KeyValue {
  int line = 0;
  std::string key;
  std::string value;
};

struct Section {
  int line = 0;
  std::string name;
  std::vector<KeyValue> entries;
};

/// Splits on whitespace, dropping empty tokens.
std::vector<std::string> tokens_of(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    out.push_back(std::move(cur));
  }
  return out;
}

bool parse_u64_strict(std::string_view s, std::uint64_t& out) {
  // strtoull silently wraps negative input, so require plain digits.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  const std::string buf{s};
  char* end = nullptr;
  out = std::strtoull(buf.c_str(), &end, 10);
  return *end == '\0';
}

bool parse_size_strict(std::string_view s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_strict(s, v)) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

/// `prefix=NUMBER` -> NUMBER, e.g. "at_ms=40".
bool parse_tagged_double(std::string_view token, std::string_view tag, double& out) {
  if (token.size() <= tag.size() + 1 || token.substr(0, tag.size()) != tag ||
      token[tag.size()] != '=') {
    return false;
  }
  return parse_double_strict(token.substr(tag.size() + 1), out);
}

/// Parser state: the spec under construction plus everything needed for
/// good error messages and required-field checks.
class SpecParser {
 public:
  SpecParser(std::string_view text, std::string_view origin)
      : text_(text), origin_(origin) {}

  Result<ScenarioSpec> run() {
    if (!lex() || !dispatch_sections() || !validate()) {
      return Error{error_};
    }
    return spec_;
  }

 private:
  [[nodiscard]] bool fail(int line, const std::string& msg) {
    error_ = format("%.*s:%d: %s", static_cast<int>(origin_.size()),
                    origin_.data(), line, msg.c_str());
    return false;
  }
  [[nodiscard]] bool fail_global(const std::string& msg) {
    error_ = format("%.*s: %s", static_cast<int>(origin_.size()),
                    origin_.data(), msg.c_str());
    return false;
  }

  bool lex() {
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      std::string_view line = text_.substr(
          pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
      pos = eol == std::string_view::npos ? text_.size() + 1 : eol + 1;
      ++line_no;

      line = trim(line);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      if (line.front() == '[') {
        if (line.back() != ']' || line.size() < 3) {
          return fail(line_no, format("malformed section header '%.*s'",
                                      static_cast<int>(line.size()), line.data()));
        }
        Section s;
        s.line = line_no;
        s.name = std::string{trim(line.substr(1, line.size() - 2))};
        sections_.push_back(std::move(s));
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        return fail(line_no, format("expected 'key = value', got '%.*s'",
                                    static_cast<int>(line.size()), line.data()));
      }
      if (sections_.empty()) {
        return fail(line_no, "key/value before any [section] header");
      }
      KeyValue kv;
      kv.line = line_no;
      kv.key = std::string{trim(line.substr(0, eq))};
      kv.value = std::string{trim(line.substr(eq + 1))};
      if (kv.key.empty()) {
        return fail(line_no, "empty key");
      }
      sections_.back().entries.push_back(std::move(kv));
    }
    return true;
  }

  /// Rejects a second occurrence of a non-repeatable section.
  bool claim_unique(const Section& s) {
    if (!seen_sections_.insert(s.name).second) {
      return fail(s.line, format("duplicate [%s] section", s.name.c_str()));
    }
    return true;
  }

  /// Rejects duplicate keys within one section instance (repeatable keys
  /// such as `note` are handled by their section parser before this check).
  bool no_duplicate_keys(const Section& s, const std::set<std::string>& repeatable = {}) {
    std::set<std::string> seen;
    for (const auto& kv : s.entries) {
      if (repeatable.contains(kv.key)) {
        continue;
      }
      if (!seen.insert(kv.key).second) {
        return fail(kv.line, format("duplicate key '%s' in [%s]", kv.key.c_str(),
                                    s.name.c_str()));
      }
    }
    return true;
  }

  bool dispatch_sections() {
    for (const auto& section : sections_) {
      if (section.name == "scenario") {
        if (!claim_unique(section) || !parse_scenario(section)) return false;
      } else if (section.name == "traffic") {
        if (!claim_unique(section) || !parse_traffic(section)) return false;
      } else if (section.name == "policy") {
        if (!claim_unique(section) || !parse_policy_section(section)) return false;
      } else if (section.name == "variant") {
        if (!parse_variant(section)) return false;
      } else if (section.name == "capacity") {
        if (!claim_unique(section) || !parse_capacity(section)) return false;
      } else if (section.name == "controller") {
        if (!claim_unique(section) || !parse_controller(section)) return false;
      } else if (section.name == "chain") {
        if (!parse_chain_decl(section)) return false;
      } else if (section.name == "deployment") {
        if (!claim_unique(section) || !parse_deployment(section)) return false;
      } else if (section.name == "cluster") {
        if (!claim_unique(section) || !parse_cluster(section)) return false;
      } else if (section.name == "failure") {
        if (!claim_unique(section) || !parse_failure(section)) return false;
      } else if (section.name == "link") {
        if (!claim_unique(section) || !parse_link(section)) return false;
      } else {
        return fail(section.line, format("unknown section [%s]", section.name.c_str()));
      }
    }
    return true;
  }

  bool need_double(const KeyValue& kv, double& out) {
    if (!parse_double_strict(kv.value, out)) {
      return fail(kv.line, format("key '%s': expected a number, got '%s'",
                                  kv.key.c_str(), kv.value.c_str()));
    }
    return true;
  }

  bool parse_scenario(const Section& s) {
    if (!no_duplicate_keys(s, {"note"})) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "name") {
        spec_.name = kv.value;
      } else if (kv.key == "description") {
        spec_.description = kv.value;
      } else if (kv.key == "note") {
        spec_.notes.push_back(kv.value);
      } else if (kv.key == "kind") {
        kind_seen_ = true;
        if (kv.value == "compare") {
          spec_.kind = ScenarioKind::kCompare;
        } else if (kv.value == "capacity") {
          spec_.kind = ScenarioKind::kCapacity;
        } else if (kv.value == "timeline") {
          spec_.kind = ScenarioKind::kTimeline;
        } else if (kv.value == "deployment") {
          spec_.kind = ScenarioKind::kDeployment;
        } else if (kv.value == "cluster") {
          spec_.kind = ScenarioKind::kCluster;
        } else if (kv.value == "churn") {
          spec_.kind = ScenarioKind::kChurn;
        } else if (kv.value == "failure") {
          spec_.kind = ScenarioKind::kFailure;
        } else if (kv.value == "hostile") {
          spec_.kind = ScenarioKind::kHostile;
        } else {
          return fail(kv.line,
                      format("unknown scenario kind '%s' (expected "
                             "compare|capacity|timeline|deployment|cluster|"
                             "churn|failure|hostile)",
                             kv.value.c_str()));
        }
      } else if (kv.key == "chain") {
        spec_.chain = kv.value;
      } else if (kv.key == "plan_rate_gbps") {
        if (!need_double(kv, spec_.plan_rate_gbps)) return false;
      } else if (kv.key == "measure") {
        if (kv.value == "analytic") {
          spec_.measure = MeasureMode::kAnalytic;
        } else if (kv.value == "des") {
          spec_.measure = MeasureMode::kDes;
        } else if (kv.value == "both") {
          spec_.measure = MeasureMode::kBoth;
        } else {
          return fail(kv.line, format("unknown measure mode '%s' (expected "
                                      "analytic|des|both)",
                                      kv.value.c_str()));
        }
      } else if (kv.key == "duration_ms") {
        if (!need_double(kv, spec_.duration_ms)) return false;
      } else if (kv.key == "warmup_ms") {
        if (!need_double(kv, spec_.warmup_ms)) return false;
      } else if (kv.key == "seed") {
        if (!parse_u64_strict(kv.value, spec_.seed)) {
          return fail(kv.line, format("key 'seed': expected an unsigned integer, "
                                      "got '%s'",
                                      kv.value.c_str()));
        }
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [scenario]", kv.key.c_str()));
      }
    }
    return true;
  }

  bool parse_sizes(const KeyValue& kv, SizeSpec& out) {
    const auto tok = tokens_of(kv.value);
    if (tok.empty()) {
      return fail(kv.line, "key 'sizes': empty value");
    }
    if (tok[0] == "imix" && tok.size() == 1) {
      out.kind = SizeSpec::Kind::kImix;
    } else if (tok[0] == "sweep" && tok.size() == 1) {
      out.kind = SizeSpec::Kind::kPaperSweep;
    } else if (tok[0] == "fixed" && tok.size() == 2) {
      out.kind = SizeSpec::Kind::kFixed;
      if (!parse_size_strict(tok[1], out.fixed)) {
        return fail(kv.line, format("sizes: bad fixed size '%s'", tok[1].c_str()));
      }
    } else if (tok[0] == "uniform" && tok.size() == 3) {
      out.kind = SizeSpec::Kind::kUniform;
      if (!parse_size_strict(tok[1], out.lo) || !parse_size_strict(tok[2], out.hi) ||
          out.lo > out.hi) {
        return fail(kv.line, format("sizes: bad uniform range '%s %s'",
                                    tok[1].c_str(), tok[2].c_str()));
      }
    } else {
      return fail(kv.line, format("sizes: expected 'fixed N' | 'imix' | "
                                  "'uniform LO HI' | 'sweep', got '%s'",
                                  kv.value.c_str()));
    }
    return true;
  }

  bool parse_rate_profile(const KeyValue& kv, RateSpec& out) {
    const auto tok = tokens_of(kv.value);
    if (tok.size() == 2 && tok[0] == "constant") {
      out.kind = RateSpec::Kind::kConstant;
      if (!parse_double_strict(tok[1], out.a)) {
        return fail(kv.line, format("rate: bad constant rate '%s'", tok[1].c_str()));
      }
      return true;
    }
    if (tok.size() == 4 && tok[0] == "step") {
      out.kind = RateSpec::Kind::kStep;
      if (!parse_double_strict(tok[1], out.a) || !parse_double_strict(tok[2], out.b) ||
          !parse_tagged_double(tok[3], "at_ms", out.at_ms)) {
        return fail(kv.line,
                    format("rate: expected 'step BEFORE AFTER at_ms=T', got '%s'",
                           kv.value.c_str()));
      }
      return true;
    }
    if (tok.size() == 4 && tok[0] == "sinusoid") {
      out.kind = RateSpec::Kind::kSinusoid;
      if (!parse_double_strict(tok[1], out.a) || !parse_double_strict(tok[2], out.b) ||
          !parse_tagged_double(tok[3], "period_ms", out.period_ms)) {
        return fail(kv.line,
                    format("rate: expected 'sinusoid BASE AMP period_ms=P', got '%s'",
                           kv.value.c_str()));
      }
      return true;
    }
    if (tok.size() == 5 && tok[0] == "flash") {
      out.kind = RateSpec::Kind::kFlash;
      if (!parse_double_strict(tok[1], out.a) || !parse_double_strict(tok[2], out.b) ||
          !parse_tagged_double(tok[3], "at_ms", out.at_ms) ||
          !parse_tagged_double(tok[4], "for_ms", out.for_ms) || out.for_ms <= 0.0) {
        return fail(kv.line,
                    format("rate: expected 'flash BASE PEAK at_ms=T for_ms=D' "
                           "with D > 0, got '%s'",
                           kv.value.c_str()));
      }
      return true;
    }
    return fail(kv.line, format("rate: expected 'constant G' | 'step B A at_ms=T' | "
                                "'sinusoid BASE AMP period_ms=P' | "
                                "'flash BASE PEAK at_ms=T for_ms=D', got '%s'",
                                kv.value.c_str()));
  }

  bool parse_traffic(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "arrival") {
        if (kv.value == "cbr") {
          spec_.traffic.arrival = ArrivalProcess::kCbr;
        } else if (kv.value == "poisson") {
          spec_.traffic.arrival = ArrivalProcess::kPoisson;
        } else {
          return fail(kv.line, format("unknown arrival process '%s' (expected "
                                      "cbr|poisson)",
                                      kv.value.c_str()));
        }
      } else if (kv.key == "sizes") {
        if (!parse_sizes(kv, spec_.traffic.sizes)) return false;
      } else if (kv.key == "rate") {
        rate_seen_ = true;
        rate_line_ = kv.line;
        if (!parse_rate_profile(kv, spec_.traffic.rate)) return false;
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [traffic]", kv.key.c_str()));
      }
    }
    return true;
  }

  /// Parses an inline policy value (`NAME[:key=val,...]`) and validates it
  /// against the registry — unknown names/keys are strict errors listing
  /// what is registered (no silent fallback).
  bool parse_policy(const KeyValue& kv, PolicyConfig& out) {
    auto parsed = PolicyConfig::parse(kv.value);
    if (!parsed) {
      return fail(kv.line, parsed.error().what());
    }
    auto valid = PolicyRegistry::instance().validate(parsed.value());
    if (!valid) {
      return fail(kv.line, valid.error().what());
    }
    out = std::move(parsed).value();
    return true;
  }

  /// One `param.KEY = NUMBER` (or `scale_in.param.KEY`) entry.
  bool parse_policy_param(const KeyValue& kv, std::string_view key,
                          PolicyConfig& target) {
    double value = 0.0;
    if (key.empty()) {
      return fail(kv.line, format("key '%s': missing parameter name", kv.key.c_str()));
    }
    if (!parse_double_strict(kv.value, value)) {
      return fail(kv.line, format("key '%s': expected a number, got '%s'",
                                  kv.key.c_str(), kv.value.c_str()));
    }
    if (target.contains(key)) {
      return fail(kv.line, format("policy '%s': duplicate parameter '%.*s'",
                                  target.name.c_str(), static_cast<int>(key.size()),
                                  key.data()));
    }
    target.params.emplace_back(std::string{key}, value);
    return true;
  }

  bool parse_policy_section(const Section& s) {
    policy_line_ = s.line;
    if (!no_duplicate_keys(s)) return false;
    // Two passes: `name`/`scale_in` first (they reset the config, inline
    // params included), then the param.* keys in file order — so key order
    // within the section does not matter.
    for (const auto& kv : s.entries) {
      if (kv.key == "name") {
        if (!parse_policy(kv, spec_.policy)) return false;
      } else if (kv.key == "scale_in") {
        if (!parse_policy(kv, spec_.scale_in)) return false;
      } else if (kv.key.rfind("param.", 0) != 0 &&
                 kv.key.rfind("scale_in.param.", 0) != 0) {
        return fail(kv.line, format("unknown key '%s' in [policy]", kv.key.c_str()));
      }
    }
    for (const auto& kv : s.entries) {
      if (kv.key.rfind("scale_in.param.", 0) == 0) {
        if (!parse_policy_param(kv, std::string_view{kv.key}.substr(15),
                                spec_.scale_in))
          return false;
      } else if (kv.key.rfind("param.", 0) == 0) {
        if (!parse_policy_param(kv, std::string_view{kv.key}.substr(6), spec_.policy))
          return false;
      }
    }
    // Re-validate with the merged param.* keys.
    auto valid = PolicyRegistry::instance().validate(spec_.policy);
    if (!valid) {
      return fail(s.line, valid.error().what());
    }
    valid = PolicyRegistry::instance().validate(spec_.scale_in);
    if (!valid) {
      return fail(s.line, valid.error().what());
    }
    return true;
  }

  bool parse_variant(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    VariantSpec v;
    for (const auto& kv : s.entries) {
      if (kv.key == "label") {
        v.label = kv.value;
      } else if (kv.key == "policy") {
        if (!parse_policy(kv, v.policy)) return false;
      } else if (kv.key == "measure_rate") {
        const auto tok = tokens_of(kv.value);
        if (tok.size() == 1 && tok[0] == "plan") {
          v.measure_rate.kind = MeasureRate::Kind::kPlanRate;
          v.measure_rate.value = 0.0;
        } else if (tok.size() == 1) {
          v.measure_rate.kind = MeasureRate::Kind::kGbps;
          if (!parse_double_strict(tok[0], v.measure_rate.value)) {
            return fail(kv.line, format("measure_rate: expected Gbps | 'plan' | "
                                        "'cap x M', got '%s'",
                                        kv.value.c_str()));
          }
        } else if (tok.size() == 3 && tok[0] == "cap" && tok[1] == "x") {
          v.measure_rate.kind = MeasureRate::Kind::kCapTimes;
          if (!parse_double_strict(tok[2], v.measure_rate.value)) {
            return fail(kv.line,
                        format("measure_rate: bad capacity multiplier '%s'",
                               tok[2].c_str()));
          }
        } else {
          return fail(kv.line, format("measure_rate: expected Gbps | 'plan' | "
                                      "'cap x M', got '%s'",
                                      kv.value.c_str()));
        }
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [variant]", kv.key.c_str()));
      }
    }
    if (v.label.empty()) {
      v.label = v.policy.to_string();
    }
    spec_.variants.push_back(std::move(v));
    return true;
  }

  bool parse_capacity(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "nfs") {
        for (const auto& tok : tokens_of(kv.value)) {
          const auto type = nf_type_from_string(tok);
          if (!type) {
            return fail(kv.line, format("unknown NF type '%s'", tok.c_str()));
          }
          spec_.capacity.nfs.push_back(*type);
        }
      } else if (kv.key == "locations") {
        for (const auto& tok : tokens_of(kv.value)) {
          if (tok == "smartnic") {
            spec_.capacity.locations.push_back(Location::kSmartNic);
          } else if (tok == "cpu") {
            spec_.capacity.locations.push_back(Location::kCpu);
          } else {
            return fail(kv.line, format("unknown location '%s' (expected "
                                        "smartnic|cpu)",
                                        tok.c_str()));
          }
        }
      } else if (kv.key == "loss_threshold") {
        if (!need_double(kv, spec_.capacity.loss_threshold)) return false;
      } else if (kv.key == "search_iters") {
        std::uint64_t v = 0;
        if (!parse_u64_strict(kv.value, v) || v < 1 || v > 64) {
          return fail(kv.line, "search_iters must be an integer in [1, 64]");
        }
        spec_.capacity.search_iters = static_cast<int>(v);
      } else if (kv.key == "size_bytes") {
        if (!parse_size_strict(kv.value, spec_.capacity.size_bytes)) {
          return fail(kv.line, format("bad size_bytes '%s'", kv.value.c_str()));
        }
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [capacity]", kv.key.c_str()));
      }
    }
    return true;
  }

  bool parse_controller(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "policy" || kv.key == "scale_in_policy") {
        return fail(kv.line,
                    format("key '%s' moved to the [policy] section (use "
                           "'name = ...' / 'scale_in = ...')",
                           kv.key.c_str()));
      } else if (kv.key == "trigger_utilization") {
        if (!need_double(kv, spec_.controller.trigger_utilization)) return false;
      } else if (kv.key == "scale_in_below") {
        if (!need_double(kv, spec_.controller.scale_in_below)) return false;
      } else if (kv.key == "period_ms") {
        if (!need_double(kv, spec_.controller.period_ms)) return false;
      } else if (kv.key == "first_check_ms") {
        if (!need_double(kv, spec_.controller.first_check_ms)) return false;
      } else if (kv.key == "cooldown_ms") {
        if (!need_double(kv, spec_.controller.cooldown_ms)) return false;
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [controller]", kv.key.c_str()));
      }
    }
    return true;
  }

  bool parse_chain_decl(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    ChainDecl decl;
    for (const auto& kv : s.entries) {
      if (kv.key == "name") {
        decl.name = kv.value;
      } else if (kv.key == "spec") {
        decl.spec = kv.value;
      } else if (kv.key == "offered_gbps") {
        if (!need_double(kv, decl.offered_gbps)) return false;
      } else if (kv.key == "server") {
        std::uint64_t v = 0;
        if (!parse_u64_strict(kv.value, v)) {
          return fail(kv.line, format("key 'server': expected an unsigned "
                                      "integer, got '%s'",
                                      kv.value.c_str()));
        }
        decl.server = static_cast<std::int64_t>(v);
        chain_server_line_ = kv.line;
      } else if (kv.key == "policy") {
        if (!parse_policy(kv, decl.policy)) return false;
        chain_policy_line_ = kv.line;
      } else if (kv.key == "arrive_ms") {
        if (!need_double(kv, decl.arrive_ms)) return false;
        chain_churn_line_ = kv.line;
      } else if (kv.key == "depart_ms") {
        if (!need_double(kv, decl.depart_ms)) return false;
        chain_churn_line_ = kv.line;
      } else if (kv.key == "rate") {
        if (!parse_rate_profile(kv, decl.rate)) return false;
        decl.has_rate = true;
        chain_churn_line_ = kv.line;
      } else {
        return fail(kv.line, format("unknown key '%s' in [chain]", kv.key.c_str()));
      }
    }
    if (decl.name.empty()) {
      return fail(s.line, "[chain] requires a 'name'");
    }
    if (decl.spec.empty()) {
      return fail(s.line, "[chain] requires a 'spec'");
    }
    spec_.chains.push_back(std::move(decl));
    return true;
  }

  bool parse_deployment(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "burst_multiplier") {
        if (!need_double(kv, spec_.deployment.burst_multiplier)) return false;
      } else if (kv.key == "scale_out_headroom") {
        if (!need_double(kv, spec_.deployment.scale_out_headroom)) return false;
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [deployment]", kv.key.c_str()));
      }
    }
    return true;
  }

  bool parse_cluster(const Section& s) {
    if (!no_duplicate_keys(s)) return false;
    for (const auto& kv : s.entries) {
      if (kv.key == "servers") {
        std::uint64_t v = 0;
        if (!parse_u64_strict(kv.value, v) || v < 1 || v > 1024) {
          return fail(kv.line, "servers must be an integer in [1, 1024]");
        }
        spec_.cluster.servers = static_cast<std::size_t>(v);
      } else if (kv.key == "rebalance") {
        if (kv.value == "on") {
          spec_.cluster.rebalance = true;
        } else if (kv.value == "off") {
          spec_.cluster.rebalance = false;
        } else {
          return fail(kv.line, format("rebalance: expected on|off, got '%s'",
                                      kv.value.c_str()));
        }
      } else if (kv.key == "inter_server_us") {
        if (!need_double(kv, spec_.cluster.inter_server_us)) return false;
      } else if (kv.key == "trigger_utilization") {
        if (!need_double(kv, spec_.cluster.trigger_utilization)) return false;
      } else if (kv.key == "target_max_load") {
        if (!need_double(kv, spec_.cluster.target_max_load)) return false;
      } else if (kv.key == "period_ms") {
        if (!need_double(kv, spec_.cluster.period_ms)) return false;
      } else if (kv.key == "first_check_ms") {
        if (!need_double(kv, spec_.cluster.first_check_ms)) return false;
      } else if (kv.key == "cooldown_ms") {
        if (!need_double(kv, spec_.cluster.cooldown_ms)) return false;
      } else if (kv.key == "shards") {
        std::uint64_t v = 0;
        if (!parse_u64_strict(kv.value, v) || v < 1 || v > 1024) {
          return fail(kv.line, "shards must be an integer in [1, 1024]");
        }
        spec_.cluster.shards = static_cast<std::size_t>(v);
      } else if (kv.key == "threads") {
        std::uint64_t v = 0;
        if (!parse_u64_strict(kv.value, v) || v < 1 || v > 256) {
          return fail(kv.line, "threads must be an integer in [1, 256]");
        }
        spec_.cluster.threads = static_cast<std::size_t>(v);
        cluster_sharded_line_ = kv.line;
      } else if (kv.key == "cross_rack_us") {
        if (!need_double(kv, spec_.cluster.cross_rack_us)) return false;
        cluster_sharded_line_ = kv.line;
      } else if (kv.key == "orchestrate") {
        if (kv.value == "on") {
          spec_.cluster.orchestrate = true;
        } else if (kv.value == "off") {
          spec_.cluster.orchestrate = false;
        } else {
          return fail(kv.line, format("orchestrate: expected on|off, got '%s'",
                                      kv.value.c_str()));
        }
        cluster_sharded_line_ = kv.line;
      } else {
        return fail(kv.line,
                    format("unknown key '%s' in [cluster]", kv.key.c_str()));
      }
    }
    return true;
  }

  bool parse_failure(const Section& s) {
    if (!no_duplicate_keys(s, {"fail"})) return false;
    for (const auto& kv : s.entries) {
      if (kv.key != "fail") {
        return fail(kv.line,
                    format("unknown key '%s' in [failure]", kv.key.c_str()));
      }
      const auto tok = tokens_of(kv.value);
      FailureEvent event;
      const bool shape_ok = (tok.size() == 2 || tok.size() == 3) &&
                            parse_size_strict(tok[0], event.server) &&
                            parse_tagged_double(tok[1], "at_ms", event.at_ms) &&
                            (tok.size() == 2 ||
                             parse_tagged_double(tok[2], "recover_ms",
                                                 event.recover_ms));
      if (!shape_ok) {
        return fail(kv.line,
                    format("fail: expected 'SERVER at_ms=T [recover_ms=U]', "
                           "got '%s'",
                           kv.value.c_str()));
      }
      if (event.recover_ms >= 0.0 && event.recover_ms <= event.at_ms) {
        return fail(kv.line, "fail: recover_ms must be after at_ms");
      }
      spec_.failures.push_back(event);
    }
    if (spec_.failures.empty()) {
      return fail(s.line, "[failure] requires at least one 'fail' event");
    }
    return true;
  }

  bool parse_link(const Section& s) {
    if (!no_duplicate_keys(s, {"fabric", "fade"})) return false;
    for (const auto& kv : s.entries) {
      const auto tok = tokens_of(kv.value);
      if (kv.key == "fabric") {
        LinkTraceSpec::FabricPoint point;
        if (tok.size() != 2 || !parse_tagged_double(tok[0], "at_ms", point.at_ms) ||
            !parse_tagged_double(tok[1], "delay_us", point.delay_us) ||
            point.delay_us < 0.0) {
          return fail(kv.line,
                      format("fabric: expected 'at_ms=T delay_us=D' with D >= 0, "
                             "got '%s'",
                             kv.value.c_str()));
        }
        spec_.link.fabric.push_back(point);
      } else if (kv.key == "fade") {
        LinkTraceSpec::SlotFade fade;
        if (tok.size() != 3 || !parse_size_strict(tok[0], fade.server) ||
            !parse_tagged_double(tok[1], "at_ms", fade.at_ms) ||
            !parse_tagged_double(tok[2], "speed", fade.speed) ||
            fade.speed <= 0.0 || fade.speed > 100.0) {
          return fail(kv.line,
                      format("fade: expected 'SERVER at_ms=T speed=F' with F in "
                             "(0, 100], got '%s'",
                             kv.value.c_str()));
        }
        spec_.link.fades.push_back(fade);
      } else {
        return fail(kv.line, format("unknown key '%s' in [link]", kv.key.c_str()));
      }
    }
    if (spec_.link.empty()) {
      return fail(s.line,
                  "[link] requires at least one 'fabric' or 'fade' point");
    }
    return true;
  }

  bool check_chain_string(const std::string& chain_spec, const std::string& who) {
    const auto parsed = parse_chain_spec(chain_spec, who);
    if (!parsed) {
      return fail_global(format("%s: invalid chain spec: %s", who.c_str(),
                                parsed.error().what().c_str()));
    }
    return true;
  }

  bool validate() {
    if (!seen_sections_.contains("scenario")) {
      return fail_global("missing required [scenario] section");
    }
    if (spec_.name.empty()) {
      return fail_global("[scenario] requires a 'name'");
    }
    if (!kind_seen_) {
      return fail_global("[scenario] requires a 'kind'");
    }

    const bool is_compare = spec_.kind == ScenarioKind::kCompare;
    const bool is_capacity = spec_.kind == ScenarioKind::kCapacity;
    const bool is_timeline = spec_.kind == ScenarioKind::kTimeline;
    const bool is_deployment = spec_.kind == ScenarioKind::kDeployment;
    // Fleet kinds share the [cluster]/[chain] rack model and run path.
    const bool is_fleet = is_fleet_kind(spec_.kind);
    const bool is_churn = spec_.kind == ScenarioKind::kChurn;
    const bool is_failure = spec_.kind == ScenarioKind::kFailure;
    const bool is_hostile = spec_.kind == ScenarioKind::kHostile;

    if (!spec_.variants.empty() && !is_compare) {
      return fail_global("[variant] sections are only valid for kind = compare");
    }
    if (seen_sections_.contains("capacity") && !is_capacity) {
      return fail_global("[capacity] is only valid for kind = capacity");
    }
    if (seen_sections_.contains("controller") && !is_timeline) {
      return fail_global("[controller] is only valid for kind = timeline");
    }
    if (seen_sections_.contains("policy") && !is_timeline && !is_fleet) {
      return fail(policy_line_,
                  "[policy] is only valid for kind = timeline or cluster-family "
                  "kinds (cluster|churn|failure|hostile); compare variants "
                  "carry their own 'policy'");
    }
    if (!is_timeline &&
        !(spec_.scale_in.name == "none" && spec_.scale_in.params.empty())) {
      // The fleet controller has no calm direction (yet); accepting the key
      // and ignoring it would break the strict-parsing contract.
      return fail(policy_line_,
                  "[policy] 'scale_in' is only used by timeline scenarios");
    }
    if (!spec_.chains.empty() && !is_deployment && !is_fleet) {
      return fail_global(
          "[chain] sections are only valid for kind = deployment or cluster-"
          "family kinds (cluster|churn|failure|hostile)");
    }
    if (seen_sections_.contains("deployment") && !is_deployment) {
      return fail_global("[deployment] is only valid for kind = deployment");
    }
    if (seen_sections_.contains("cluster") && !is_fleet) {
      return fail_global(
          "[cluster] is only valid for kind = cluster|churn|failure|hostile");
    }
    if (seen_sections_.contains("failure") && !is_failure) {
      return fail_global("[failure] is only valid for kind = failure");
    }
    if (seen_sections_.contains("link") && !is_hostile) {
      return fail_global("[link] is only valid for kind = hostile");
    }
    if (rate_seen_ && !is_timeline) {
      return fail(rate_line_,
                  "[traffic] rate profiles are only used by timeline scenarios");
    }
    if (spec_.traffic.sizes.kind == SizeSpec::Kind::kPaperSweep && !is_compare) {
      // Only compare scenarios fan out one DES run per sweep size; elsewhere
      // a sweep would silently degrade to a single size.
      return fail_global("sizes = sweep is only valid for kind = compare");
    }

    if (is_compare || is_timeline) {
      if (spec_.chain.empty()) {
        return fail_global(format("kind = %s requires [scenario] 'chain'",
                                  std::string{to_string(spec_.kind)}.c_str()));
      }
      if (!check_chain_string(spec_.chain, spec_.name)) {
        return false;
      }
    }
    if (is_compare && spec_.variants.empty()) {
      return fail_global("kind = compare requires at least one [variant]");
    }
    if (is_capacity && spec_.capacity.nfs.empty()) {
      return fail_global("kind = capacity requires [capacity] with a non-empty 'nfs'");
    }
    if (is_capacity && spec_.capacity.locations.empty()) {
      spec_.capacity.locations = {Location::kSmartNic, Location::kCpu};
    }
    if (is_timeline && !rate_seen_) {
      return fail_global("kind = timeline requires [traffic] with a 'rate' profile");
    }
    if (is_deployment || is_fleet) {
      if (spec_.chains.empty()) {
        return fail_global(format("kind = %s requires at least one [chain]",
                                  std::string{to_string(spec_.kind)}.c_str()));
      }
      std::unordered_set<std::string> names;
      for (const auto& decl : spec_.chains) {
        if (!names.insert(decl.name).second) {
          return fail_global(format("duplicate [chain] name '%s'", decl.name.c_str()));
        }
        if (!check_chain_string(decl.spec, decl.name)) {
          return false;
        }
        if (decl.server >= 0 && !is_fleet) {
          return fail(chain_server_line_,
                      "[chain] 'server' is only valid for kind = "
                      "cluster|churn|failure|hostile");
        }
        if (!decl.policy.empty() && !is_fleet) {
          return fail(chain_policy_line_,
                      "[chain] 'policy' is only valid for kind = "
                      "cluster|churn|failure|hostile");
        }
        const bool has_churn_keys =
            decl.arrive_ms != 0.0 || decl.depart_ms >= 0.0 || decl.has_rate;
        if (has_churn_keys && !is_churn) {
          return fail(chain_churn_line_,
                      "[chain] 'arrive_ms'/'depart_ms'/'rate' are only valid "
                      "for kind = churn");
        }
        if (is_churn) {
          if (decl.arrive_ms < 0.0 || decl.arrive_ms >= spec_.duration_ms) {
            return fail_global(
                format("chain '%s': arrive_ms must be in [0, duration_ms)",
                       decl.name.c_str()));
          }
          if (decl.depart_ms >= 0.0 && decl.depart_ms <= decl.arrive_ms) {
            return fail_global(
                format("chain '%s': depart_ms must be after arrive_ms",
                       decl.name.c_str()));
          }
        }
        if (is_fleet &&
            decl.server >= static_cast<std::int64_t>(spec_.cluster.servers)) {
          return fail_global(
              format("chain '%s': server %lld out of range (cluster has %zu)",
                     decl.name.c_str(), static_cast<long long>(decl.server),
                     spec_.cluster.servers));
        }
      }
    }
    if (is_fleet && !seen_sections_.contains("cluster")) {
      return fail_global(
          format("kind = %s requires a [cluster] section",
                 std::string{to_string(spec_.kind)}.c_str()));
    }
    if (is_fleet) {
      if (spec_.cluster.shards == 1 && cluster_sharded_line_ != 0) {
        return fail(cluster_sharded_line_,
                    "[cluster] 'threads'/'cross_rack_us'/'orchestrate' require "
                    "shards > 1");
      }
      if (spec_.cluster.servers % spec_.cluster.shards != 0) {
        return fail_global(
            format("[cluster] servers (%zu) must divide evenly into shards "
                   "(%zu)",
                   spec_.cluster.servers, spec_.cluster.shards));
      }
      if (!(spec_.cluster.inter_server_us >= 0.0)) {
        return fail_global(
            "[cluster] inter_server_us must not be negative (it is a fixed "
            "forwarding delay)");
      }
      if (spec_.cluster.shards > 1 && spec_.cluster.cross_rack_us <= 0.0) {
        return fail_global(
            "[cluster] cross_rack_us must be positive (it is the epoch "
            "quantum)");
      }
    }
    if (is_failure) {
      if (spec_.failures.empty()) {
        return fail_global(
            "kind = failure requires [failure] with at least one 'fail'");
      }
      if (!spec_.cluster.rebalance) {
        // Without the fleet controller nobody evacuates a dead slot.
        return fail_global("kind = failure requires [cluster] rebalance = on");
      }
      for (const auto& event : spec_.failures) {
        if (event.server >= spec_.cluster.servers) {
          return fail_global(
              format("[failure] fail: server %zu out of range (cluster has %zu)",
                     event.server, spec_.cluster.servers));
        }
        if (event.at_ms < 0.0 || event.at_ms >= spec_.duration_ms) {
          return fail_global("[failure] fail: at_ms must be in [0, duration_ms)");
        }
      }
    }
    if (is_hostile) {
      if (spec_.link.empty()) {
        return fail_global(
            "kind = hostile requires [link] with at least one 'fabric' or "
            "'fade' point");
      }
      for (const auto& fade : spec_.link.fades) {
        if (fade.server >= spec_.cluster.servers) {
          return fail_global(
              format("[link] fade: server %zu out of range (cluster has %zu)",
                     fade.server, spec_.cluster.servers));
        }
      }
    }
    if (spec_.duration_ms <= 0.0 || spec_.warmup_ms < 0.0 ||
        spec_.warmup_ms >= spec_.duration_ms) {
      return fail_global("need duration_ms > warmup_ms >= 0");
    }
    return true;
  }

  std::string_view text_;
  std::string_view origin_;
  std::vector<Section> sections_;
  std::set<std::string> seen_sections_;
  bool kind_seen_ = false;
  bool rate_seen_ = false;
  int rate_line_ = 0;
  int chain_server_line_ = 0;
  int chain_policy_line_ = 0;
  int chain_churn_line_ = 0;
  int cluster_sharded_line_ = 0;
  int policy_line_ = 0;
  ScenarioSpec spec_;
  std::string error_;
};

std::string sizes_to_text(const SizeSpec& s) {
  switch (s.kind) {
    case SizeSpec::Kind::kFixed:
      return format("fixed %zu", s.fixed);
    case SizeSpec::Kind::kImix:
      return "imix";
    case SizeSpec::Kind::kUniform:
      return format("uniform %zu %zu", s.lo, s.hi);
    case SizeSpec::Kind::kPaperSweep:
      return "sweep";
  }
  return "fixed 512";
}

std::string rate_to_text(const RateSpec& r) {
  switch (r.kind) {
    case RateSpec::Kind::kConstant:
      return "constant " + fmt_double(r.a);
    case RateSpec::Kind::kStep:
      return "step " + fmt_double(r.a) + " " + fmt_double(r.b) +
             " at_ms=" + fmt_double(r.at_ms);
    case RateSpec::Kind::kSinusoid:
      return "sinusoid " + fmt_double(r.a) + " " + fmt_double(r.b) +
             " period_ms=" + fmt_double(r.period_ms);
    case RateSpec::Kind::kFlash:
      return "flash " + fmt_double(r.a) + " " + fmt_double(r.b) +
             " at_ms=" + fmt_double(r.at_ms) + " for_ms=" + fmt_double(r.for_ms);
  }
  return "constant 1";
}

std::string measure_rate_to_text(const MeasureRate& m) {
  switch (m.kind) {
    case MeasureRate::Kind::kGbps:
      return fmt_double(m.value);
    case MeasureRate::Kind::kPlanRate:
      return "plan";
    case MeasureRate::Kind::kCapTimes:
      return "cap x " + fmt_double(m.value);
  }
  return "plan";
}

}  // namespace

std::string_view to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kCompare: return "compare";
    case ScenarioKind::kCapacity: return "capacity";
    case ScenarioKind::kTimeline: return "timeline";
    case ScenarioKind::kDeployment: return "deployment";
    case ScenarioKind::kCluster: return "cluster";
    case ScenarioKind::kChurn: return "churn";
    case ScenarioKind::kFailure: return "failure";
    case ScenarioKind::kHostile: return "hostile";
  }
  return "?";
}

std::string_view to_string(MeasureMode mode) noexcept {
  switch (mode) {
    case MeasureMode::kAnalytic: return "analytic";
    case MeasureMode::kDes: return "des";
    case MeasureMode::kBoth: return "both";
  }
  return "?";
}

Result<ScenarioSpec> ScenarioSpec::parse(std::string_view text,
                                         std::string_view origin) {
  return SpecParser{text, origin}.run();
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  const auto emit = [&out](const char* key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  };

  out += "[scenario]\n";
  emit("name", name);
  emit("kind", std::string{pam::to_string(kind)});
  if (!description.empty()) {
    emit("description", description);
  }
  for (const auto& note : notes) {
    emit("note", note);
  }
  if (!chain.empty()) {
    emit("chain", chain);
  }
  emit("plan_rate_gbps", fmt_double(plan_rate_gbps));
  emit("measure", std::string{pam::to_string(measure)});
  emit("duration_ms", fmt_double(duration_ms));
  emit("warmup_ms", fmt_double(warmup_ms));
  emit("seed", format("%llu", static_cast<unsigned long long>(seed)));

  out += "\n[traffic]\n";
  emit("arrival", traffic.arrival == ArrivalProcess::kPoisson ? "poisson" : "cbr");
  emit("sizes", sizes_to_text(traffic.sizes));
  if (kind == ScenarioKind::kTimeline) {
    emit("rate", rate_to_text(traffic.rate));
  }

  if (kind == ScenarioKind::kTimeline || is_fleet_kind(kind)) {
    out += "\n[policy]\n";
    emit("name", policy.name);
    for (const auto& [key, value] : policy.params) {
      emit(("param." + key).c_str(), fmt_double(value));
    }
    if (!(scale_in.name == "none" && scale_in.params.empty())) {
      emit("scale_in", scale_in.name);
      for (const auto& [key, value] : scale_in.params) {
        emit(("scale_in.param." + key).c_str(), fmt_double(value));
      }
    }
  }

  for (const auto& v : variants) {
    out += "\n[variant]\n";
    emit("label", v.label);
    emit("policy", v.policy.to_string());
    emit("measure_rate", measure_rate_to_text(v.measure_rate));
  }

  if (kind == ScenarioKind::kCapacity) {
    out += "\n[capacity]\n";
    std::string nfs;
    for (const auto type : capacity.nfs) {
      if (!nfs.empty()) nfs += " ";
      nfs += std::string{pam::to_string(type)};
    }
    emit("nfs", nfs);
    std::string locations;
    for (const auto loc : capacity.locations) {
      if (!locations.empty()) locations += " ";
      locations += loc == Location::kSmartNic ? "smartnic" : "cpu";
    }
    emit("locations", locations);
    emit("loss_threshold", fmt_double(capacity.loss_threshold));
    emit("search_iters", format("%d", capacity.search_iters));
    emit("size_bytes", format("%zu", capacity.size_bytes));
  }

  if (kind == ScenarioKind::kTimeline) {
    out += "\n[controller]\n";
    emit("trigger_utilization", fmt_double(controller.trigger_utilization));
    emit("scale_in_below", fmt_double(controller.scale_in_below));
    emit("period_ms", fmt_double(controller.period_ms));
    emit("first_check_ms", fmt_double(controller.first_check_ms));
    emit("cooldown_ms", fmt_double(controller.cooldown_ms));
  }

  for (const auto& decl : chains) {
    out += "\n[chain]\n";
    emit("name", decl.name);
    emit("spec", decl.spec);
    emit("offered_gbps", fmt_double(decl.offered_gbps));
    if (decl.server >= 0) {
      emit("server", format("%lld", static_cast<long long>(decl.server)));
    }
    if (!decl.policy.empty()) {
      emit("policy", decl.policy.to_string());
    }
    if (decl.arrive_ms != 0.0) {
      emit("arrive_ms", fmt_double(decl.arrive_ms));
    }
    if (decl.depart_ms >= 0.0) {
      emit("depart_ms", fmt_double(decl.depart_ms));
    }
    if (decl.has_rate) {
      emit("rate", rate_to_text(decl.rate));
    }
  }

  if (kind == ScenarioKind::kDeployment) {
    out += "\n[deployment]\n";
    emit("burst_multiplier", fmt_double(deployment.burst_multiplier));
    emit("scale_out_headroom", fmt_double(deployment.scale_out_headroom));
  }

  if (is_fleet_kind(kind)) {
    out += "\n[cluster]\n";
    emit("servers", format("%zu", cluster.servers));
    emit("rebalance", cluster.rebalance ? "on" : "off");
    emit("inter_server_us", fmt_double(cluster.inter_server_us));
    emit("trigger_utilization", fmt_double(cluster.trigger_utilization));
    emit("target_max_load", fmt_double(cluster.target_max_load));
    emit("period_ms", fmt_double(cluster.period_ms));
    emit("first_check_ms", fmt_double(cluster.first_check_ms));
    emit("cooldown_ms", fmt_double(cluster.cooldown_ms));
    if (cluster.shards > 1) {
      // Sharded-mode keys round-trip only when present: a shards=1 spec
      // emits exactly the classic section, so historical texts are stable.
      emit("shards", format("%zu", cluster.shards));
      emit("threads", format("%zu", cluster.threads));
      emit("cross_rack_us", fmt_double(cluster.cross_rack_us));
      emit("orchestrate", cluster.orchestrate ? "on" : "off");
    }
  }

  if (kind == ScenarioKind::kFailure) {
    out += "\n[failure]\n";
    for (const auto& event : failures) {
      std::string value =
          format("%zu", event.server) + " at_ms=" + fmt_double(event.at_ms);
      if (event.recover_ms >= 0.0) {
        value += " recover_ms=" + fmt_double(event.recover_ms);
      }
      emit("fail", value);
    }
  }

  if (kind == ScenarioKind::kHostile) {
    out += "\n[link]\n";
    for (const auto& point : link.fabric) {
      emit("fabric", "at_ms=" + fmt_double(point.at_ms) +
                         " delay_us=" + fmt_double(point.delay_us));
    }
    for (const auto& fade : link.fades) {
      emit("fade", format("%zu", fade.server) + " at_ms=" +
                       fmt_double(fade.at_ms) + " speed=" + fmt_double(fade.speed));
    }
  }

  return out;
}

ScenarioSpec ScenarioSpec::scaled(double factor) const {
  ScenarioSpec out = *this;
  out.plan_rate_gbps *= factor;
  for (auto& v : out.variants) {
    if (v.measure_rate.kind == MeasureRate::Kind::kGbps) {
      v.measure_rate.value *= factor;
    }
  }
  out.traffic.rate.a *= factor;
  if (out.traffic.rate.kind != RateSpec::Kind::kConstant) {
    out.traffic.rate.b *= factor;
  }
  for (auto& decl : out.chains) {
    decl.offered_gbps *= factor;
    if (decl.has_rate) {
      decl.rate.a *= factor;
      if (decl.rate.kind != RateSpec::Kind::kConstant) {
        decl.rate.b *= factor;
      }
    }
  }
  return out;
}

ScenarioSpec ScenarioSpec::with_policy(const PolicyConfig& policy) const {
  ScenarioSpec out = *this;
  out.policy = policy;
  for (auto& decl : out.chains) {
    decl.policy = PolicyConfig{};  // overrides yield to the new default
  }
  for (auto& v : out.variants) {
    v.policy = policy;
    v.label = policy.to_string();
  }
  return out;
}

}  // namespace pam
