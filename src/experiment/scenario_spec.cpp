#include "experiment/scenario_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <span>
#include <type_traits>
#include <unordered_set>

#include "chain/chain_spec.hpp"
#include "common/strings.hpp"

namespace pam {

namespace {

/// Canonical shortest-round-trip rendering (common/strings.hpp), aliased to
/// keep the codecs short.
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
  for (std::size_t i = 0; (i = s.find_first_not_of(" \t", i)) != std::string_view::npos;) {
    const std::size_t end = std::min(s.find_first_of(" \t", i), s.size());
    out.emplace_back(s.substr(i, end - i));
    i = end;
  }
  return out;
}

/// Plain decimal digits into `out`; false on anything else, or if the
/// value does not fit.
template <class T>
bool parse_uint(std::string_view s, T& out) {
  static_assert(std::is_unsigned_v<T>);
  // strtoull silently wraps negative input, so require plain digits.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string_view::npos) return false;
  const std::string buf{s};
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), nullptr, 10);
  out = static_cast<T>(v);
  return errno == 0 && out == v;
}

// --- value ranges -----------------------------------------------------------

/// A numeric value's accepted range, inclusive.  Doubles must also be finite.
struct Range {
  double lo;
  double hi;
};

constexpr double kHuge = std::numeric_limits<double>::max();
constexpr Range kNonNeg{0.0, kHuge};  ///< rates (Gbps), loads, counts
/// Times stop at 1e12 ms (about 32 simulated years): SimTime counts int64
/// nanoseconds, so a time, and a sum of a few, converts without overflow.
constexpr Range kMs{0.0, 1e12};
constexpr Range kUs{0.0, 1e15};
/// A period or epoch quantum is at least one simulated ns; a loop stepping
/// by a zero-ns period never advances.
constexpr Range kTickMs{1e-6, 1e12};
constexpr Range kTickUs{1e-3, 1e15};

bool in_range(double v, Range r) { return std::isfinite(v) && v >= r.lo && v <= r.hi; }

std::string range_text(Range r) {
  return r.hi == kHuge ? ">= " + fmt_double(r.lo)
                       : "in [" + fmt_double(r.lo) + ", " + fmt_double(r.hi) + "]";
}

/// A number inside a composite value, e.g. the `2.5` of `constant 2.5`.
bool number_in(std::string_view token, Range r, double& out) {
  return parse_double_strict(token, out) && in_range(out, r);
}

/// `TAG=NUMBER` inside a composite value, e.g. "at_ms=40".
bool tagged_in(std::string_view token, std::string_view tag, Range r, double& out) {
  return token.size() > tag.size() + 1 && token.starts_with(tag) && token[tag.size()] == '=' &&
         number_in(token.substr(tag.size() + 1), r, out);
}

// --- names ------------------------------------------------------------------

constexpr std::string_view kKindNames[] = {"compare", "capacity", "timeline", "deployment",
                                           "cluster", "churn",    "failure",  "hostile"};
constexpr std::string_view kMeasureNames[] = {"analytic", "des", "both"};
constexpr std::string_view kArrivalNames[] = {"cbr", "poisson"};
constexpr std::string_view kLocationNames[] = {"smartnic", "cpu"};

/// A set of scenario kinds, one bit per ScenarioKind value.
using Kinds = unsigned;

constexpr Kinds bit(ScenarioKind kind) { return 1u << static_cast<unsigned>(kind); }

constexpr Kinds kAll = 0xffu;
constexpr Kinds kCompare = bit(ScenarioKind::kCompare);
constexpr Kinds kCapacity = bit(ScenarioKind::kCapacity);
constexpr Kinds kTimeline = bit(ScenarioKind::kTimeline);
constexpr Kinds kDeployment = bit(ScenarioKind::kDeployment);
constexpr Kinds kChurn = bit(ScenarioKind::kChurn);
constexpr Kinds kFailure = bit(ScenarioKind::kFailure);
constexpr Kinds kHostile = bit(ScenarioKind::kHostile);
constexpr Kinds kFleet = bit(ScenarioKind::kCluster) | kChurn | kFailure | kHostile;

/// Position of `word` in `names`; names.size() if absent.
std::size_t index_of(std::span<const std::string_view> names, std::string_view word) {
  return static_cast<std::size_t>(std::find(names.begin(), names.end(), word) - names.begin());
}

/// `names` joined with '|', keeping only the bits set in `only`.
std::string joined(std::span<const std::string_view> names, Kinds only = kAll) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if ((only & (1u << i)) != 0) out.append(out.empty() ? "" : "|").append(names[i]);
  }
  return out;
}

// --- the key table: row type -----------------------------------------------

struct Row;

/// A codec bound to one member of the spec.  `i` picks the [variant] /
/// [chain] element.
struct Io {
  std::string (*parse)(const Row&, const KeyValue&, ScenarioSpec&, std::size_t i);
  void (*print)(const Row&, const ScenarioSpec&, std::size_t i, std::string& out);
  bool repeats;  ///< the key may be given more than once per section
  /// Repeated sections ([variant], [chain]) only: element count, and append.
  std::size_t (*instances)(const ScenarioSpec&);
  void (*open)(ScenarioSpec&);
};

/// When to_text prints an optional key (nullptr: always).
using When = bool (*)(const ScenarioSpec&, std::size_t i);

/// One `(section, key)` of the `.scn` schema; its codec owns the range.
struct Row {
  std::string_view section;
  std::string_view key;  ///< a trailing '.' makes a prefix key (`param.NAME`)
  Kinds kinds;           ///< the scenario kinds that accept the key
  Io io;
  When when = nullptr;
  Kinds needed = 0;           ///< the kinds that must give the key
  bool shard_option = false;  ///< only valid when [cluster] shards > 1
};

void put(std::string& out, std::string_view key, std::string_view value) {
  out.append(key).append(" = ").append(value).append("\n");
}

std::string expected(const KeyValue& kv, const std::string& what) {
  return format("key '%s': expected %s, got '%s'", kv.key.c_str(), what.c_str(),
                kv.value.c_str());
}

std::string registered(const PolicyConfig& policy) {
  const auto valid = PolicyRegistry::instance().validate(policy);
  return valid ? std::string{} : valid.error().what();
}

// --- value codecs -----------------------------------------------------------
//
// A codec parses one entry's value into its member, returning an error
// message (empty on success), and renders the member back.  A scalar codec
// has text(); a repeating one (kRepeats) has print(), which writes every
// `key = value` line it owns.

struct Text {
  static std::string parse(const Row&, const KeyValue& kv, std::string& out) {
    out = kv.value;
    return {};
  }
  static std::string text(const std::string& v) { return v; }
};

template <Range R>
struct Number {
  static std::string parse(const Row&, const KeyValue& kv, double& out) {
    if (!parse_double_strict(kv.value, out)) return expected(kv, "a number");
    return in_range(out, R) ? "" : expected(kv, "a finite number " + range_text(R));
  }
  static std::string text(double v) { return fmt_double(v); }
};

template <class T, Range R = kNonNeg>
struct Integer {
  static std::string parse(const Row&, const KeyValue& kv, T& out) {
    std::uint64_t v = 0;
    if (parse_uint(kv.value, v) && in_range(static_cast<double>(v), R)) {
      out = static_cast<T>(v);
      return {};
    }
    return expected(kv, R.hi == kHuge ? "an unsigned integer" : "an integer " + range_text(R));
  }
  static std::string text(T v) { return std::to_string(v); }
};

struct OnOff {
  static std::string parse(const Row&, const KeyValue& kv, bool& out) {
    out = kv.value == "on";
    return out || kv.value == "off" ? "" : expected(kv, "on|off");
  }
  static std::string text(bool v) { return v ? "on" : "off"; }
};

template <class E, const auto& kNames>
struct Enum {
  static std::string parse(const Row&, const KeyValue& kv, E& out) {
    const std::size_t i = index_of(kNames, kv.value);
    out = static_cast<E>(i);
    return i < std::size(kNames) ? "" : expected(kv, joined(kNames));
  }
  static std::string text(E v) { return std::string{kNames[static_cast<std::size_t>(v)]}; }
};

struct NfName {
  static std::string parse(const Row&, const KeyValue& kv, NfType& out) {
    const auto type = nf_type_from_string(kv.value);
    out = type.value_or(out);
    return type ? "" : expected(kv, "an NF type");
  }
  static std::string text(NfType type) { return std::string{to_string(type)}; }
};

/// A space-separated list, each word parsed by `Codec`.
template <class Codec, class T>
struct List {
  static std::string parse(const Row& row, const KeyValue& kv, std::vector<T>& out) {
    for (const auto& word : tokens_of(kv.value)) {
      std::string error = Codec::parse(row, KeyValue{kv.line, kv.key, word}, out.emplace_back());
      if (!error.empty()) return error;
    }
    return {};
  }
  static std::string text(const std::vector<T>& values) {
    std::string out;
    for (const T& value : values) {
      out.append(out.empty() ? "" : " ").append(Codec::text(value));
    }
    return out;
  }
};

struct Sizes {
  static std::string parse(const Row&, const KeyValue& kv, SizeSpec& out) {
    constexpr std::string_view kWords[] = {"fixed", "imix", "uniform", "sweep"};  // by Kind
    constexpr std::size_t kTokens[] = {2, 1, 3, 1};
    const auto tok = tokens_of(kv.value);
    const std::size_t i = index_of(kWords, tok.empty() ? "" : tok[0]);
    out.kind = static_cast<SizeSpec::Kind>(i);
    bool ok = i < std::size(kWords) && tok.size() == kTokens[i];
    if (ok && out.kind == SizeSpec::Kind::kFixed) ok = parse_uint(tok[1], out.fixed);
    if (ok && out.kind == SizeSpec::Kind::kUniform) {
      ok = parse_uint(tok[1], out.lo) && parse_uint(tok[2], out.hi) && out.lo <= out.hi;
    }
    return ok ? "" : expected(kv, "'fixed N' | 'imix' | 'uniform LO HI' (LO <= HI) | 'sweep'");
  }
  static std::string text(const SizeSpec& s) {
    using K = SizeSpec::Kind;
    return s.kind == K::kFixed     ? format("fixed %zu", s.fixed)
           : s.kind == K::kUniform ? format("uniform %zu %zu", s.lo, s.hi)
           : s.kind == K::kImix    ? "imix"
                                   : "sweep";
  }
};

/// An offered-load profile, `WORD A [B] [TAG=T ...]`: rates are Gbps >= 0,
/// times are ms.  A [chain]'s profile (the ChainDecl overloads) also sets
/// `has_rate`.
struct Profile {
  static std::string parse(const Row&, const KeyValue& kv, RateSpec& out) {
    using K = RateSpec::Kind;
    constexpr std::string_view kWords[] = {"constant", "step", "sinusoid", "flash"};  // by Kind
    constexpr std::size_t kTokens[] = {2, 4, 4, 5};
    const auto tok = tokens_of(kv.value);
    const std::size_t i = index_of(kWords, tok.empty() ? "" : tok[0]);
    out.kind = static_cast<K>(i);
    bool ok = i < std::size(kWords) && tok.size() == kTokens[i] && number_in(tok[1], kNonNeg, out.a);
    if (ok && out.kind != K::kConstant) {
      ok = number_in(tok[2], kNonNeg, out.b) &&
           (out.kind == K::kSinusoid ? tagged_in(tok[3], "period_ms", kTickMs, out.period_ms)
                                     : tagged_in(tok[3], "at_ms", kMs, out.at_ms)) &&
           (out.kind != K::kFlash || tagged_in(tok[4], "for_ms", kTickMs, out.for_ms));
    }
    return ok ? "" : expected(kv, "'constant G' | 'step B A at_ms=T' | "
                                  "'sinusoid BASE AMP period_ms=P' | "
                                  "'flash BASE PEAK at_ms=T for_ms=D' (rates >= 0, P and D > 0)");
  }
  static std::string parse(const Row& row, const KeyValue& kv, ChainDecl& out) {
    out.has_rate = true;
    return parse(row, kv, out.rate);
  }
  static std::string text(const ChainDecl& decl) { return text(decl.rate); }
  static std::string text(const RateSpec& r) {
    const std::string ab = fmt_double(r.a) + " " + fmt_double(r.b);
    switch (r.kind) {
      case RateSpec::Kind::kConstant: return "constant " + fmt_double(r.a);
      case RateSpec::Kind::kStep: return "step " + ab + " at_ms=" + fmt_double(r.at_ms);
      case RateSpec::Kind::kSinusoid: return "sinusoid " + ab + " period_ms=" + fmt_double(r.period_ms);
      case RateSpec::Kind::kFlash:
        return "flash " + ab + " at_ms=" + fmt_double(r.at_ms) + " for_ms=" + fmt_double(r.for_ms);
    }
    return "constant 1";
  }
};

struct MeasuredAt {
  static std::string parse(const Row&, const KeyValue& kv, MeasureRate& out) {
    const auto tok = tokens_of(kv.value);
    out = MeasureRate{MeasureRate::Kind::kPlanRate, 0.0};
    if (tok.size() == 1 && tok[0] == "plan") return {};
    out.kind = tok.size() == 1 ? MeasureRate::Kind::kGbps : MeasureRate::Kind::kCapTimes;
    const bool ok = tok.size() == 1 || (tok.size() == 3 && tok[0] == "cap" && tok[1] == "x");
    return ok && number_in(tok.back(), kNonNeg, out.value)
               ? ""
               : expected(kv, "Gbps | 'plan' | 'cap x M' (Gbps and M >= 0)");
  }
  static std::string text(const MeasureRate& m) {
    using K = MeasureRate::Kind;
    return m.kind == K::kGbps       ? fmt_double(m.value)
           : m.kind == K::kCapTimes ? "cap x " + fmt_double(m.value)
                                    : "plan";
  }
};

/// A registered policy, `NAME[:key=val,...]`; unknown names and keys are
/// strict errors listing what is registered (no silent fallback).  The
/// [policy] section prints only the name (kWithParams false) and leaves the
/// parameters to its `param.` rows.
template <bool kWithParams>
struct Policy {
  static std::string parse(const Row&, const KeyValue& kv, PolicyConfig& out) {
    auto parsed = PolicyConfig::parse(kv.value);
    if (!parsed) return parsed.error().what();
    out = std::move(parsed).value();
    return registered(out);
  }
  static std::string text(const PolicyConfig& p) { return kWithParams ? p.to_string() : p.name; }
};

/// `PREFIX.NAME = NUMBER`: one parameter added to a policy.
struct Params {
  static constexpr bool kRepeats = true;
  static std::string parse(const Row& row, const KeyValue& kv, PolicyConfig& policy) {
    const std::string name = kv.key.substr(row.key.size());
    double value = 0.0;
    if (!parse_double_strict(kv.value, value)) return expected(kv, "a number");
    if (policy.contains(name)) {
      return format("policy '%s': duplicate parameter '%s'", policy.name.c_str(), name.c_str());
    }
    policy.params.emplace_back(name, value);
    return registered(policy);
  }
  static void print(const Row& row, const PolicyConfig& policy, std::string& out) {
    for (const auto& [name, value] : policy.params) {
      put(out, std::string{row.key}.append(name), fmt_double(value));
    }
  }
};

struct Failure {
  static std::string parse(const Row&, const KeyValue& kv, FailureEvent& event) {
    const auto tok = tokens_of(kv.value);
    const bool ok = (tok.size() == 2 || tok.size() == 3) && parse_uint(tok[0], event.server) &&
                    tagged_in(tok[1], "at_ms", kMs, event.at_ms) &&
                    (tok.size() == 2 || tagged_in(tok[2], "recover_ms", kMs, event.recover_ms));
    return ok && (event.recover_ms < 0.0 || event.recover_ms > event.at_ms)
               ? ""
               : expected(kv, "'SERVER at_ms=T [recover_ms=U]' with U > T");
  }
  static std::string text(const FailureEvent& event) {
    return format("%zu at_ms=", event.server) + fmt_double(event.at_ms) +
           (event.recover_ms >= 0.0 ? " recover_ms=" + fmt_double(event.recover_ms) : "");
  }
};

struct Fabric {
  static std::string parse(const Row&, const KeyValue& kv, LinkTraceSpec::FabricPoint& point) {
    const auto tok = tokens_of(kv.value);
    return tok.size() == 2 && tagged_in(tok[0], "at_ms", kMs, point.at_ms) &&
                   tagged_in(tok[1], "delay_us", kUs, point.delay_us)
               ? ""
               : expected(kv, "'at_ms=T delay_us=D' with D >= 0");
  }
  static std::string text(const LinkTraceSpec::FabricPoint& point) {
    return "at_ms=" + fmt_double(point.at_ms) + " delay_us=" + fmt_double(point.delay_us);
  }
};

struct Fade {
  static std::string parse(const Row&, const KeyValue& kv, LinkTraceSpec::SlotFade& fade) {
    constexpr Range kSpeed{std::numeric_limits<double>::denorm_min(), 100.0};
    const auto tok = tokens_of(kv.value);
    return tok.size() == 3 && parse_uint(tok[0], fade.server) &&
                   tagged_in(tok[1], "at_ms", kMs, fade.at_ms) &&
                   tagged_in(tok[2], "speed", kSpeed, fade.speed)
               ? ""
               : expected(kv, "'SERVER at_ms=T speed=F' with F in (0, 100]");
  }
  static std::string text(const LinkTraceSpec::SlotFade& fade) {
    return format("%zu at_ms=", fade.server) + fmt_double(fade.at_ms) +
           " speed=" + fmt_double(fade.speed);
  }
};

/// A repeated key: each line adds one element.
template <class Codec, class T>
struct Each {
  static constexpr bool kRepeats = true;
  static std::string parse(const Row& row, const KeyValue& kv, std::vector<T>& out) {
    return Codec::parse(row, kv, out.emplace_back());
  }
  static void print(const Row& row, const std::vector<T>& values, std::string& out) {
    for (const T& value : values) {
      put(out, row.key, Codec::text(value));
    }
  }
};

// --- the key table ----------------------------------------------------------

/// Where each section struct lives in the spec (nullptr: the spec itself).
template <class Part> constexpr auto kHome = nullptr;
template <> constexpr auto kHome<TrafficSpec> = &ScenarioSpec::traffic;
template <> constexpr auto kHome<VariantSpec> = &ScenarioSpec::variants;
template <> constexpr auto kHome<CapacitySpec> = &ScenarioSpec::capacity;
template <> constexpr auto kHome<ChainDecl> = &ScenarioSpec::chains;
template <> constexpr auto kHome<DeploymentSpec> = &ScenarioSpec::deployment;
template <> constexpr auto kHome<ClusterSpec> = &ScenarioSpec::cluster;
template <> constexpr auto kHome<LinkTraceSpec> = &ScenarioSpec::link;

/// [variant] and [chain] repeat: each header opens one more element.
template <class Part>
constexpr bool kRepeated = std::is_same_v<Part, VariantSpec> || std::is_same_v<Part, ChainDecl>;

/// `Member` of the `i`-th `Part`, or that whole `Part` when Member is nullptr.
template <class Part, auto Member>
auto& field(auto& spec, std::size_t i) {
  if constexpr (!std::is_null_pointer_v<decltype(Member)>) {
    return field<Part, nullptr>(spec, i).*Member;
  } else if constexpr (std::is_null_pointer_v<decltype(kHome<Part>)>) {
    return spec;
  } else if constexpr (kRepeated<Part>) {
    return (spec.*kHome<Part>)[i];
  } else {
    return spec.*kHome<Part>;
  }
}

template <class Codec, class Part, auto Member = nullptr>
constexpr Io bind() {
  Io io{};
  io.parse = [](const Row& row, const KeyValue& kv, ScenarioSpec& spec, std::size_t i) {
    return Codec::parse(row, kv, field<Part, Member>(spec, i));
  };
  io.print = [](const Row& row, const ScenarioSpec& spec, std::size_t i, std::string& out) {
    if constexpr (requires { Codec::kRepeats; }) {
      Codec::print(row, field<Part, Member>(spec, i), out);
    } else {
      put(out, row.key, Codec::text(field<Part, Member>(spec, i)));
    }
  };
  io.repeats = requires { Codec::kRepeats; };
  if constexpr (kRepeated<Part>) {
    io.instances = [](const ScenarioSpec& spec) { return (spec.*kHome<Part>).size(); };
    io.open = [](ScenarioSpec& spec) { (spec.*kHome<Part>).emplace_back(); };
  }
  return io;
}

template <class C, class T>
C class_of(T C::*);

/// Binds `Codec` to a pointer to member of the spec or of a section struct.
template <class Codec, auto Member>
constexpr Io io() {
  return bind<Codec, decltype(class_of(Member)), Member>();
}

using Kind = Enum<ScenarioKind, kKindNames>;
using Measure = Enum<MeasureMode, kMeasureNames>;
using Arrival = Enum<ArrivalProcess, kArrivalNames>;
using Nfs = List<NfName, NfType>;
using Locations = List<Enum<Location, kLocationNames>, Location>;
template <Range R = kNonNeg>
using Size = Integer<std::size_t, R>;
using NonNeg = Number<kNonNeg>;
using Ms = Number<kMs>;

bool has_description(const ScenarioSpec& s, std::size_t) { return !s.description.empty(); }
bool has_chain(const ScenarioSpec& s, std::size_t) { return !s.chain.empty(); }
bool has_scale_in(const ScenarioSpec& s, std::size_t) {
  return !(s.scale_in.name == "none" && s.scale_in.params.empty());
}
bool pinned(const ScenarioSpec& s, std::size_t i) { return s.chains[i].server >= 0; }
bool own_policy(const ScenarioSpec& s, std::size_t i) { return !s.chains[i].policy.empty(); }
bool arrives_late(const ScenarioSpec& s, std::size_t i) { return s.chains[i].arrive_ms != 0.0; }
bool departs(const ScenarioSpec& s, std::size_t i) { return s.chains[i].depart_ms >= 0.0; }
bool own_rate(const ScenarioSpec& s, std::size_t i) { return s.chains[i].has_rate; }
bool sharded(const ScenarioSpec& s, std::size_t) { return s.cluster.shards > 1; }

constexpr bool kNeedsShards = true;  ///< Row::shard_option

/// The whole `.scn` schema, one row per `(section, key)`.  Parsing, the
/// unknown / duplicate key checks, the kind checks, ranges and to_text() all
/// walk this table.  Rows are grouped by section, in canonical order.
constexpr Row kRows[] = {
    {"scenario", "name", kAll, io<Text, &ScenarioSpec::name>(), nullptr, kAll},
    {"scenario", "kind", kAll, io<Kind, &ScenarioSpec::kind>(), nullptr, kAll},
    {"scenario", "description", kAll, io<Text, &ScenarioSpec::description>(), has_description},
    {"scenario", "note", kAll, io<Each<Text, std::string>, &ScenarioSpec::notes>()},
    {"scenario", "chain", kAll, io<Text, &ScenarioSpec::chain>(), has_chain},
    {"scenario", "plan_rate_gbps", kAll, io<NonNeg, &ScenarioSpec::plan_rate_gbps>()},
    {"scenario", "measure", kAll, io<Measure, &ScenarioSpec::measure>()},
    {"scenario", "duration_ms", kAll, io<Ms, &ScenarioSpec::duration_ms>()},
    {"scenario", "warmup_ms", kAll, io<Ms, &ScenarioSpec::warmup_ms>()},
    {"scenario", "seed", kAll, io<Integer<std::uint64_t>, &ScenarioSpec::seed>()},

    {"traffic", "arrival", kAll, io<Arrival, &TrafficSpec::arrival>()},
    {"traffic", "sizes", kAll, io<Sizes, &TrafficSpec::sizes>()},
    {"traffic", "rate", kTimeline, io<Profile, &TrafficSpec::rate>(), nullptr, kTimeline},

    {"policy", "name", kTimeline | kFleet, io<Policy<false>, &ScenarioSpec::policy>()},
    {"policy", "param.", kTimeline | kFleet, io<Params, &ScenarioSpec::policy>()},
    {"policy", "scale_in", kTimeline, io<Policy<false>, &ScenarioSpec::scale_in>(), has_scale_in},
    {"policy", "scale_in.param.", kTimeline, io<Params, &ScenarioSpec::scale_in>(), has_scale_in},

    {"variant", "label", kCompare, io<Text, &VariantSpec::label>()},
    {"variant", "policy", kCompare, io<Policy<true>, &VariantSpec::policy>()},
    {"variant", "measure_rate", kCompare, io<MeasuredAt, &VariantSpec::measure_rate>()},

    {"capacity", "nfs", kCapacity, io<Nfs, &CapacitySpec::nfs>(), nullptr, kCapacity},
    {"capacity", "locations", kCapacity, io<Locations, &CapacitySpec::locations>()},
    {"capacity", "loss_threshold", kCapacity,
     io<Number<Range{0.0, 1.0}>, &CapacitySpec::loss_threshold>()},
    {"capacity", "search_iters", kCapacity,
     io<Integer<int, Range{1, 64}>, &CapacitySpec::search_iters>()},
    {"capacity", "size_bytes", kCapacity, io<Size<>, &CapacitySpec::size_bytes>()},

    {"controller", "trigger_utilization", kTimeline,
     io<NonNeg, &ClusterSpec::trigger_utilization>()},
    {"controller", "scale_in_below", kTimeline, io<NonNeg, &ClusterSpec::scale_in_below>()},
    {"controller", "period_ms", kTimeline, io<Number<kTickMs>, &ClusterSpec::period_ms>()},
    {"controller", "first_check_ms", kTimeline, io<Ms, &ClusterSpec::first_check_ms>()},
    {"controller", "cooldown_ms", kTimeline, io<Ms, &ClusterSpec::cooldown_ms>()},

    {"chain", "name", kDeployment | kFleet, io<Text, &ChainDecl::name>(), nullptr, kAll},
    {"chain", "spec", kDeployment | kFleet, io<Text, &ChainDecl::spec>(), nullptr, kAll},
    {"chain", "offered_gbps", kDeployment | kFleet, io<NonNeg, &ChainDecl::offered_gbps>()},
    {"chain", "server", kFleet, io<Integer<std::int64_t, Range{0, 1023}>, &ChainDecl::server>(),
     pinned},
    {"chain", "policy", kFleet, io<Policy<true>, &ChainDecl::policy>(), own_policy},
    {"chain", "arrive_ms", kChurn, io<Ms, &ChainDecl::arrive_ms>(), arrives_late},
    {"chain", "depart_ms", kChurn, io<Ms, &ChainDecl::depart_ms>(), departs},
    {"chain", "rate", kChurn, bind<Profile, ChainDecl>(), own_rate},

    {"deployment", "burst_multiplier", kDeployment,
     io<NonNeg, &DeploymentSpec::burst_multiplier>()},
    {"deployment", "scale_out_headroom", kDeployment,
     io<NonNeg, &DeploymentSpec::scale_out_headroom>()},

    {"cluster", "servers", kFleet, io<Size<Range{1, 1024}>, &ClusterSpec::servers>()},
    {"cluster", "rebalance", kFleet, io<OnOff, &ClusterSpec::rebalance>()},
    {"cluster", "inter_server_us", kFleet, io<Number<kUs>, &ClusterSpec::inter_server_us>()},
    {"cluster", "trigger_utilization", kFleet, io<NonNeg, &ClusterSpec::trigger_utilization>()},
    {"cluster", "target_max_load", kFleet, io<NonNeg, &ClusterSpec::target_max_load>()},
    {"cluster", "period_ms", kFleet, io<Number<kTickMs>, &ClusterSpec::period_ms>()},
    {"cluster", "first_check_ms", kFleet, io<Ms, &ClusterSpec::first_check_ms>()},
    {"cluster", "cooldown_ms", kFleet, io<Ms, &ClusterSpec::cooldown_ms>()},
    {"cluster", "shards", kFleet, io<Size<Range{1, 1024}>, &ClusterSpec::shards>(), sharded},
    {"cluster", "threads", kFleet, io<Size<Range{1, 256}>, &ClusterSpec::threads>(), sharded, 0,
     kNeedsShards},
    {"cluster", "cross_rack_us", kFleet, io<Number<kTickUs>, &ClusterSpec::cross_rack_us>(),
     sharded, 0, kNeedsShards},
    {"cluster", "orchestrate", kFleet, io<OnOff, &ClusterSpec::orchestrate>(), sharded, 0,
     kNeedsShards},

    {"failure", "fail", kFailure, io<Each<Failure, FailureEvent>, &ScenarioSpec::failures>(),
     nullptr, kFailure},

    {"link", "fabric", kHostile,
     io<Each<Fabric, LinkTraceSpec::FabricPoint>, &LinkTraceSpec::fabric>()},
    {"link", "fade", kHostile, io<Each<Fade, LinkTraceSpec::SlotFade>, &LinkTraceSpec::fades>()},
};

/// The rows of one section (contiguous in kRows); empty if unknown.
std::span<const Row> rows_of(std::string_view section) {
  const auto first = std::find_if(std::begin(kRows), std::end(kRows),
                                  [&](const Row& row) { return row.section == section; });
  const auto last = std::find_if(first, std::end(kRows),
                                 [&](const Row& row) { return row.section != section; });
  return {first, last};
}

Kinds kinds_of(std::span<const Row> rows) {
  Kinds kinds = 0;
  for (const Row& row : rows) {
    kinds |= row.kinds;
  }
  return kinds;
}

const Row* find_row(std::span<const Row> rows, std::string_view key) {
  const auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& row) {
    return row.key == key ||
           (row.key.back() == '.' && key.size() > row.key.size() && key.starts_with(row.key));
  });
  return it == rows.end() ? nullptr : &*it;
}

/// Parser state: the spec under construction plus everything needed for
/// good error messages and the kind checks.
class SpecParser {
 public:
  SpecParser(std::string_view text, std::string_view origin)
      : text_(text), origin_(origin) {}

  Result<ScenarioSpec> run() {
    if (!lex() || !read_sections() || !validate()) return Error{error_};
    return spec_;
  }

 private:
  static constexpr int kNoLine = 0;

  [[nodiscard]] bool fail(int line, const std::string& msg) {
    const int n = static_cast<int>(origin_.size());
    error_ = line == kNoLine ? format("%.*s: %s", n, origin_.data(), msg.c_str())
                             : format("%.*s:%d: %s", n, origin_.data(), line, msg.c_str());
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

  /// Fails at `line` unless the scenario's kind is one of `kinds`.
  bool allowed(Kinds kinds, int line, const std::string& section,
               const std::string& key = "") {
    if ((kinds & bit(spec_.kind)) != 0) return true;
    const std::string what =
        key.empty() ? "[" + section + "]" : format("[%s] '%s'", section.c_str(), key.c_str());
    return fail(line, what + " is only valid for kind = " + joined(kKindNames, kinds));
  }

  /// Fails for a key the scenario's kind needs but was not given.
  bool missing(const Row& row, int line) {
    const std::string section = "[" + std::string{row.section} + "]";
    const std::string key = "'" + std::string{row.key} + "'";
    return fail(line, row.needed == kAll ? section + " requires a " + key
                                         : "kind = " + kind_name() + " requires " + section +
                                               " " + key);
  }

  bool read_sections() {
    // [scenario] first: the kind it sets gates every other section and key.
    const auto others = std::stable_partition(
        sections_.begin(), sections_.end(), [](const Section& s) { return s.name == "scenario"; });
    if (others == sections_.begin()) return fail(kNoLine, "missing required [scenario] section");
    for (const Section& s : sections_) {
      const std::span<const Row> rows = rows_of(s.name);
      if (rows.empty()) return fail(s.line, format("unknown section [%s]", s.name.c_str()));
      if (!allowed(kinds_of(rows), s.line, s.name)) return false;
      const Io& io = rows.front().io;
      if (io.open != nullptr) {
        io.open(spec_);
      } else if (!seen_sections_.insert(s.name).second) {
        return fail(s.line, format("duplicate [%s] section", s.name.c_str()));
      }
      if (!read_entries(s, rows, io.open != nullptr ? io.instances(spec_) - 1 : 0)) return false;
    }
    // Keys a kind needs from a section that was never given.
    for (const Row& row : kRows) {
      if ((row.needed & bit(spec_.kind)) != 0 && row.io.open == nullptr &&
          !seen_sections_.contains(std::string{row.section})) {
        return missing(row, kNoLine);
      }
    }
    return true;
  }

  bool read_entries(const Section& s, std::span<const Row> rows, std::size_t instance) {
    std::vector<const Row*> matched;  // matched[j] is the row of s.entries[j]
    for (const KeyValue& kv : s.entries) {
      const Row* row = find_row(rows, kv.key);
      if (row == nullptr) {
        return fail(kv.line, format("unknown key '%s' in [%s]", kv.key.c_str(), s.name.c_str()));
      }
      if (!row->io.repeats && std::find(matched.begin(), matched.end(), row) != matched.end()) {
        return fail(kv.line, format("duplicate key '%s' in [%s]", kv.key.c_str(), s.name.c_str()));
      }
      if (!allowed(row->kinds, kv.line, s.name, kv.key)) return false;
      if (row->shard_option && shard_option_ == nullptr) shard_option_ = &kv;
      matched.push_back(row);
    }
    // Parse in table order, so keys may come in any order within a section:
    // a [policy] name replaces the whole policy before its param.* keys add
    // to it.
    for (const Row& row : rows) {
      bool given = false;
      for (std::size_t j = 0; j < matched.size(); ++j) {
        if (matched[j] == &row) {
          given = given || !s.entries[j].value.empty();
          const std::string error = row.io.parse(row, s.entries[j], spec_, instance);
          if (!error.empty()) return fail(s.entries[j].line, error);
        }
      }
      if ((row.needed & bit(spec_.kind)) != 0 && !given) return missing(row, s.line);
    }
    return true;
  }

  std::string kind_name() const { return std::string{to_string(spec_.kind)}; }

  bool check_chain_string(const std::string& chain_spec, const std::string& who) {
    const auto parsed = parse_chain_spec(chain_spec, who);
    return parsed || fail(kNoLine, format("%s: invalid chain spec: %s", who.c_str(),
                                          parsed.error().what().c_str()));
  }

  // The cross-key checks: what no single row of the key table can say.

  bool on_rack(std::size_t server, const std::string& who) {
    return server < spec_.cluster.servers ||
           fail(kNoLine, format("%s: server %zu out of range (cluster has %zu)", who.c_str(),
                                server, spec_.cluster.servers));
  }

  bool validate() {
    const ScenarioKind kind = spec_.kind;
    if (spec_.traffic.sizes.kind == SizeSpec::Kind::kPaperSweep &&
        kind != ScenarioKind::kCompare) {
      // Only compare scenarios fan out one DES run per sweep size; elsewhere
      // a sweep would silently degrade to a single size.
      return fail(kNoLine, "sizes = sweep is only valid for kind = compare");
    }
    if (kind == ScenarioKind::kCompare || kind == ScenarioKind::kTimeline) {
      if (spec_.chain.empty()) {
        return fail(kNoLine, "kind = " + kind_name() + " requires [scenario] 'chain'");
      }
      if (!check_chain_string(spec_.chain, spec_.name)) return false;
    }
    if (kind == ScenarioKind::kCompare && spec_.variants.empty()) {
      return fail(kNoLine, "kind = compare requires at least one [variant]");
    }
    for (auto& v : spec_.variants) {
      if (v.label.empty()) v.label = v.policy.to_string();
    }
    if (kind == ScenarioKind::kCapacity && spec_.capacity.locations.empty()) {
      spec_.capacity.locations = {Location::kSmartNic, Location::kCpu};
    }
    return check_chains() && check_fleet() &&
           (spec_.warmup_ms < spec_.duration_ms ||
            fail(kNoLine, "need duration_ms > warmup_ms >= 0"));
  }

  bool check_chains() {
    const ScenarioKind kind = spec_.kind;
    if ((kind == ScenarioKind::kDeployment || is_fleet_kind(kind)) && spec_.chains.empty()) {
      return fail(kNoLine, "kind = " + kind_name() + " requires at least one [chain]");
    }
    std::unordered_set<std::string_view> chain_names;
    for (const auto& decl : spec_.chains) {
      const char* name = decl.name.c_str();
      if (!chain_names.insert(decl.name).second) {
        return fail(kNoLine, format("duplicate [chain] name '%s'", name));
      }
      if (!check_chain_string(decl.spec, decl.name)) return false;
      if (kind == ScenarioKind::kChurn && decl.arrive_ms >= spec_.duration_ms) {
        return fail(kNoLine, format("chain '%s': arrive_ms must be in [0, duration_ms)", name));
      }
      if (decl.depart_ms >= 0.0 && decl.depart_ms <= decl.arrive_ms) {
        return fail(kNoLine, format("chain '%s': depart_ms must be after arrive_ms", name));
      }
      const auto server = static_cast<std::size_t>(decl.server);
      if (decl.server >= 0 && !on_rack(server, format("chain '%s'", name))) return false;
    }
    return true;
  }

  bool check_fleet() {
    const ScenarioKind kind = spec_.kind;
    const ClusterSpec& cluster = spec_.cluster;
    if (!is_fleet_kind(kind)) return true;
    if (!seen_sections_.contains("cluster")) {
      return fail(kNoLine, "kind = " + kind_name() + " requires a [cluster] section");
    }
    if (cluster.shards == 1 && shard_option_ != nullptr) {
      return fail(shard_option_->line,
                  format("[cluster] '%s' requires shards > 1", shard_option_->key.c_str()));
    }
    if (cluster.servers % cluster.shards != 0) {
      return fail(kNoLine, format("[cluster] servers (%zu) must divide evenly into shards (%zu)",
                                  cluster.servers, cluster.shards));
    }
    if (kind == ScenarioKind::kFailure && !cluster.rebalance) {
      // Without the fleet controller nobody evacuates a dead slot.
      return fail(kNoLine, "kind = failure requires [cluster] rebalance = on");
    }
    for (const auto& event : spec_.failures) {
      if (!on_rack(event.server, "[failure] fail")) return false;
      if (event.at_ms >= spec_.duration_ms) {
        return fail(kNoLine, "[failure] fail: at_ms must be in [0, duration_ms)");
      }
    }
    if (kind == ScenarioKind::kHostile && spec_.link.empty()) {
      return fail(kNoLine,
                  "kind = hostile requires [link] with at least one 'fabric' or 'fade' point");
    }
    for (const auto& fade : spec_.link.fades) {
      if (!on_rack(fade.server, "[link] fade")) return false;
    }
    return true;
  }

  std::string_view text_;
  std::string_view origin_;
  std::vector<Section> sections_;
  std::set<std::string> seen_sections_;  ///< unique sections given
  const KeyValue* shard_option_ = nullptr;  ///< first key that needs shards > 1
  ScenarioSpec spec_;
  std::string error_;
};

}  // namespace

std::string_view to_string(ScenarioKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i] : "?";
}

std::string_view to_string(MeasureMode mode) noexcept {
  const auto i = static_cast<std::size_t>(mode);
  return i < std::size(kMeasureNames) ? kMeasureNames[i] : "?";
}

Result<ScenarioSpec> ScenarioSpec::parse(std::string_view text,
                                         std::string_view origin) {
  return SpecParser{text, origin}.run();
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  const Kinds kind_bit = bit(kind);
  for (const Row* first = std::begin(kRows); first != std::end(kRows);) {
    const std::span<const Row> rows = rows_of(first->section);
    first = rows.data() + rows.size();
    const Io& io = rows.front().io;
    const std::size_t instances =
        io.instances != nullptr ? io.instances(*this) : (kinds_of(rows) & kind_bit) != 0;
    for (std::size_t i = 0; i < instances; ++i) {
      out.append(out.empty() ? "[" : "\n[").append(rows.front().section).append("]\n");
      for (const Row& row : rows) {
        if ((row.kinds & kind_bit) != 0 && (row.when == nullptr || row.when(*this, i))) {
          row.io.print(row, *this, i, out);
        }
      }
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
