// pamctl — command-line front end for chain analysis and migration planning.
//
//   pamctl [--chain "<spec>"] [--rate <gbps>] [--policy pam|naive|mincap|scalein]
//          [--size <bytes>] [--simulate <ms>]
//
// With no arguments it analyses the paper's Figure-1 chain at the overload
// rate under every policy.  Examples:
//
//   pamctl --chain "wire | S:Firewall S:DPI C:NAT | host" --rate 1.3
//   pamctl --policy pam --simulate 100

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain_builder.hpp"
#include "chain/chain_spec.hpp"
#include "chain/latency_breakdown.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "core/scale_in_policy.hpp"
#include "sim/datacenter_simulator.hpp"

namespace {

using namespace pam;

std::unique_ptr<MigrationPolicy> make_policy(const std::string& name) {
  if (name == "pam") return std::make_unique<PamPolicy>();
  if (name == "naive") return std::make_unique<NaiveBottleneckPolicy>();
  if (name == "mincap") return std::make_unique<NaiveMinCapacityPolicy>();
  if (name == "scalein") return std::make_unique<ScaleInPolicy>();
  if (name == "none") return std::make_unique<NoMigrationPolicy>();
  return nullptr;
}

void analyse(const ServiceChain& chain, Gbps rate, MigrationPolicy& policy,
             Bytes probe_size, SimTime simulate) {
  Server server = Server::paper_testbed();
  const ChainAnalyzer analyzer{server};

  std::printf("chain:  %s\n", chain.describe().c_str());
  std::printf("rate:   %s | crossings %u | %s\n", rate.to_string().c_str(),
              chain.pcie_crossings(),
              analyzer.utilization(chain, rate).describe().c_str());

  const MigrationPlan plan = policy.plan(chain, analyzer, rate);
  std::printf("\n[%s]\n%s\n", plan.policy_name.c_str(), plan.describe().c_str());
  for (const auto& line : plan.trace) {
    std::printf("  trace | %s\n", line.c_str());
  }
  const ServiceChain after = plan.feasible ? plan.apply_to(chain) : chain;
  if (plan.feasible && !plan.empty()) {
    std::printf("\nafter:  %s\n", after.describe().c_str());
    std::printf("        crossings %u | %s\n", after.pcie_crossings(),
                analyzer.utilization(after, rate).describe().c_str());
  }

  std::printf("\nlatency breakdown @%llu B (after plan):\n%s",
              static_cast<unsigned long long>(probe_size.value()),
              breakdown_latency(after, server, probe_size).render().c_str());
  std::printf("max sustainable: %s\n",
              analyzer.max_sustainable_rate(after).to_string().c_str());

  if (simulate.ns() > 0) {
    TrafficSourceConfig cfg;
    cfg.rate = RateProfile::constant(rate);
    cfg.sizes = PacketSizeDistribution::imix();
    cfg.process = ArrivalProcess::kPoisson;
    DatacenterSimulator dc{DatacenterSimulator::Options{}};  // one rack, one slot
    dc.add_chain(after, cfg, 0);
    dc.run(simulate, simulate * 0.15, /*threads=*/1);
    const SimReport report = dc.chain_sim(0).build_report();
    std::printf("\nsimulated %s:\n%s\n", simulate.to_string().c_str(),
                report.summary().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec;
  std::string policy_name = "";
  double rate_gbps = paper_overload_rate().value();
  std::size_t probe = 512;
  double simulate_ms = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--chain") {
      const char* v = next();
      if (!v) { std::fprintf(stderr, "--chain needs a spec\n"); return 2; }
      spec = v;
    } else if (arg == "--rate") {
      const char* v = next();
      if (!v) { std::fprintf(stderr, "--rate needs Gbps\n"); return 2; }
      rate_gbps = std::atof(v);
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) { std::fprintf(stderr, "--policy needs a name\n"); return 2; }
      policy_name = v;
    } else if (arg == "--size") {
      const char* v = next();
      if (!v) { std::fprintf(stderr, "--size needs bytes\n"); return 2; }
      probe = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--simulate") {
      const char* v = next();
      if (!v) { std::fprintf(stderr, "--simulate needs ms\n"); return 2; }
      simulate_ms = std::atof(v);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: pamctl [--chain \"<spec>\"] [--rate <gbps>] "
                  "[--policy pam|naive|mincap|scalein|none] [--size <bytes>] "
                  "[--simulate <ms>]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  ServiceChain chain = paper_figure1_chain();
  if (!spec.empty()) {
    auto parsed = parse_chain_spec(spec);
    if (!parsed) {
      std::fprintf(stderr, "bad chain spec: %s\n", parsed.error().what().c_str());
      return 1;
    }
    chain = std::move(parsed).value();
  }
  const Gbps rate{rate_gbps};
  const SimTime simulate = SimTime::milliseconds(simulate_ms);

  if (!policy_name.empty()) {
    auto policy = make_policy(policy_name);
    if (!policy) {
      std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
      return 2;
    }
    analyse(chain, rate, *policy, Bytes{probe}, simulate);
    return 0;
  }
  // Default: compare all forward policies.
  for (const char* name : {"none", "naive", "mincap", "pam"}) {
    std::printf("================ policy: %s ================\n", name);
    analyse(chain, rate, *make_policy(name), Bytes{probe}, simulate);
    std::printf("\n");
  }
  return 0;
}
