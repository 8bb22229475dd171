#include "workloads.hpp"

#include <cstdio>

namespace perfbench {
namespace {

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

std::string scenario_header(std::string_view name, std::string_view kind,
                            std::uint64_t seed, double duration_ms,
                            double warmup_ms) {
  std::string s;
  s += "[scenario]\nname = ";
  s += name;
  s += "\nkind = ";
  s += kind;
  s += "\nduration_ms = " + format_ms(duration_ms);
  s += "\nwarmup_ms = " + format_ms(warmup_ms);
  s += "\nseed = " + std::to_string(seed) + "\n";
  return s;
}

std::string chain_decl(std::string_view name, std::string_view spec,
                       double offered_gbps, int server) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\n[chain]\nname = %.*s\nspec = %.*s\noffered_gbps = %g\nserver = %d\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(spec.size()), spec.data(), offered_gbps, server);
  return buf;
}

// The fig2-latency shape: one standalone chain, CBR, the 64-1500 B sweep,
// Original / Naive / PAM.  The 80 ms preset horizon is cut to 12 ms so one
// run takes about a second and a measured window holds many runs.
std::string chain_sweep(std::uint64_t seed, bool setup) {
  std::string s = scenario_header("chain-sweep", "compare", seed,
                                  setup ? 0.001 : 12.0, setup ? 0.0 : 2.0);
  s += "chain = wire | S:Firewall S:Monitor S:Logger@0.5 C:LoadBalancer | host\n"
       "plan_rate_gbps = 2.2\n"
       "measure = des\n"
       "\n[traffic]\narrival = cbr\nsizes = sweep\n"
       "\n[variant]\nlabel = Original @ baseline\npolicy = none\nmeasure_rate = 1.2\n"
       "\n[variant]\nlabel = Naive\npolicy = naive\nmeasure_rate = plan\n"
       "\n[variant]\nlabel = PAM\npolicy = pam\nmeasure_rate = plan\n";
  return s;
}

// The cluster-datacenter shape at 2 worker threads: 1024 servers in 64
// racks, rack 0 saturated on every slot, 8 background chains elsewhere.
std::string datacenter_lease(std::uint64_t seed, bool setup) {
  std::string s = scenario_header("datacenter-lease", "cluster", seed,
                                  setup ? 0.001 : 40.0, setup ? 0.0 : 10.0);
  char name[16];
  for (int i = 0; i < 16; ++i) {
    std::snprintf(name, sizeof name, "hot-%02d", i);
    s += chain_decl(name, "wire | S:Firewall S:Monitor C:DPI | host", 2.8, i);
  }
  for (int i = 1; i <= 8; ++i) {
    std::snprintf(name, sizeof name, "bg-%02d", i);
    s += chain_decl(name, "wire | S:Firewall S:LoadBalancer | host", 0.6, 17 * i - 1);
  }
  s += "\n[traffic]\narrival = cbr\nsizes = fixed 512\n"
       "\n[cluster]\nservers = 1024\nrebalance = on\ninter_server_us = 50\n"
       "trigger_utilization = 1\ntarget_max_load = 0.95\nperiod_ms = 10\n"
       "first_check_ms = 10\ncooldown_ms = 20\nshards = 64\nthreads = 2\n"
       "cross_rack_us = 100\norchestrate = on\n";
  return s;
}

// The churn-diurnal-flashcrowd shape: two servers on one kernel, Poisson
// arrivals, sinusoid and flash-crowd tenants plus a popup tenant.  The
// 70 ms preset runs in about 0.2 s, so the horizon is stretched to 420 ms;
// the flash crowd still forces one live push-aside migration.  The popup
// tenant arrives at 20 ms, so no accepted horizon is shorter than that.
std::string fleet_churn(std::uint64_t seed, bool setup) {
  std::string s = scenario_header("fleet-churn", "churn", seed,
                                  setup ? 20.001 : 420.0, setup ? 0.0 : 5.0);
  s += "\n[traffic]\narrival = poisson\nsizes = fixed 512\n"
       "\n[policy]\nname = pam\n";
  s += chain_decl("diurnal", "wire | S:Firewall S:Monitor | host", 1.2, 0);
  s += "rate = sinusoid 1.2 0.8 period_ms=40\n";
  s += chain_decl("flash", "wire | S:Firewall S:DPI | host", 0.8, 1);
  s += "rate = flash 0.8 2.6 at_ms=30 for_ms=10\n";
  s += chain_decl("popup", "wire | S:LoadBalancer | wire", 1.0, 0);
  s += "arrive_ms = 20\ndepart_ms = 55\n";
  s += "\n[cluster]\nservers = 2\nrebalance = on\ninter_server_us = 50\n"
       "trigger_utilization = 0.95\ntarget_max_load = 0.9\nperiod_ms = 5\n"
       "first_check_ms = 5\ncooldown_ms = 10\n";
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"chain-sweep",
       "per-packet datapath of one chain over the 64-1500 B sweep; no controller, no fabric",
       2018, &chain_sweep},
      {"datacenter-lease",
       "1024 servers in 64 shards at 2 threads: setup, memory, epoch barrier, fabric and leases",
       11, &datacenter_lease},
      {"fleet-churn",
       "Poisson tenants with rate profiles on one kernel: control loop, live migration, ingress estimator",
       23, &fleet_churn},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
