// PolicyRegistry tests: the built-in table, strict unknown-name/parameter
// handling, parameterised factories, and PolicyConfig's inline text form.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "control/policy_registry.hpp"
#include "core/pam_policy.hpp"

namespace pam {
namespace {

TEST(PolicyRegistry, BuiltInsAreRegistered) {
  // Exactly the built-in table, sorted — the CLI and error messages rely on
  // a stable order.
  EXPECT_EQ(PolicyRegistry::instance().names(),
            (std::vector<std::string>{"naive", "naive-min", "none", "pam", "scale-in"}));
  EXPECT_EQ(PolicyRegistry::instance().names_joined(),
            "naive, naive-min, none, pam, scale-in");
}

TEST(PolicyRegistry, UnknownNameErrorListsRegisteredPolicies) {
  auto created = PolicyRegistry::instance().create(PolicyConfig{"magic", {}});
  ASSERT_FALSE(created.has_value());
  EXPECT_NE(created.error().what().find("unknown policy 'magic'"),
            std::string::npos);
  EXPECT_NE(created.error().what().find("pam"), std::string::npos);
}

TEST(PolicyRegistry, UnknownParameterErrorListsAcceptedKeys) {
  auto created = PolicyRegistry::instance().create(
      PolicyConfig{"pam", {{"frobnicate", 1.0}}});
  ASSERT_FALSE(created.has_value());
  EXPECT_NE(created.error().what().find("unknown parameter 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(created.error().what().find("utilization_limit"), std::string::npos);

  auto none = PolicyRegistry::instance().create(
      PolicyConfig{"none", {{"anything", 1.0}}});
  ASSERT_FALSE(none.has_value());
  EXPECT_NE(none.error().what().find("takes no parameters"), std::string::npos);
}

TEST(PolicyRegistry, OutOfRangeParameterValuesAreRejected) {
  // A negative count must never reach the factory's size_t cast.
  for (const char* bad : {"pam:max_migrations=-1", "pam:utilization_limit=nan",
                          "scale-in:smartnic_ceiling=-0.5",
                          "scale-in:smartnic_ceiling=1.5",
                          "pam:utilization_limit=1000",
                          "pam:max_migrations=1e9"}) {
    const auto config = PolicyConfig::parse(bad);
    ASSERT_TRUE(config.has_value()) << bad;
    auto created = PolicyRegistry::instance().create(config.value());
    ASSERT_FALSE(created.has_value()) << bad;
    EXPECT_NE(created.error().what().find("out of range"), std::string::npos)
        << created.error().what();
  }
}

TEST(PolicyRegistry, FactoriesApplyParameters) {
  auto pam = PolicyRegistry::instance().create(
      PolicyConfig{"pam", {{"utilization_limit", 0.6}, {"max_migrations", 8.0}}});
  ASSERT_TRUE(pam.has_value()) << pam.error().what();
  const auto* pam_policy = dynamic_cast<const PamPolicy*>(pam.value().get());
  ASSERT_NE(pam_policy, nullptr);
  EXPECT_DOUBLE_EQ(pam_policy->options().utilization_limit, 0.6);
  EXPECT_EQ(pam_policy->options().max_migrations, 8u);

  // Defaults apply when a parameter is omitted.
  auto plain = PolicyRegistry::instance().create(PolicyConfig{"pam", {}});
  ASSERT_TRUE(plain.has_value());
  const auto* plain_policy = dynamic_cast<const PamPolicy*>(plain.value().get());
  ASSERT_NE(plain_policy, nullptr);
  EXPECT_DOUBLE_EQ(plain_policy->options().utilization_limit, 1.0);

  auto scale_in = PolicyRegistry::instance().create(
      PolicyConfig{"scale-in", {{"smartnic_ceiling", 0.55}}});
  ASSERT_TRUE(scale_in.has_value());
  EXPECT_EQ(scale_in.value()->name(), "PAM-ScaleIn");
}

TEST(PolicyRegistry, EveryBuiltInConstructsWithDefaults) {
  for (const auto& name : PolicyRegistry::instance().names()) {
    auto created = PolicyRegistry::instance().create(PolicyConfig{name, {}});
    ASSERT_TRUE(created.has_value()) << name << ": " << created.error().what();
    EXPECT_FALSE(created.value()->name().empty());
  }
}

TEST(PolicyConfig, InlineFormRoundTrips) {
  const auto parsed =
      PolicyConfig::parse("pam:utilization_limit=0.9,max_migrations=32");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().what();
  EXPECT_EQ(parsed.value().name, "pam");
  ASSERT_EQ(parsed.value().params.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.value().get("utilization_limit", -1.0), 0.9);
  EXPECT_DOUBLE_EQ(parsed.value().get("max_migrations", -1.0), 32.0);
  EXPECT_EQ(parsed.value().to_string(),
            "pam:utilization_limit=0.9,max_migrations=32");
  const auto reparsed = PolicyConfig::parse(parsed.value().to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(parsed.value(), reparsed.value());

  // Whitespace-tolerant; bare names stay bare.
  const auto spaced = PolicyConfig::parse("  naive : utilization_limit = 0.8 ");
  ASSERT_TRUE(spaced.has_value()) << spaced.error().what();
  EXPECT_EQ(spaced.value().to_string(), "naive:utilization_limit=0.8");
  EXPECT_EQ(PolicyConfig::parse("none").value().to_string(), "none");
}

TEST(PolicyConfig, InlineFormRejectsMalformedInput) {
  EXPECT_FALSE(PolicyConfig::parse("").has_value());
  EXPECT_FALSE(PolicyConfig::parse(":k=1").has_value());
  EXPECT_FALSE(PolicyConfig::parse("pam:novalue").has_value());
  EXPECT_FALSE(PolicyConfig::parse("pam:k=abc").has_value());
  EXPECT_FALSE(PolicyConfig::parse("pam:=1").has_value());
  // A colon promises parameters; trailing/stray commas drop nothing silently.
  EXPECT_FALSE(PolicyConfig::parse("pam:").has_value());
  EXPECT_FALSE(PolicyConfig::parse("pam:k=1,").has_value());
  EXPECT_FALSE(PolicyConfig::parse("pam:k=1,,j=2").has_value());
  auto dup = PolicyConfig::parse("pam:k=1,k=2");
  ASSERT_FALSE(dup.has_value());
  EXPECT_NE(dup.error().what().find("duplicate parameter"), std::string::npos);
}

}  // namespace
}  // namespace pam
