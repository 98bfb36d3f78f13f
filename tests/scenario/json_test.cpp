#include "polaris/scenario/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "polaris/support/check.hpp"

namespace polaris::scenario {
namespace {

TEST(ScenarioJson, ParsesScalarsAndContainers) {
  const Json v = Json::parse(
      R"({"a": 1.5, "b": "text", "c": true, "d": null, "e": [1, 2, 3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").num(), 1.5);
  EXPECT_EQ(v.at("b").str(), "text");
  EXPECT_TRUE(v.at("c").boolean());
  EXPECT_TRUE(v.at("d").is_null());
  ASSERT_EQ(v.at("e").items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("e").items()[2].num(), 3.0);
}

TEST(ScenarioJson, ParsesNestedSpecShapedDocuments) {
  const Json v = Json::parse(R"({
    "harness": {"kind": "serve", "shards": 4},
    "tree": {"seq": [{"wait": 0.01}, {"assert": "dropped == 0"}]}
  })");
  EXPECT_EQ(v.at("harness").str_or("kind", ""), "serve");
  EXPECT_DOUBLE_EQ(v.at("harness").num_or("shards", 0.0), 4.0);
  const auto& seq = v.at("tree").at("seq").items();
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_DOUBLE_EQ(seq[0].at("wait").num(), 0.01);
  EXPECT_EQ(seq[1].at("assert").str(), "dropped == 0");
}

TEST(ScenarioJson, HandlesEscapesAndUnicode) {
  const Json v = Json::parse(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(v.at("s").str(), "a\"b\\c\ndA");
}

TEST(ScenarioJson, DumpIsDeterministicAndRoundTrips) {
  const char* text =
      R"({"name": "x", "nums": [1, 2.5, -3e-2], "inner": {"k": false}})";
  const Json v = Json::parse(text);
  const std::string once = v.dump();
  // Same value -> same bytes (member order is preserved, numbers are
  // %.17g): dump is usable as a fingerprint input.
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(ScenarioJson, PreservesMemberOrder) {
  const Json v = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = v.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(ScenarioJson, BuildersProduceParseableDocuments) {
  Json obj = Json::object();
  obj.set("rate", Json::number(1000.0));
  obj.set("kind", Json::string("serve"));
  Json arr = Json::array();
  arr.push(Json::number(1.0));
  arr.push(Json::boolean(true));
  obj.set("list", std::move(arr));
  obj.set("rate", Json::number(2000.0));  // insert-or-replace
  const Json back = Json::parse(obj.dump());
  EXPECT_DOUBLE_EQ(back.at("rate").num(), 2000.0);
  EXPECT_EQ(back.at("kind").str(), "serve");
  EXPECT_TRUE(back.at("list").items()[1].boolean());
}

TEST(ScenarioJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), support::ContractViolation);
  EXPECT_THROW(Json::parse(R"({"a": })"), support::ContractViolation);
  EXPECT_THROW(Json::parse("[1, 2,]"), support::ContractViolation);
  EXPECT_THROW(Json::parse("tru"), support::ContractViolation);
  EXPECT_THROW(Json::parse(R"({"a": 1} trailing)"),
               support::ContractViolation);
}

TEST(ScenarioJson, ReadsNoByteOutsideTheView) {
  // A view ending inside a number: the digits after it are not the
  // document's, so the number is 12 and nothing trails it.
  const std::string buf = "12345";
  EXPECT_DOUBLE_EQ(Json::parse(std::string_view(buf).substr(0, 2)).num(),
                   12.0);
}

TEST(ScenarioJson, TypeMismatchesFailLoudly) {
  const Json v = Json::parse(R"({"a": 1})");
  EXPECT_THROW(v.at("a").str(), support::ContractViolation);
  EXPECT_THROW(v.at("missing"), support::ContractViolation);
  EXPECT_THROW(v.at("a").items(), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::scenario
