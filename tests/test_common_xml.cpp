// Tests for the minimal XML reader/writer used by templates and RPCs.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/xml.h"

namespace vcmr::common {
namespace {

TEST(Xml, ParseSimpleElement) {
  const auto root = xml_parse("<a>hello</a>");
  EXPECT_EQ(root->name(), "a");
  EXPECT_EQ(root->text(), "hello");
}

TEST(Xml, ParseNested) {
  const auto root = xml_parse("<wu><name>job1</name><n>42</n></wu>");
  ASSERT_NE(root->child("name"), nullptr);
  EXPECT_EQ(root->child_text("name"), "job1");
  EXPECT_EQ(root->child_i64("n"), 42);
}

TEST(Xml, ParseAttributes) {
  const auto root = xml_parse("<f name=\"x\" size='10'/>");
  ASSERT_NE(root->attr("name"), nullptr);
  EXPECT_EQ(*root->attr("name"), "x");
  EXPECT_EQ(*root->attr("size"), "10");
  EXPECT_EQ(root->attr("missing"), nullptr);
}

TEST(Xml, SelfClosing) {
  const auto root = xml_parse("<a><b/><c/></a>");
  EXPECT_NE(root->child("b"), nullptr);
  EXPECT_NE(root->child("c"), nullptr);
  EXPECT_TRUE(root->child("b")->text().empty());
}

TEST(Xml, RepeatedChildren) {
  const auto root = xml_parse("<l><i>1</i><i>2</i><i>3</i></l>");
  const auto items = root->children("i");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0]->text(), "1");
  EXPECT_EQ(items[2]->text(), "3");
}

TEST(Xml, CommentsAndDeclarationSkipped) {
  const auto root = xml_parse(
      "<?xml version=\"1.0\"?>\n<!-- header -->\n<a><!-- inner -->x</a>");
  EXPECT_EQ(root->name(), "a");
  EXPECT_EQ(root->text(), "x");
}

TEST(Xml, EntitiesUnescaped) {
  const auto root = xml_parse("<a>&lt;b&gt; &amp; &quot;q&quot; &apos;s&apos;</a>");
  EXPECT_EQ(root->text(), "<b> & \"q\" 's'");
}

TEST(Xml, EscapeRoundTrip) {
  XmlNode n("t");
  n.set_text("a<b & \"c\" 'd'>");
  n.set_attr("k", "v<&>");
  const auto parsed = xml_parse(n.to_string());
  EXPECT_EQ(parsed->text(), "a<b & \"c\" 'd'>");
  EXPECT_EQ(*parsed->attr("k"), "v<&>");
}

TEST(Xml, BuildAndReparse) {
  XmlNode root("workunit");
  root.add_child_text("name", "job_map_0");
  XmlNode& fi = root.add_child("file_info");
  fi.add_child_text("name", "input0");
  fi.add_child_text("nbytes", "50000000");
  const auto parsed = xml_parse(root.to_string());
  EXPECT_EQ(parsed->child_text("name"), "job_map_0");
  ASSERT_NE(parsed->child("file_info"), nullptr);
  EXPECT_EQ(parsed->child("file_info")->child_i64("nbytes"), 50000000);
}

TEST(Xml, TypedAccessorFallbacks) {
  // A present but malformed number is an error naming the element and its
  // line; only an absent element falls back.
  const auto root = xml_parse("<a>\n<n>notanumber</n><e/></a>");
  try {
    root->child_i64("n", -7);
    ADD_FAILURE() << "malformed integer fell back";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "xml line 2: <n> is not an integer: \"notanumber\"");
  }
  EXPECT_THROW(root->child_double("n", 2.5), Error);
  EXPECT_THROW(root->child_i64("e", 3), Error);  // empty text
  EXPECT_EQ(root->child_i64("missing", 3), 3);
  EXPECT_DOUBLE_EQ(root->child_double("missing", 2.5), 2.5);
  EXPECT_EQ(root->child_text("missing", "dflt"), "dflt");
}

TEST(Xml, MismatchedCloseTagThrows) {
  EXPECT_THROW(xml_parse("<a><b></a></b>"), Error);
}

TEST(Xml, UnterminatedThrows) {
  EXPECT_THROW(xml_parse("<a><b>"), Error);
  EXPECT_THROW(xml_parse("<a attr=\"x></a>"), Error);
  EXPECT_THROW(xml_parse("<!-- unterminated"), Error);
}

TEST(Xml, TrailingGarbageThrows) {
  EXPECT_THROW(xml_parse("<a/><b/>"), Error);
  EXPECT_THROW(xml_parse("<a/>junk"), Error);
}

TEST(Xml, WhitespaceTrimmedFromText) {
  const auto root = xml_parse("<a>\n   padded   \n</a>");
  EXPECT_EQ(root->text(), "padded");
}

TEST(Xml, DeepNestingRoundTrip) {
  XmlNode root("l0");
  XmlNode* cur = &root;
  for (int i = 1; i < 20; ++i) {
    cur = &cur->add_child("l" + std::to_string(i));
  }
  cur->set_text("deep");
  const auto parsed = xml_parse(root.to_string());
  const XmlNode* walk = parsed.get();
  for (int i = 1; i < 20; ++i) {
    walk = walk->child("l" + std::to_string(i));
    ASSERT_NE(walk, nullptr);
  }
  EXPECT_EQ(walk->text(), "deep");
}

TEST(Xml, LenientLoneAmpersand) {
  const auto root = xml_parse("<a>AT&T</a>");
  EXPECT_EQ(root->text(), "AT&T");
}

}  // namespace
}  // namespace vcmr::common
