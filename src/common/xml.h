#pragma once
// Minimal XML document model.
//
// BOINC's wire and on-disk formats are plain XML: scheduler RPC bodies
// here, and the simulator's scenario files and database snapshots. This is
// a small, strict-enough reader/writer for that dialect:
// elements, attributes, text content, comments; no namespaces, DTDs, or
// processing instructions.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace vcmr::common {

/// An element node; text content is the concatenation of its text children.
class XmlNode {
 public:
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// 1-based source line of the element's open tag when the node came from
  /// xml_parse(); 0 for programmatically built nodes.
  int line() const { return line_; }
  void set_line(int line) { line_ = line; }

  /// Element text with surrounding whitespace trimmed.
  std::string text() const;
  void set_text(std::string text) { text_ = std::move(text); }

  void set_attr(const std::string& key, std::string value);
  /// Returns nullptr-like empty string when absent.
  const std::string* attr(const std::string& key) const;

  XmlNode& add_child(std::string name);
  /// Convenience: add `<name>value</name>`.
  XmlNode& add_child_text(std::string name, std::string value);
  /// Takes ownership of an already-built subtree.
  void adopt(std::unique_ptr<XmlNode> child);

  /// First child with the given name, or nullptr.
  const XmlNode* child(std::string_view name) const;
  XmlNode* child(std::string_view name);
  std::vector<const XmlNode*> children(std::string_view name) const;
  const std::vector<std::unique_ptr<XmlNode>>& all_children() const {
    return children_;
  }

  /// Typed accessors over a child's text; return fallback when the child is
  /// absent. child_i64 and child_double throw vcmr::Error naming the child
  /// and its line when its text is present but does not parse (an empty
  /// element included).
  std::string child_text(std::string_view name, std::string fallback = "") const;
  std::int64_t child_i64(std::string_view name, std::int64_t fallback = 0) const;
  double child_double(std::string_view name, double fallback = 0.0) const;
  bool has_child(std::string_view name) const { return child(name) != nullptr; }

  /// Serialize with 2-space indentation.
  std::string to_string(int indent = 0) const;

 private:
  std::string name_;
  int line_ = 0;
  std::string text_;
  std::map<std::string, std::string> attrs_;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// Parses a document; throws vcmr::Error on malformed input.
/// Returns the root element.
std::unique_ptr<XmlNode> xml_parse(std::string_view input);

/// The entity that stands for `c` in text and attribute values, or an
/// empty view when `c` is written as is.
constexpr std::string_view xml_entity(char c) {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return "&quot;";
    case '\'': return "&apos;";
    default: return {};
  }
}

/// Escapes &, <, >, ", ' for text/attribute contexts.
std::string xml_escape(std::string_view s);

}  // namespace vcmr::common
