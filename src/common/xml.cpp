#include "common/xml.h"

#include "common/error.h"
#include "common/strings.h"

namespace vcmr::common {

std::string XmlNode::text() const { return std::string(trim(text_)); }

void XmlNode::set_attr(const std::string& key, std::string value) {
  attrs_[key] = std::move(value);
}

const std::string* XmlNode::attr(const std::string& key) const {
  const auto it = attrs_.find(key);
  return it == attrs_.end() ? nullptr : &it->second;
}

XmlNode& XmlNode::add_child(std::string name) {
  children_.push_back(std::make_unique<XmlNode>(std::move(name)));
  return *children_.back();
}

XmlNode& XmlNode::add_child_text(std::string name, std::string value) {
  XmlNode& n = add_child(std::move(name));
  n.set_text(std::move(value));
  return n;
}

void XmlNode::adopt(std::unique_ptr<XmlNode> child) {
  children_.push_back(std::move(child));
}

const XmlNode* XmlNode::child(std::string_view name) const {
  for (const auto& c : children_)
    if (c->name() == name) return c.get();
  return nullptr;
}

XmlNode* XmlNode::child(std::string_view name) {
  for (auto& c : children_)
    if (c->name() == name) return c.get();
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children(std::string_view name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_)
    if (c->name() == name) out.push_back(c.get());
  return out;
}

std::string XmlNode::child_text(std::string_view name, std::string fallback) const {
  const XmlNode* c = child(name);
  return c ? c->text() : fallback;
}

namespace {
[[noreturn]] void not_a(const XmlNode& c, const char* what) {
  throw Error(strprintf("xml line %d: <%s> is not %s: \"%s\"", c.line(),
                        c.name().c_str(), what, c.text().c_str()));
}
}  // namespace

std::int64_t XmlNode::child_i64(std::string_view name, std::int64_t fallback) const {
  const XmlNode* c = child(name);
  if (!c) return fallback;
  std::int64_t v = 0;
  if (!parse_i64(c->text(), &v)) not_a(*c, "an integer");
  return v;
}

double XmlNode::child_double(std::string_view name, double fallback) const {
  const XmlNode* c = child(name);
  if (!c) return fallback;
  double v = 0;
  if (!parse_double(c->text(), &v)) not_a(*c, "a number");
  return v;
}

std::string xml_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const std::string_view entity = xml_entity(c);
    if (entity.empty()) {
      out += c;
    } else {
      out += entity;
    }
  }
  return out;
}

std::string XmlNode::to_string(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name_;
  for (const auto& [k, v] : attrs_) out += " " + k + "=\"" + xml_escape(v) + "\"";
  const std::string body = text();
  if (children_.empty() && body.empty()) return out + "/>\n";
  out += ">";
  if (children_.empty()) {
    return out + xml_escape(body) + "</" + name_ + ">\n";
  }
  out += "\n";
  if (!body.empty()) out += pad + "  " + xml_escape(body) + "\n";
  for (const auto& c : children_) out += c->to_string(indent + 1);
  out += pad + "</" + name_ + ">\n";
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  std::unique_ptr<XmlNode> parse() {
    skip_misc();
    auto root = parse_element();
    skip_misc();
    if (pos_ != in_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("xml parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return eof() ? '\0' : in_[pos_]; }
  char get() {
    if (eof()) fail("unexpected end of input");
    return in_[pos_++];
  }
  bool consume(std::string_view s) {
    if (in_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }
  /// Skips whitespace, comments, and the <?xml ...?> declaration.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (consume("<!--")) {
        const auto end = in_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (consume("<?")) {
        const auto end = in_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
           c == '.' || c == ':';
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(in_[pos_])) ++pos_;
    if (pos_ == start) fail("expected name");
    return std::string(in_.substr(start, pos_ - start));
  }

  std::string unescape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '&') {
        out += s[i];
        continue;
      }
      const auto rest = s.substr(i);
      auto take = [&](std::string_view ent, char c) {
        if (rest.substr(0, ent.size()) == ent) {
          out += c;
          i += ent.size() - 1;
          return true;
        }
        return false;
      };
      if (take("&amp;", '&') || take("&lt;", '<') || take("&gt;", '>') ||
          take("&quot;", '"') || take("&apos;", '\'')) {
        continue;
      }
      out += '&';  // lone ampersand; be lenient like BOINC's parser
    }
    return out;
  }

  /// 1-based line of the current position. pos_ only moves forward, so the
  /// newline count is maintained incrementally (amortized O(input size)).
  int current_line() {
    for (; counted_pos_ < pos_; ++counted_pos_)
      if (in_[counted_pos_] == '\n') ++line_;
    return line_;
  }

  std::unique_ptr<XmlNode> parse_element() {
    if (!consume("<")) fail("expected '<'");
    const int open_line = current_line();
    auto node = std::make_unique<XmlNode>(parse_name());
    node->set_line(open_line);
    // attributes
    for (;;) {
      skip_ws();
      if (consume("/>")) return node;
      if (consume(">")) break;
      const std::string key = parse_name();
      skip_ws();
      if (!consume("=")) fail("expected '=' in attribute");
      skip_ws();
      const char quote = get();
      if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
      const auto end = in_.find(quote, pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      node->set_attr(key, unescape(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }
    // content
    std::string text;
    for (;;) {
      if (eof()) fail("unterminated element <" + node->name() + ">");
      if (peek() == '<') {
        if (consume("<!--")) {
          const auto end = in_.find("-->", pos_);
          if (end == std::string_view::npos) fail("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (in_.substr(pos_, 2) == "</") {
          pos_ += 2;
          const std::string name = parse_name();
          if (name != node->name())
            fail("mismatched close tag </" + name + "> for <" + node->name() + ">");
          skip_ws();
          if (!consume(">")) fail("expected '>' after close tag");
          node->set_text(unescape(text));
          return node;
        }
        node->adopt(parse_element());
        continue;
      }
      text += get();
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::size_t counted_pos_ = 0;
  int line_ = 1;
};

}  // namespace

std::unique_ptr<XmlNode> xml_parse(std::string_view input) {
  return Parser(input).parse();
}

}  // namespace vcmr::common
