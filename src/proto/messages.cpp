#include "proto/messages.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"
#include "common/xml.h"

namespace vcmr::proto {

using common::XmlNode;

namespace {

// --- the one emitter ---------------------------------------------------------
//
// Prints the dialect XmlNode::to_string() writes for a tree: two spaces of
// indent per level, one element per line, leaf text trimmed and escaped,
// `<name/>` for an element with neither text nor children. The sink decides
// whether the bytes are kept (to_xml) or only counted (wire_size).

struct StringSink {
  std::string out;
  void put(std::string_view s) { out.append(s); }
};

struct CountingSink {
  Bytes n = 0;
  void put(std::string_view s) { n += static_cast<Bytes>(s.size()); }
};

template <class Sink>
class Emitter {
 public:
  Sink& sink() { return sink_; }

  /// Starts an element. Its start tag is finished by the first child, or
  /// turned into `<name/>` by close() when none comes.
  void open(std::string_view name) {
    start_line();
    sink_.put("<");
    sink_.put(name);
    open_ = true;
    ++depth_;
  }
  void close(std::string_view name) {
    --depth_;
    if (open_) {
      sink_.put("/>\n");
      open_ = false;
      return;
    }
    pad();
    sink_.put("</");
    sink_.put(name);
    sink_.put(">\n");
  }

  /// A leaf element holding `value`.
  void text(std::string_view name, std::string_view value) {
    start_line();
    sink_.put("<");
    sink_.put(name);
    value = common::trim(value);
    if (value.empty()) {
      sink_.put("/>\n");
      return;
    }
    sink_.put(">");
    put_escaped(value);
    sink_.put("</");
    sink_.put(name);
    sink_.put(">\n");
  }
  void i64(std::string_view name, std::int64_t v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    text(name, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  void flag(std::string_view name, bool v) { text(name, v ? "1" : "0"); }
  /// `%.17g`, which round-trips every double. (std::to_chars is faster,
  /// but its precision tables add about 70 KB to a job's peak RSS.)
  void real(std::string_view name, double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    text(name, std::string_view(buf, static_cast<std::size_t>(n)));
  }

 private:
  /// Finishes a pending start tag and indents the next line.
  void start_line() {
    if (open_) {
      sink_.put(">\n");
      open_ = false;
    }
    pad();
  }
  void pad() {
    for (int i = 0; i < depth_; ++i) sink_.put("  ");
  }
  void put_escaped(std::string_view s) {
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::string_view entity = common::xml_entity(s[i]);
      if (entity.empty()) continue;
      sink_.put(s.substr(run, i - run));
      sink_.put(entity);
      run = i + 1;
    }
    sink_.put(s.substr(run));
  }

  Sink sink_;
  int depth_ = 0;
  bool open_ = false;
};

template <class W>
void put_digest(W& w, std::string_view key, const common::Digest128& d) {
  w.open(key);
  w.i64("hi", static_cast<std::int64_t>(d.hi));
  w.i64("lo", static_cast<std::int64_t>(d.lo));
  w.close(key);
}

template <class W>
void put_endpoint(W& w, std::string_view key, const net::Endpoint& ep) {
  w.open(key);
  w.i64("node", ep.node.value());
  w.i64("port", ep.port);
  w.close(key);
}

template <class W>
void put_peer(W& w, const PeerLocation& p) {
  w.open("peer");
  w.i64("map_index", p.map_index);
  w.text("file_name", p.file_name);
  w.i64("size", p.size);
  w.i64("holder_host", p.holder_host);
  put_endpoint(w, "endpoint", p.endpoint);
  w.flag("on_server", p.on_server);
  if (p.from_store) w.flag("from_store", true);
  w.close("peer");
}

template <class W>
void emit(W& w, const SchedulerRequest& req) {
  w.open("scheduler_request");
  w.i64("host_id", req.host_id);
  w.i64("tasks_queued", req.tasks_queued);
  w.real("remaining_work_seconds", req.remaining_work_seconds);
  w.real("work_request_seconds", req.work_request_seconds);
  w.flag("mr_capable", req.mr_capable);
  put_endpoint(w, "serving_endpoint", req.serving_endpoint);
  for (const auto& f : req.cached_files) w.text("cached_file", f);
  if (req.knows_results) {
    // Distinct marker so a client holding zero results still differs from
    // one that does not report its result list at all.
    w.open("known_results");
    for (const std::int64_t id : req.known_results) w.i64("id", id);
    w.close("known_results");
  }
  if (!req.store_filter.empty()) w.text("store_filter", req.store_filter);
  for (const auto& ff : req.failed_fetches) {
    w.open("failed_fetch");
    w.i64("job_id", ff.job_id);
    w.i64("map_index", ff.map_index);
    w.i64("holder_host", ff.holder_host);
    w.close("failed_fetch");
  }
  for (const auto& r : req.reports) {
    w.open("result");
    w.i64("result_id", r.result_id);
    w.text("name", r.name);
    w.flag("success", r.success);
    put_digest(w, "digest", r.digest);
    w.i64("output_bytes", r.output_bytes);
    w.real("claimed_credit", r.claimed_credit);
    for (const auto& f : r.outputs) {
      w.open("output_file");
      w.text("name", f.name);
      w.i64("size", f.size);
      put_digest(w, "digest", f.digest);
      w.flag("uploaded", f.uploaded);
      w.i64("reduce_partition", f.reduce_partition);
      w.close("output_file");
    }
    w.close("result");
  }
  w.close("scheduler_request");
}

template <class W>
void emit(W& w, const SchedulerReply& reply) {
  w.open("scheduler_reply");
  w.i64("request_delay_us", reply.request_delay.as_micros());
  w.flag("had_work", reply.had_work);
  w.flag("report_map_results_immediately",
         reply.report_map_results_immediately);
  w.flag("keep_serving", reply.keep_serving);
  for (const auto& t : reply.tasks) {
    w.open("task");
    w.i64("result_id", t.result_id);
    w.text("result_name", t.result_name);
    w.text("wu_name", t.wu_name);
    w.text("app", t.app);
    w.i64("phase", static_cast<int>(t.phase));
    w.i64("job_id", t.job_id);
    w.i64("mr_index", t.mr_index);
    w.i64("n_maps", t.n_maps);
    w.i64("n_reducers", t.n_reducers);
    w.real("flops_estimate", t.flops_estimate);
    w.i64("report_deadline_us", t.report_deadline.as_micros());
    w.flag("inputs_complete", t.inputs_complete);
    for (const auto& in : t.inputs) {
      w.open("input_file");
      w.text("name", in.name);
      w.i64("size", in.size);
      w.flag("on_server", in.on_server);
      for (const auto& p : in.peers) put_peer(w, p);
      w.close("input_file");
    }
    w.close("task");
  }
  for (const auto& u : reply.location_updates) {
    w.open("location_update");
    w.i64("result_id", u.result_id);
    w.flag("complete", u.complete);
    for (const auto& p : u.peers) put_peer(w, p);
    w.close("location_update");
  }
  w.close("scheduler_reply");
}

template <class Msg>
std::string print(const Msg& m) {
  Emitter<StringSink> w;
  emit(w, m);
  return std::move(w.sink().out);
}

/// VCMR_PROTO_CHECK, read once per process.
bool proto_check() {
  static const bool on = std::getenv("VCMR_PROTO_CHECK") != nullptr;
  return on;
}

template <class Msg, class Parse>
Bytes counted(const Msg& m, Parse parse) {
  Emitter<CountingSink> w;
  emit(w, m);
  const Bytes n = w.sink().n;
  if (proto_check()) {
    const std::string xml = print(m);
    require(static_cast<Bytes>(xml.size()) == n,
            "VCMR_PROTO_CHECK: wire_size differs from the size of to_xml");
    require(parse(xml) == m,
            "VCMR_PROTO_CHECK: message changed in the XML round trip");
  }
  return n;
}

// --- the parser's helpers ----------------------------------------------------

common::Digest128 get_digest(const XmlNode& n, const char* key) {
  common::Digest128 d;
  if (const XmlNode* c = n.child(key)) {
    d.hi = static_cast<std::uint64_t>(c->child_i64("hi"));
    d.lo = static_cast<std::uint64_t>(c->child_i64("lo"));
  }
  return d;
}
net::Endpoint get_endpoint(const XmlNode& n, const char* key) {
  net::Endpoint ep;
  if (const XmlNode* c = n.child(key)) {
    ep.node = NodeId{c->child_i64("node")};
    ep.port = static_cast<int>(c->child_i64("port"));
  }
  return ep;
}
PeerLocation get_peer(const XmlNode& n) {
  PeerLocation p;
  p.map_index = static_cast<int>(n.child_i64("map_index"));
  p.file_name = n.child_text("file_name");
  p.size = n.child_i64("size");
  p.holder_host = n.child_i64("holder_host");
  p.endpoint = get_endpoint(n, "endpoint");
  p.on_server = n.child_i64("on_server") != 0;
  p.from_store = n.child_i64("from_store", 0) != 0;
  return p;
}

}  // namespace

std::string to_xml(const SchedulerRequest& req) { return print(req); }
std::string to_xml(const SchedulerReply& reply) { return print(reply); }

Bytes wire_size(const SchedulerRequest& req) {
  return counted(req, request_from_xml);
}
Bytes wire_size(const SchedulerReply& reply) {
  return counted(reply, reply_from_xml);
}

SchedulerRequest request_from_xml(const std::string& xml) {
  const auto root = common::xml_parse(xml);
  require(root->name() == "scheduler_request", "bad scheduler_request xml");
  SchedulerRequest req;
  req.host_id = root->child_i64("host_id", -1);
  req.tasks_queued = static_cast<int>(root->child_i64("tasks_queued"));
  req.remaining_work_seconds = root->child_double("remaining_work_seconds");
  req.work_request_seconds = root->child_double("work_request_seconds");
  req.mr_capable = root->child_i64("mr_capable") != 0;
  req.serving_endpoint = get_endpoint(*root, "serving_endpoint");
  for (const XmlNode* fc : root->children("cached_file")) {
    req.cached_files.push_back(fc->text());
  }
  if (const XmlNode* kn = root->child("known_results")) {
    req.knows_results = true;
    for (const XmlNode* id : kn->children("id")) {
      std::int64_t v = 0;
      require(common::parse_i64(id->text(), &v),
              "bad known_results id in scheduler_request xml");
      req.known_results.push_back(v);
    }
  }
  req.store_filter = root->child_text("store_filter");
  for (const XmlNode* fn : root->children("failed_fetch")) {
    FetchFailureReport ff;
    ff.job_id = fn->child_i64("job_id", -1);
    ff.map_index = static_cast<int>(fn->child_i64("map_index", -1));
    ff.holder_host = fn->child_i64("holder_host", -1);
    req.failed_fetches.push_back(ff);
  }
  for (const XmlNode* rn : root->children("result")) {
    ReportedResult r;
    r.result_id = rn->child_i64("result_id", -1);
    r.name = rn->child_text("name");
    r.success = rn->child_i64("success") != 0;
    r.digest = get_digest(*rn, "digest");
    r.output_bytes = rn->child_i64("output_bytes");
    r.claimed_credit = rn->child_double("claimed_credit");
    for (const XmlNode* fn : rn->children("output_file")) {
      OutputFileInfo f;
      f.name = fn->child_text("name");
      f.size = fn->child_i64("size");
      f.digest = get_digest(*fn, "digest");
      f.uploaded = fn->child_i64("uploaded") != 0;
      f.reduce_partition = static_cast<int>(fn->child_i64("reduce_partition", -1));
      r.outputs.push_back(std::move(f));
    }
    req.reports.push_back(std::move(r));
  }
  return req;
}

SchedulerReply reply_from_xml(const std::string& xml) {
  const auto root = common::xml_parse(xml);
  require(root->name() == "scheduler_reply", "bad scheduler_reply xml");
  SchedulerReply reply;
  reply.request_delay = SimTime::micros(root->child_i64("request_delay_us"));
  reply.had_work = root->child_i64("had_work") != 0;
  reply.report_map_results_immediately =
      root->child_i64("report_map_results_immediately") != 0;
  reply.keep_serving = root->child_i64("keep_serving") != 0;
  for (const XmlNode* tn : root->children("task")) {
    AssignedTask t;
    t.result_id = tn->child_i64("result_id", -1);
    t.result_name = tn->child_text("result_name");
    t.wu_name = tn->child_text("wu_name");
    t.app = tn->child_text("app");
    t.phase = static_cast<TaskPhase>(tn->child_i64("phase"));
    t.job_id = tn->child_i64("job_id", -1);
    t.mr_index = static_cast<int>(tn->child_i64("mr_index", -1));
    t.n_maps = static_cast<int>(tn->child_i64("n_maps"));
    t.n_reducers = static_cast<int>(tn->child_i64("n_reducers"));
    t.flops_estimate = tn->child_double("flops_estimate");
    t.report_deadline = SimTime::micros(tn->child_i64("report_deadline_us"));
    t.inputs_complete = tn->child_i64("inputs_complete") != 0;
    for (const XmlNode* fi : tn->children("input_file")) {
      InputFileSpec in;
      in.name = fi->child_text("name");
      in.size = fi->child_i64("size");
      in.on_server = fi->child_i64("on_server") != 0;
      for (const XmlNode* pn : fi->children("peer")) {
        in.peers.push_back(get_peer(*pn));
      }
      t.inputs.push_back(std::move(in));
    }
    reply.tasks.push_back(std::move(t));
  }
  for (const XmlNode* un : root->children("location_update")) {
    LocationUpdate u;
    u.result_id = un->child_i64("result_id", -1);
    u.complete = un->child_i64("complete") != 0;
    for (const XmlNode* pn : un->children("peer")) {
      u.peers.push_back(get_peer(*pn));
    }
    reply.location_updates.push_back(std::move(u));
  }
  return reply;
}

}  // namespace vcmr::proto
