// Tests for the scheduler RPC wire format: round trips, the exact size the
// network charges, and a seeded-mutation fuzz of the parsers.

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/xml.h"
#include "proto/messages.h"

namespace vcmr::proto {
namespace {

TEST(Proto, RequestRoundTrip) {
  SchedulerRequest req;
  req.host_id = 7;
  req.tasks_queued = 2;
  req.remaining_work_seconds = 123.5;
  req.work_request_seconds = 600;
  req.mr_capable = true;
  req.serving_endpoint = {NodeId{4}, 31416};

  ReportedResult rep;
  rep.result_id = 55;
  rep.name = "job_map_3_1";
  rep.success = true;
  rep.digest = common::Hasher::of("output");
  rep.output_bytes = 1234;
  OutputFileInfo f;
  f.name = "job_map_3_1.part0";
  f.size = 700;
  f.digest = common::Hasher::of("p0");
  f.uploaded = true;
  f.reduce_partition = 0;
  rep.outputs.push_back(f);
  req.reports.push_back(rep);

  const SchedulerRequest back = request_from_xml(to_xml(req));
  EXPECT_EQ(back.host_id, 7);
  EXPECT_EQ(back.tasks_queued, 2);
  EXPECT_DOUBLE_EQ(back.remaining_work_seconds, 123.5);
  EXPECT_DOUBLE_EQ(back.work_request_seconds, 600);
  EXPECT_TRUE(back.mr_capable);
  EXPECT_EQ(back.serving_endpoint.node, NodeId{4});
  EXPECT_EQ(back.serving_endpoint.port, 31416);
  ASSERT_EQ(back.reports.size(), 1u);
  EXPECT_EQ(back.reports[0].result_id, 55);
  EXPECT_EQ(back.reports[0].name, "job_map_3_1");
  EXPECT_TRUE(back.reports[0].success);
  EXPECT_EQ(back.reports[0].digest, common::Hasher::of("output"));
  ASSERT_EQ(back.reports[0].outputs.size(), 1u);
  EXPECT_EQ(back.reports[0].outputs[0].name, "job_map_3_1.part0");
  EXPECT_EQ(back.reports[0].outputs[0].reduce_partition, 0);
  EXPECT_TRUE(back.reports[0].outputs[0].uploaded);
}

TEST(Proto, LostWorkFieldsRoundTrip) {
  SchedulerRequest req;
  req.host_id = 3;
  req.knows_results = true;
  req.known_results = {11, 29};
  FetchFailureReport ff;
  ff.job_id = 2;
  ff.map_index = 4;
  ff.holder_host = 9;
  req.failed_fetches.push_back(ff);

  const SchedulerRequest back = request_from_xml(to_xml(req));
  EXPECT_TRUE(back.knows_results);
  EXPECT_EQ(back.known_results, (std::vector<std::int64_t>{11, 29}));
  ASSERT_EQ(back.failed_fetches.size(), 1u);
  EXPECT_EQ(back.failed_fetches[0], ff);

  // Disabled-mechanism requests put none of this on the wire, so byte
  // counts (and thus simulated network timing) match the old format.
  const std::string off = to_xml(SchedulerRequest{});
  EXPECT_EQ(off.find("known_results"), std::string::npos);
  EXPECT_EQ(off.find("failed_fetch"), std::string::npos);
  EXPECT_FALSE(request_from_xml(off).knows_results);

  // An *empty* known list still round-trips as "I know nothing" — the
  // signal a freshly restarted client sends on its first RPC.
  SchedulerRequest fresh;
  fresh.knows_results = true;
  const SchedulerRequest fresh_back = request_from_xml(to_xml(fresh));
  EXPECT_TRUE(fresh_back.knows_results);
  EXPECT_TRUE(fresh_back.known_results.empty());
}

TEST(Proto, StoreFieldsRoundTrip) {
  // Volunteer replica store: the Bloom advert rides the request, the
  // from_store marker rides peer locations in the reply.
  SchedulerRequest req;
  req.host_id = 5;
  req.store_filter = "bloom:64:2:00000000000000aa";
  const SchedulerRequest back = request_from_xml(to_xml(req));
  EXPECT_EQ(back.store_filter, "bloom:64:2:00000000000000aa");

  PeerLocation p;
  p.map_index = 1;
  p.file_name = "job_map_input_2";
  p.size = 400;
  p.holder_host = 6;
  p.endpoint = {NodeId{7}, 31416};
  p.on_server = true;
  p.from_store = true;
  LocationUpdate upd;
  upd.result_id = 3;
  upd.peers.push_back(p);
  SchedulerReply reply;
  reply.location_updates.push_back(upd);
  const SchedulerReply rback = reply_from_xml(to_xml(reply));
  ASSERT_EQ(rback.location_updates.size(), 1u);
  ASSERT_EQ(rback.location_updates[0].peers.size(), 1u);
  EXPECT_TRUE(rback.location_updates[0].peers[0].from_store);

  // Disabled-store traffic puts neither field on the wire: byte counts —
  // and so simulated timing — match the old format exactly.
  const std::string off = to_xml(SchedulerRequest{});
  EXPECT_EQ(off.find("store_filter"), std::string::npos);
  p.from_store = false;
  upd.peers[0] = p;
  reply.location_updates[0] = upd;
  EXPECT_EQ(to_xml(reply).find("from_store"), std::string::npos);
}

TEST(Proto, ReplyRoundTrip) {
  SchedulerReply reply;
  reply.request_delay = SimTime::seconds(6);
  reply.had_work = true;
  reply.report_map_results_immediately = true;

  AssignedTask t;
  t.result_id = 9;
  t.result_name = "job_reduce_1_0";
  t.wu_name = "job_reduce_1";
  t.app = "word_count";
  t.phase = TaskPhase::kReduce;
  t.job_id = 1;
  t.mr_index = 1;
  t.n_maps = 4;
  t.n_reducers = 2;
  t.flops_estimate = 2.5e9;
  t.report_deadline = SimTime::hours(4);
  t.inputs_complete = false;
  InputFileSpec in;
  in.name = "job_map_0_0.part1";
  in.size = 500;
  in.on_server = true;
  PeerLocation p;
  p.map_index = 0;
  p.file_name = in.name;
  p.size = 500;
  p.holder_host = 3;
  p.endpoint = {NodeId{5}, 31416};
  p.on_server = true;
  in.peers.push_back(p);
  t.inputs.push_back(in);
  reply.tasks.push_back(t);

  LocationUpdate upd;
  upd.result_id = 9;
  upd.complete = true;
  upd.peers.push_back(p);
  reply.location_updates.push_back(upd);

  const SchedulerReply back = reply_from_xml(to_xml(reply));
  EXPECT_EQ(back.request_delay, SimTime::seconds(6));
  EXPECT_TRUE(back.had_work);
  EXPECT_TRUE(back.report_map_results_immediately);
  ASSERT_EQ(back.tasks.size(), 1u);
  const AssignedTask& bt = back.tasks[0];
  EXPECT_EQ(bt.result_id, 9);
  EXPECT_EQ(bt.phase, TaskPhase::kReduce);
  EXPECT_EQ(bt.n_maps, 4);
  EXPECT_DOUBLE_EQ(bt.flops_estimate, 2.5e9);
  EXPECT_EQ(bt.report_deadline, SimTime::hours(4));
  EXPECT_FALSE(bt.inputs_complete);
  ASSERT_EQ(bt.inputs.size(), 1u);
  ASSERT_EQ(bt.inputs[0].peers.size(), 1u);
  EXPECT_EQ(bt.inputs[0].peers[0].endpoint.node, NodeId{5});
  EXPECT_TRUE(bt.inputs[0].peers[0].on_server);
  ASSERT_EQ(back.location_updates.size(), 1u);
  EXPECT_TRUE(back.location_updates[0].complete);
}

TEST(Proto, EmptyMessagesRoundTrip) {
  const SchedulerRequest req = request_from_xml(to_xml(SchedulerRequest{}));
  EXPECT_EQ(req.host_id, -1);
  EXPECT_TRUE(req.reports.empty());
  const SchedulerReply rep = reply_from_xml(to_xml(SchedulerReply{}));
  EXPECT_FALSE(rep.had_work);
  EXPECT_TRUE(rep.tasks.empty());
}

TEST(Proto, ReplySizeGrowsWithLocations) {
  // The reduce reply carries one <peer> per mapper; the serialized size —
  // what the network charges — must scale with the map count.
  SchedulerReply small, big;
  AssignedTask t;
  t.phase = TaskPhase::kReduce;
  for (int i = 0; i < 2; ++i) {
    InputFileSpec in;
    in.name = "f" + std::to_string(i);
    t.inputs.push_back(in);
  }
  small.tasks.push_back(t);
  for (int i = 2; i < 40; ++i) {
    InputFileSpec in;
    in.name = "f" + std::to_string(i);
    t.inputs.push_back(in);
  }
  big.tasks.push_back(t);
  EXPECT_GT(to_xml(big).size(), 3 * to_xml(small).size());
}

// --- the historical printer --------------------------------------------------
//
// to_xml used to build a common::XmlNode tree and print it. That printer is
// kept here as an oracle: the streaming emitter must write the same bytes.
namespace oracle {

using common::XmlNode;

void put_i64(XmlNode& n, const char* key, std::int64_t v) {
  n.add_child_text(key, std::to_string(v));
}
void put_double(XmlNode& n, const char* key, double v) {
  n.add_child_text(key, common::strprintf("%.17g", v));
}
void put_digest(XmlNode& n, const char* key, const common::Digest128& d) {
  XmlNode& c = n.add_child(key);
  put_i64(c, "hi", static_cast<std::int64_t>(d.hi));
  put_i64(c, "lo", static_cast<std::int64_t>(d.lo));
}
void put_endpoint(XmlNode& n, const char* key, const net::Endpoint& ep) {
  XmlNode& c = n.add_child(key);
  put_i64(c, "node", ep.node.value());
  put_i64(c, "port", ep.port);
}
void put_peer(XmlNode& parent, const PeerLocation& p) {
  XmlNode& n = parent.add_child("peer");
  put_i64(n, "map_index", p.map_index);
  n.add_child_text("file_name", p.file_name);
  put_i64(n, "size", p.size);
  put_i64(n, "holder_host", p.holder_host);
  put_endpoint(n, "endpoint", p.endpoint);
  put_i64(n, "on_server", p.on_server ? 1 : 0);
  if (p.from_store) put_i64(n, "from_store", 1);
}

std::string to_xml(const SchedulerRequest& req) {
  XmlNode root("scheduler_request");
  put_i64(root, "host_id", req.host_id);
  put_i64(root, "tasks_queued", req.tasks_queued);
  put_double(root, "remaining_work_seconds", req.remaining_work_seconds);
  put_double(root, "work_request_seconds", req.work_request_seconds);
  put_i64(root, "mr_capable", req.mr_capable ? 1 : 0);
  put_endpoint(root, "serving_endpoint", req.serving_endpoint);
  for (const auto& f : req.cached_files) root.add_child_text("cached_file", f);
  if (req.knows_results) {
    XmlNode& kn = root.add_child("known_results");
    for (const std::int64_t id : req.known_results) put_i64(kn, "id", id);
  }
  if (!req.store_filter.empty()) {
    root.add_child_text("store_filter", req.store_filter);
  }
  for (const auto& ff : req.failed_fetches) {
    XmlNode& n = root.add_child("failed_fetch");
    put_i64(n, "job_id", ff.job_id);
    put_i64(n, "map_index", ff.map_index);
    put_i64(n, "holder_host", ff.holder_host);
  }
  for (const auto& r : req.reports) {
    XmlNode& n = root.add_child("result");
    put_i64(n, "result_id", r.result_id);
    n.add_child_text("name", r.name);
    put_i64(n, "success", r.success ? 1 : 0);
    put_digest(n, "digest", r.digest);
    put_i64(n, "output_bytes", r.output_bytes);
    put_double(n, "claimed_credit", r.claimed_credit);
    for (const auto& f : r.outputs) {
      XmlNode& fo = n.add_child("output_file");
      fo.add_child_text("name", f.name);
      put_i64(fo, "size", f.size);
      put_digest(fo, "digest", f.digest);
      put_i64(fo, "uploaded", f.uploaded ? 1 : 0);
      put_i64(fo, "reduce_partition", f.reduce_partition);
    }
  }
  return root.to_string();
}

std::string to_xml(const SchedulerReply& reply) {
  XmlNode root("scheduler_reply");
  put_i64(root, "request_delay_us", reply.request_delay.as_micros());
  put_i64(root, "had_work", reply.had_work ? 1 : 0);
  put_i64(root, "report_map_results_immediately",
          reply.report_map_results_immediately ? 1 : 0);
  put_i64(root, "keep_serving", reply.keep_serving ? 1 : 0);
  for (const auto& t : reply.tasks) {
    XmlNode& n = root.add_child("task");
    put_i64(n, "result_id", t.result_id);
    n.add_child_text("result_name", t.result_name);
    n.add_child_text("wu_name", t.wu_name);
    n.add_child_text("app", t.app);
    put_i64(n, "phase", static_cast<int>(t.phase));
    put_i64(n, "job_id", t.job_id);
    put_i64(n, "mr_index", t.mr_index);
    put_i64(n, "n_maps", t.n_maps);
    put_i64(n, "n_reducers", t.n_reducers);
    put_double(n, "flops_estimate", t.flops_estimate);
    put_i64(n, "report_deadline_us", t.report_deadline.as_micros());
    put_i64(n, "inputs_complete", t.inputs_complete ? 1 : 0);
    for (const auto& in : t.inputs) {
      XmlNode& fi = n.add_child("input_file");
      fi.add_child_text("name", in.name);
      put_i64(fi, "size", in.size);
      put_i64(fi, "on_server", in.on_server ? 1 : 0);
      for (const auto& p : in.peers) put_peer(fi, p);
    }
  }
  for (const auto& u : reply.location_updates) {
    XmlNode& n = root.add_child("location_update");
    put_i64(n, "result_id", u.result_id);
    put_i64(n, "complete", u.complete ? 1 : 0);
    for (const auto& p : u.peers) put_peer(n, p);
  }
  return root.to_string();
}

}  // namespace oracle

// --- generators --------------------------------------------------------------

/// Letters, digits, the five XML specials and interior spaces. The wire
/// format trims leaf text, so generated names carry no surrounding
/// whitespace; they may be empty.
std::string random_name(common::Rng& rng, int max_len = 12) {
  static constexpr std::string_view kAlphabet = "abcxyz019_.-&<>\"' ";
  std::string s;
  const auto len = rng.uniform_int(0, max_len);
  for (std::int64_t i = 0; i < len; ++i) {
    s += kAlphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
  }
  return std::string(common::trim(s));
}

/// Small ids, -1 ("none"), and draws over the type's full range.
std::int64_t random_id(common::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return -1;
    case 1: return rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max());
    default: return rng.uniform_int(-10, 100'000);
  }
}
int random_int(common::Rng& rng) {
  return static_cast<int>(rng.uniform_int(-10, 70'000));
}

/// Doubles that %.17g must carry exactly, tiny and huge ones included.
double random_real(common::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0.0;
    case 1: return 0.1;
    case 2: return 1e-300;
    case 3: return 1e300;
    case 4: return -rng.uniform(0, 1e9);
    default: return rng.uniform(0, 1e6);
  }
}

net::Endpoint random_endpoint(common::Rng& rng) {
  return {NodeId{rng.uniform_int(-1, 99)}, random_int(rng)};
}

common::Digest128 random_digest(common::Rng& rng) {
  return {rng.next_u64(), rng.next_u64()};
}

PeerLocation random_peer(common::Rng& rng) {
  PeerLocation p;
  p.map_index = random_int(rng);
  p.file_name = random_name(rng);
  p.size = random_id(rng);
  p.holder_host = random_id(rng);
  p.endpoint = random_endpoint(rng);
  p.on_server = rng.chance(0.5);
  p.from_store = rng.chance(0.3);
  return p;
}

SchedulerRequest random_request(common::Rng& rng) {
  SchedulerRequest req;
  req.host_id = random_id(rng);
  req.tasks_queued = random_int(rng);
  req.remaining_work_seconds = random_real(rng);
  req.work_request_seconds = random_real(rng);
  req.mr_capable = rng.chance(0.5);
  req.serving_endpoint = random_endpoint(rng);
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    req.cached_files.push_back(random_name(rng));
  }
  for (auto n = rng.uniform_int(0, 4); n > 0; --n) {
    ReportedResult rep;
    rep.result_id = random_id(rng);
    rep.name = random_name(rng);
    rep.success = rng.chance(0.9);
    rep.digest = random_digest(rng);
    rep.output_bytes = random_id(rng);
    rep.claimed_credit = random_real(rng);
    for (auto k = rng.uniform_int(0, 3); k > 0; --k) {
      OutputFileInfo fo;
      fo.name = random_name(rng);
      fo.size = random_id(rng);
      fo.digest = random_digest(rng);
      fo.uploaded = rng.chance(0.5);
      fo.reduce_partition = random_int(rng);
      rep.outputs.push_back(std::move(fo));
    }
    req.reports.push_back(std::move(rep));
  }
  // known_results travels only under knows_results.
  req.knows_results = rng.chance(0.5);
  if (req.knows_results) {
    for (auto n = rng.uniform_int(0, 4); n > 0; --n) {
      req.known_results.push_back(random_id(rng));
    }
  }
  for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
    req.failed_fetches.push_back({random_id(rng), random_int(rng),
                                  random_id(rng)});
  }
  if (rng.chance(0.4)) req.store_filter = random_name(rng, 40);
  return req;
}

SchedulerReply random_reply(common::Rng& rng) {
  SchedulerReply reply;
  reply.request_delay = SimTime::micros(random_id(rng));
  reply.had_work = rng.chance(0.5);
  reply.report_map_results_immediately = rng.chance(0.3);
  reply.keep_serving = rng.chance(0.5);
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    AssignedTask t;
    t.result_id = random_id(rng);
    t.result_name = random_name(rng);
    t.wu_name = random_name(rng);
    t.app = random_name(rng);
    t.phase = static_cast<TaskPhase>(rng.uniform_int(0, 2));
    t.job_id = random_id(rng);
    t.mr_index = random_int(rng);
    t.n_maps = random_int(rng);
    t.n_reducers = random_int(rng);
    t.flops_estimate = random_real(rng);
    t.report_deadline = SimTime::micros(random_id(rng));
    t.inputs_complete = rng.chance(0.8);
    for (auto k = rng.uniform_int(0, 4); k > 0; --k) {
      InputFileSpec in;
      in.name = random_name(rng);
      in.size = random_id(rng);
      in.on_server = rng.chance(0.5);
      for (auto m = rng.uniform_int(0, 2); m > 0; --m) {
        in.peers.push_back(random_peer(rng));
      }
      t.inputs.push_back(std::move(in));
    }
    reply.tasks.push_back(std::move(t));
  }
  for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
    LocationUpdate u;
    u.result_id = random_id(rng);
    u.complete = rng.chance(0.5);
    for (auto m = rng.uniform_int(0, 3); m > 0; --m) {
      u.peers.push_back(random_peer(rng));
    }
    reply.location_updates.push_back(std::move(u));
  }
  return reply;
}

constexpr int kMessagesPerSeed = 25;

/// to_xml writes what the historical printer wrote, and wire_size counts
/// exactly those bytes.
template <class Msg>
void expect_exact_wire(const Msg& m) {
  const std::string xml = to_xml(m);
  EXPECT_EQ(xml, oracle::to_xml(m));
  EXPECT_EQ(wire_size(m), static_cast<Bytes>(xml.size())) << xml;
}

// Property: randomly generated messages, every field set, survive the XML
// round trip whole and are sized exactly.
class ProtoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtoFuzz, RandomRequestRoundTrips) {
  common::Rng rng(GetParam());
  for (int i = 0; i < kMessagesPerSeed; ++i) {
    const SchedulerRequest req = random_request(rng);
    EXPECT_EQ(request_from_xml(to_xml(req)), req) << to_xml(req);
  }
}

TEST_P(ProtoFuzz, RandomReplyRoundTrips) {
  common::Rng rng(GetParam() + 1000);
  for (int i = 0; i < kMessagesPerSeed; ++i) {
    const SchedulerReply reply = random_reply(rng);
    EXPECT_EQ(reply_from_xml(to_xml(reply)), reply) << to_xml(reply);
  }
}

TEST_P(ProtoFuzz, WireSizeIsExactAndTextMatchesHistoricalPrinter) {
  common::Rng rng(GetParam() + 2000);
  for (int i = 0; i < kMessagesPerSeed; ++i) {
    expect_exact_wire(random_request(rng));
    expect_exact_wire(random_reply(rng));
  }
}

// --- seeded-mutation fuzz of the wire parsers --------------------------------

/// Last line of the element whose start tag is on line `first`: `first`
/// itself for a leaf, else the close tag at the same indent.
std::size_t element_end(const std::vector<std::string>& lines,
                        std::size_t first) {
  const std::string& open = lines[first];
  if (open.find("</") != std::string::npos ||
      open.find("/>") != std::string::npos) {
    return first;
  }
  const std::size_t indent = open.find_first_not_of(' ');
  for (std::size_t j = first + 1; j < lines.size(); ++j) {
    if (lines[j].find_first_not_of(' ') == indent) return j;
  }
  return lines.size() - 1;
}

/// One seeded mutant of a to_xml text: flipped bytes, a truncation, an
/// element duplicated or dropped, or a number made oversized.
std::string mutate(const std::string& xml, common::Rng& rng) {
  std::string s = xml;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:
      for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
        s[pick(s.size())] = static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    case 1:
      s.resize(pick(s.size()));
      break;
    case 2:
    case 3: {
      std::vector<std::string> lines = common::split(s, '\n');
      lines.pop_back();  // the text ends in a newline
      const std::size_t first = pick(lines.size());
      const std::size_t last = element_end(lines, first);
      const std::vector<std::string> element(
          lines.begin() + static_cast<std::ptrdiff_t>(first),
          lines.begin() + static_cast<std::ptrdiff_t>(last) + 1);
      if (rng.chance(0.5)) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(last) + 1,
                     element.begin(), element.end());
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(first),
                    lines.begin() + static_cast<std::ptrdiff_t>(last) + 1);
      }
      s.clear();
      for (const std::string& line : lines) s += line + '\n';
      break;
    }
    default: {
      static constexpr std::string_view kHuge[] = {
          "99999999999999999999999", "-99999999999999999999999",
          "18446744073709551616",    "1e999",
          "-1e999",                  "nan",
          "0x7fffffffffffffff"};
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(s[i])) &&
            (i == 0 || s[i - 1] == '>')) {
          digits.push_back(i);
        }
      }
      if (digits.empty()) break;
      const std::size_t at = digits[pick(digits.size())];
      const std::size_t end = s.find('<', at);
      s.replace(at, end - at, kHuge[pick(std::size(kHuge))]);
      break;
    }
  }
  return s;
}

enum class Outcome { kReturned, kThrewError, kThrewOther };

/// How `parse` ends. Anything but returning or throwing vcmr::Error is a
/// parser bug.
template <class F>
Outcome outcome_of(F parse) {
  try {
    parse();
  } catch (const Error&) {
    return Outcome::kThrewError;
  } catch (...) {
    return Outcome::kThrewOther;
  }
  return Outcome::kReturned;
}

TEST_P(ProtoFuzz, MutatedWireParsesOrThrowsError) {
  common::Rng rng(GetParam() + 3000);
  constexpr int kMutantsPerMessage = 12;
  int returned = 0, rejected = 0;
  for (int i = 0; i < kMessagesPerSeed; ++i) {
    for (const std::string& xml :
         {to_xml(random_request(rng)), to_xml(random_reply(rng))}) {
      for (int k = 0; k < kMutantsPerMessage; ++k) {
        const std::string mutant = mutate(xml, rng);
        EXPECT_NE(outcome_of([&] { request_from_xml(mutant); }),
                  Outcome::kThrewOther)
            << mutant;
        EXPECT_NE(outcome_of([&] { reply_from_xml(mutant); }),
                  Outcome::kThrewOther)
            << mutant;
        const Outcome parsed = outcome_of([&] { common::xml_parse(mutant); });
        EXPECT_NE(parsed, Outcome::kThrewOther) << mutant;
        ++(parsed == Outcome::kReturned ? returned : rejected);
      }
    }
  }
  // The mutants reach both sides of the parser.
  EXPECT_GT(returned, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtoFuzz,
                         ::testing::Values(1, 7, 42, 99, 1234, 777777));

TEST(ProtoWire, EdgeCasesMatchHistoricalPrinter) {
  // Empty messages and strings: every text field prints as <name/>.
  expect_exact_wire(SchedulerRequest{});
  expect_exact_wire(SchedulerReply{});

  SchedulerRequest req;
  req.host_id = -42;
  req.tasks_queued = -1;
  req.remaining_work_seconds = 0.1;
  req.work_request_seconds = 1e-300;
  req.serving_endpoint = {NodeId{-1}, -1};
  req.cached_files = {"", "  padded  ", "a&b<c>d\"e'f", " & "};
  req.knows_results = true;  // with an empty list: <known_results/>
  req.store_filter = " \t";  // trims to nothing: <store_filter/>
  ReportedResult rep;
  rep.result_id = std::numeric_limits<std::int64_t>::min();
  rep.name = "\tleading tab";
  rep.claimed_credit = 1e300;
  rep.digest = {~0ULL, 0};
  OutputFileInfo out;
  out.name = "<output_file>";
  out.reduce_partition = -7;
  rep.outputs.push_back(out);
  req.reports.push_back(rep);
  req.failed_fetches.push_back({-3, -4, -5});
  expect_exact_wire(req);

  req.known_results = {-9, 0, std::numeric_limits<std::int64_t>::max()};
  expect_exact_wire(req);

  SchedulerReply reply;
  reply.request_delay = SimTime::micros(-1);
  AssignedTask t;
  t.result_name = "";
  t.wu_name = "'quoted'";
  t.app = "  &amp;  ";
  t.flops_estimate = 0.1;
  InputFileSpec in;
  in.name = "in\nput";
  PeerLocation p;
  p.file_name = "\"peer\"";
  p.holder_host = -2;
  p.from_store = true;
  in.peers.push_back(p);
  t.inputs.push_back(in);
  reply.tasks.push_back(t);
  LocationUpdate u;
  u.result_id = -8;
  u.peers.push_back(p);
  p.from_store = false;
  u.peers.push_back(p);
  reply.location_updates.push_back(u);
  expect_exact_wire(reply);
}

TEST(Proto, BadXmlThrows) {
  EXPECT_THROW(request_from_xml("<wrong_root/>"), vcmr::Error);
  EXPECT_THROW(reply_from_xml("not xml"), vcmr::Error);
}

}  // namespace
}  // namespace vcmr::proto
