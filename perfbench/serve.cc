// serve-serial and serve-mixed: queries and updates through pf_serve's
// server.
//
// An in-process serve::Server (default Options) holds an XMark document.
// Reads are Q1-Q20 in passes, each in a seeded order; node updates go in
// between them.
//
// serve-serial drives one connection in a closed loop: each request is
// sent when the previous reply has arrived, so no query runs while an
// update publishes a snapshot. An update goes every 1/kSerialUpdates
// seconds. Latency runs from the send.
//
// serve-mixed is the concurrent mix: operations arrive on a seeded
// Poisson schedule at a fixed mean rate (open loop) and every tenth is
// an update. Reads spread over the reader connections, which pipeline
// their requests and read replies on a separate thread; updates go on
// their own connection.
// Latency runs from the scheduled send time, so a stall also delays what
// was due after it. It fails its oracle at the seed: engine::QueryContext
// numbers a query's constructed fragments after db->num_documents(),
// which an update publish moves mid-query (README.md).
//
// While the server sends without TCP_NODELAY, a reply of more than one
// 4 KiB send chunk waits for the client's delayed ACK, and a pipelined
// reply for the ACK that rides on its connection's next request; those
// waits set much of the served latency in both workloads.
//
// The update stream is generated before the clock starts by applying it
// to an in-process replay of the document, so its targets are valid pre
// ranks, and it is stationary: inserts add small <item> fragments (at
// most kMaxLive alive), deletes remove only those, and replace-value
// rewrites the leaf text of a price, initial bid or increase with a value
// that field held in the initial document.
//
// Correctness is checked after the clock stops: every reply must be ok;
// each read must equal a cold in-process Run on a snapshot it could have
// read; the reference engine itself is checked against the navigational
// baseline on the first and last snapshot; and the server's final
// document must serialize like the replay and survive a re-shred.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/pathfinder.h"
#include "base/rng.h"
#include "baseline/interp.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "workloads.h"
#include "xmark/queries.h"
#include "xml/database.h"
#include "xml/serializer.h"
#include "xml/update.h"

namespace pfbench {

namespace pf = pathfinder;
using pf::serve::Client;
using pf::serve::Server;
using pf::xml::Pre;

namespace {

constexpr const char* kDoc = "auction.xml";
constexpr double kSf = 0.01;
// The document is the same on every seed, the one the repository's
// serve and update benchmarks use; the seed picks the reads and the
// update stream. Whether a reply stalls (Findings in README.md) depends
// on its size, so a document drawn per seed moved whole queries in and
// out of the stall from seed to seed.
constexpr uint64_t kDocSeed = 42;
// serve-mixed's offered operations per second, the same on every host
// and build. On a 4-vCPU host (Release, sf 0.01) the sequential update
// connection saturates first, near 400 ops/s (40 updates/s), while reads
// alone level off near 1300 queries/s. 100 is a quarter of the lower
// figure, so a build up to about 3x slower on the write path is still
// offered a load it can serve.
constexpr double kRate = 100.0;
// serve-mixed's reader connections. A constant, so the per-connection
// arrival gap, which sets reply latency while each reply waits for the
// next request's ACK, does not follow the host. With the update
// connection it makes 4, one per vCPU of the host the rate was chosen
// on; the client threads mostly sleep, so fewer cores do not starve
// them.
constexpr size_t kReaders = 3;
// serve-mixed makes every tenth operation an update.
constexpr size_t kUpdateEvery = 10;
// serve-serial slots an update in between two reads every 1/kSerialUpdates
// seconds, so the number of updates, and with it the snapshots the store
// keeps, does not follow the read speed.
constexpr double kSerialUpdates = 2.0;
// A replay moves to a fresh store every this many updates (see Replay).
constexpr size_t kCompactEvery = 32;
constexpr size_t kMaxLive = 8;  // inserted fragments alive at once
constexpr int kSetups = 9;
constexpr int kReplyTimeoutMs = 30000;
// serve.overhead_large_ms takes replies above this many bytes, the 4 KiB
// of the metric's definition. It mirrors the send() chunk of
// serve::Server::WriteLine (src/serve/server.cc), which the server does
// not export: replies that need a second chunk are the ones that stall.
constexpr size_t kLargeReplyBytes = 4096;
constexpr const char* kRegions[] = {"africa",   "asia",     "australia",
                                    "europe",   "namerica", "samerica"};

// ---- navigation over one snapshot ---------------------------------------

class Nav {
 public:
  Nav(const pf::xml::Document& d, const pf::StringPool& pool)
      : d_(d), pool_(pool) {}

  /// Element children of p named `tag` (all of them if tag is empty).
  std::vector<Pre> Children(Pre p, std::string_view tag) const {
    std::vector<Pre> out;
    pf::StrId id = 0;
    if (!tag.empty() && !pool_.Find(tag, &id)) return out;
    Pre end = p + d_.size(p);
    for (Pre c = p + 1; c <= end; c += d_.size(c) + 1) {
      if (d_.kind(c) == pf::xml::NodeKind::kElem &&
          (tag.empty() || d_.prop(c) == id)) {
        out.push_back(c);
      }
    }
    return out;
  }
  Pre Child(Pre p, std::string_view tag) const {
    std::vector<Pre> cs = Children(p, tag);
    return cs.empty() ? 0 : cs.front();
  }
  Pre TextChild(Pre p) const {
    Pre end = p + d_.size(p);
    for (Pre c = p + 1; c <= end; c += d_.size(c) + 1) {
      if (d_.kind(c) == pf::xml::NodeKind::kText) return c;
    }
    return 0;
  }
  std::string_view Attr(Pre p, std::string_view name) const {
    for (Pre c = p + 1; c < d_.num_nodes() && d_.IsAttr(c); ++c) {
      if (pool_.Get(d_.prop(c)) == name) return pool_.Get(d_.value(c));
    }
    return {};
  }

 private:
  const pf::xml::Document& d_;
  const pf::StringPool& pool_;
};

// ---- replays ----------------------------------------------------------------

// A private replay of the update stream. The store keeps every snapshot
// it publishes, so every kCompactEvery updates the replay moves to a
// fresh store, re-shredded from the current snapshot (pre ranks and
// bytes are unchanged), which bounds its memory.
class Replay {
 public:
  pf::Status Load(const std::string& xml) {
    db_ = std::make_unique<pf::xml::Database>();
    applied_ = 0;
    return db_->LoadXml(kDoc, xml).status();
  }
  pf::Result<pf::xml::UpdateResult> Apply(const pf::xml::NodeUpdate& u) {
    if (++applied_ % kCompactEvery == 0) {
      std::string xml = Serialized(*db_);
      db_ = std::make_unique<pf::xml::Database>();
      PF_RETURN_NOT_OK(db_->LoadXml(kDoc, xml).status());
    }
    return pf::xml::ApplyUpdate(db_.get(), kDoc, u);
  }
  pf::xml::Database* db() { return db_.get(); }

  static std::string Serialized(const pf::xml::Database& db) {
    auto frag = db.FindDocument(kDoc);
    return frag.ok() ? pf::xml::SerializeDocument(db.doc(*frag), db.pool())
                     : std::string();
  }

 private:
  std::unique_ptr<pf::xml::Database> db_;
  size_t applied_ = 0;
};

// ---- the update stream ---------------------------------------------------

struct StreamOp {
  std::string action;  // wire verb: insert | delete | replace
  pf::xml::NodeUpdate u;
};

struct UpdateStream {
  std::vector<StreamOp> ops;
  std::vector<double> apply_ms;  // xml::ApplyUpdate on the replay
  int structural = 0;
};

std::string ItemFragment(int64_t serial) {
  std::string s = std::to_string(serial);
  return "<item id=\"bench" + s +
         "\"><location>United States</location><quantity>1</quantity>"
         "<name>bench item " + s +
         "</name><payment>Cash</payment><description><text>plain gold "
         "widget</text></description><shipping>Will ship "
         "internationally</shipping><incategory category=\"category0\"/>"
         "<mailbox/></item>";
}

// The leaf text replace-values rewrite, by field: a closed auction's
// price, an open auction's initial bid and its first bidder's increase.
constexpr int kFields = 3;

// Every text node of `field` in the snapshot, in document order.
std::vector<Pre> FieldTexts(const Nav& nav, Pre site, int field) {
  std::vector<Pre> out;
  auto add = [&](Pre leaf) {
    Pre text = leaf == 0 ? 0 : nav.TextChild(leaf);
    if (text != 0) out.push_back(text);
  };
  if (field == 0) {
    for (Pre ca : nav.Children(nav.Child(site, "closed_auctions"),
                               "closed_auction")) {
      add(nav.Child(ca, "price"));
    }
  } else {
    for (Pre oa :
         nav.Children(nav.Child(site, "open_auctions"), "open_auction")) {
      Pre bidder = nav.Child(oa, "bidder");
      if (field == 1) add(nav.Child(oa, "initial"));
      if (field == 2 && bidder != 0) add(nav.Child(bidder, "increase"));
    }
  }
  return out;
}

pf::Result<UpdateStream> BuildStream(const std::string& xml, uint64_t seed,
                                     size_t n) {
  UpdateStream out;
  if (n == 0) return out;
  Replay replay;
  PF_RETURN_NOT_OK(replay.Load(xml));
  pf::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  struct Live {
    size_t region;
    int64_t serial;
  };
  std::vector<Live> live;
  int64_t serial = 0;
  // A replace-value writes a value the same field held in the initial
  // document, so every field keeps its distribution of values (and every
  // value stays a number, so no query's arithmetic can fail).
  std::vector<std::string> originals[kFields];
  {
    PF_ASSIGN_OR_RETURN(pf::xml::FragId frag, replay.db()->FindDocument(kDoc));
    const pf::xml::Document& d = replay.db()->doc(frag);
    const pf::StringPool& pool = *replay.db()->pool();
    for (int f = 0; f < kFields; ++f) {
      for (Pre t : FieldTexts(Nav(d, pool), 1, f)) {
        originals[f].emplace_back(pool.Get(d.value(t)));
      }
      if (originals[f].empty()) {
        return pf::Status::Internal("update stream: an empty field");
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    PF_ASSIGN_OR_RETURN(pf::xml::FragId frag, replay.db()->FindDocument(kDoc));
    Nav nav(replay.db()->doc(frag), *replay.db()->pool());
    const Pre site = 1;
    Pre regions = nav.Child(site, "regions");
    // Even updates replace a value, odd ones insert or delete, so exactly
    // half are structural. Inserts and deletes are a random walk over
    // [0, kMaxLive] live fragments.
    bool structural = i % 2 == 1;
    bool insert = structural && (live.empty() || (live.size() < kMaxLive &&
                                                  rng.Below(2) == 0));
    bool remove = structural && !insert;
    StreamOp op;
    if (insert) {
      size_t r = rng.Below(std::size(kRegions));
      op.action = "insert";
      op.u.kind = pf::xml::NodeUpdate::Kind::kInsertChild;
      op.u.target = nav.Child(regions, kRegions[r]);
      op.u.position = -1;
      op.u.xml = ItemFragment(serial);
      live.push_back({r, serial++});
    } else if (remove) {
      size_t j = rng.Below(live.size());
      std::string id = "bench" + std::to_string(live[j].serial);
      op.action = "delete";
      op.u.kind = pf::xml::NodeUpdate::Kind::kDelete;
      for (Pre item :
           nav.Children(nav.Child(regions, kRegions[live[j].region]), "item")) {
        if (nav.Attr(item, "id") == id) op.u.target = item;
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
    } else {
      op.action = "replace";
      op.u.kind = pf::xml::NodeUpdate::Kind::kReplaceValue;
      int field = static_cast<int>(rng.Below(kFields));
      std::vector<Pre> texts = FieldTexts(nav, site, field);
      op.u.target = texts.empty() ? 0 : texts[rng.Below(texts.size())];
      op.u.value = originals[field][rng.Below(originals[field].size())];
    }
    if (op.u.target == 0) {
      return pf::Status::Internal("update stream: no target for " + op.action);
    }
    Clock::time_point t0 = Clock::now();
    auto r = replay.Apply(op.u);
    out.apply_ms.push_back(MsSince(t0));
    PF_RETURN_NOT_OK(r.status());
    out.structural += r->structural ? 1 : 0;
    out.ops.push_back(std::move(op));
  }
  return out;
}

// Read picks: Q1-Q20 in passes, each in a seeded random order, so every
// query is read equally often.
class QueryPicker {
 public:
  explicit QueryPicker(pf::Rng* rng) : rng_(rng) {}
  int Next() {
    if (next_ == order_.size()) {
      order_.resize(pf::xmark::XMarkQueries().size());
      std::iota(order_.begin(), order_.end(), 0);
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_->Below(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  pf::Rng* rng_;
  std::vector<int> order_;
  size_t next_ = 0;
};

// ---- server, connections and set-up --------------------------------------

struct ServeSetup {
  // Declaration order is teardown order reversed: clients close first,
  // then the server drains, then the database goes.
  std::unique_ptr<pf::xml::Database> db;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;  // [0] updates, rest reads
  std::string xml;
  double setup_s = 0;
};

bool ReplyOk(const pf::Result<pf::serve::JsonValue>& r) {
  if (!r.ok()) return false;
  const pf::serve::JsonValue* ok = r->Find("ok");
  return ok != nullptr && ok->AsBool();
}

// Generate, start the server, register the document over the wire, warm
// up every query once, and open the workload's connections.
ServeSetup SetUp(int connections, RunOutcome* out) {
  ServeSetup s;
  Clock::time_point t0 = Clock::now();
  s.xml = XMarkXml(kSf, kDocSeed);
  s.db = std::make_unique<pf::xml::Database>();
  s.server = std::make_unique<Server>(s.db.get(), Server::Options{});
  pf::Status st = s.server->Start();
  if (!st.ok()) {
    out->Fail("server start: " + st.ToString());
    return s;
  }
  for (int i = 0; i < connections; ++i) {
    s.clients.push_back(std::make_unique<Client>());
    st = s.clients.back()->Connect(s.server->port());
    if (!st.ok()) {
      out->Fail("connect: " + st.ToString());
      return s;
    }
  }
  Client& c = *s.clients[0];
  if (!ReplyOk(c.Call(Client::RegisterFrame(kDoc, s.xml), kReplyTimeoutMs))) {
    out->Fail("register failed");
    return s;
  }
  const auto& queries = pf::xmark::XMarkQueries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!ReplyOk(c.Call(Client::QueryFrame(Tagged("w", qi),
                                           queries[qi].text, kDoc),
                        kReplyTimeoutMs))) {
      out->Fail(Tagged("warm-up Q", qi + 1) + " failed");
    }
  }
  s.setup_s = MsSince(t0) / 1000.0;
  return s;
}

// ---- the open-loop traffic ---------------------------------------------

struct Op {
  int query = -1;     // Q index for a read, -1 for an update
  size_t conn = 0;    // client index: 0 for updates, 1.. for reads
  size_t update = 0;  // stream index of an update
  double at_s = 0;    // scheduled send, seconds after the traffic starts
  Clock::time_point due;
  // Written by the sending thread.
  Clock::time_point sent;
  // Written by the receiving thread.
  Clock::time_point done;
  bool ok = false;
  uint64_t hash = 0;
};

struct Traffic {
  std::vector<Op> ops;
  Clock::time_point t0;
  std::vector<double> queued_samples;  // Server::Stats().queued, traced only
};

void SendReads(Client* c, size_t conn, std::vector<Op>* ops) {
  const auto& queries = pf::xmark::XMarkQueries();
  for (size_t i = 0; i < ops->size(); ++i) {
    Op& op = (*ops)[i];
    if (op.query < 0 || op.conn != conn) continue;
    std::this_thread::sleep_until(op.due);
    op.sent = Clock::now();
    if (!c->SendLine(Client::QueryFrame(Tagged("r", i),
                                        queries[static_cast<size_t>(op.query)]
                                            .text,
                                        kDoc))
             .ok()) {
      return;  // the receiver sees the broken connection and stops
    }
  }
}

void ReceiveReads(Client* c, size_t conn, std::vector<Op>* ops) {
  size_t want = 0;
  for (const Op& op : *ops) want += op.query >= 0 && op.conn == conn;
  for (size_t got = 0; got < want; ++got) {
    auto line = c->ReadLine(kReplyTimeoutMs);
    Clock::time_point now = Clock::now();
    if (!line.ok()) return;
    auto v = pf::serve::ParseJson(*line);
    if (!v.ok()) continue;
    const pf::serve::JsonValue* id = v->Find("id");
    if (id == nullptr || id->str.size() < 2 || id->str[0] != 'r') continue;
    size_t i = std::strtoull(id->str.c_str() + 1, nullptr, 10);
    if (i >= ops->size() || (*ops)[i].conn != conn) continue;
    Op& op = (*ops)[i];
    op.done = now;
    const pf::serve::JsonValue* ok = v->Find("ok");
    const pf::serve::JsonValue* result = v->Find("result");
    op.ok = ok != nullptr && ok->AsBool() && result != nullptr;
    if (op.ok) op.hash = HashBytes(result->str);
  }
}

void SendUpdates(Client* c, const UpdateStream& stream, std::vector<Op>* ops) {
  for (size_t i = 0; i < ops->size(); ++i) {
    Op& op = (*ops)[i];
    if (op.query >= 0) continue;
    std::this_thread::sleep_until(op.due);
    const StreamOp& s = stream.ops[op.update];
    op.sent = Clock::now();
    auto r = c->Call(Client::UpdateFrame(Tagged("u", i), kDoc,
                                         s.action, s.u.target, s.u.position,
                                         s.u.xml, s.u.value),
                     kReplyTimeoutMs);
    op.done = Clock::now();
    op.ok = ReplyOk(r);
    // Later targets assume this update applied: stop at the first loss.
    if (!op.ok) return;
  }
}

// Runs `drive`; in a traced run, samples the server's queue depth every
// 5 ms meanwhile.
void Sampled(Server* server, bool sample, std::vector<double>* samples,
             const std::function<void()>& drive) {
  std::atomic<bool> stop{false};
  std::thread sampler;
  if (sample) {
    sampler = std::thread([&] {
      while (!stop.load()) {
        samples->push_back(static_cast<double>(server->Stats().queued));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  drive();
  stop.store(true);
  if (sampler.joinable()) sampler.join();
}

// serve-mixed: the scheduled ops over all connections at once.
Traffic RunTraffic(ServeSetup* s, const UpdateStream& stream,
                   std::vector<Op> ops, bool sample) {
  Traffic t;
  t.ops = std::move(ops);
  t.t0 = Clock::now() + std::chrono::milliseconds(50);
  for (Op& op : t.ops) {
    op.due = t.t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(op.at_s));
  }
  Sampled(s->server.get(), sample, &t.queued_samples, [&] {
    std::vector<std::thread> threads;
    threads.emplace_back(SendUpdates, s->clients[0].get(), std::cref(stream),
                         &t.ops);
    for (size_t c = 1; c < s->clients.size(); ++c) {
      threads.emplace_back(SendReads, s->clients[c].get(), c, &t.ops);
      threads.emplace_back(ReceiveReads, s->clients[c].get(), c, &t.ops);
    }
    for (auto& th : threads) th.join();
  });
  return t;
}

// serve-serial: on connection 0, each request sent when the previous
// reply has arrived, until `seconds` have passed. The next update of the
// stream goes in between two reads whenever its slot, every
// 1/kSerialUpdates seconds, has come.
Traffic RunSerial(ServeSetup* s, const UpdateStream& stream,
                  QueryPicker* picks, double seconds, bool sample) {
  const auto& queries = pf::xmark::XMarkQueries();
  auto after = [](Clock::time_point t, double sec) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(sec));
  };
  Traffic t;
  Client& c = *s->clients[0];
  Sampled(s->server.get(), sample, &t.queued_samples, [&] {
    t.t0 = Clock::now();
    const Clock::time_point end = after(t.t0, seconds);
    size_t updates = 0;
    for (Clock::time_point now = t.t0; now < end; now = Clock::now()) {
      Op op;
      std::string frame;
      if (updates < stream.ops.size() &&
          now >= after(t.t0, static_cast<double>(updates + 1) /
                                 kSerialUpdates)) {
        op.update = updates++;
        const StreamOp& u = stream.ops[op.update];
        frame = Client::UpdateFrame(Tagged("u", t.ops.size()), kDoc,
                                    u.action, u.u.target, u.u.position,
                                    u.u.xml, u.u.value);
      } else {
        op.query = picks->Next();
        frame = Client::QueryFrame(Tagged("r", t.ops.size()),
                                   queries[static_cast<size_t>(op.query)].text,
                                   kDoc);
      }
      op.due = op.sent = Clock::now();
      auto r = c.Call(frame, kReplyTimeoutMs);
      op.done = Clock::now();
      op.ok = ReplyOk(r);
      if (op.ok && op.query >= 0) {
        const pf::serve::JsonValue* result = r->Find("result");
        op.ok = result != nullptr;
        if (op.ok) op.hash = HashBytes(result->str);
      }
      t.ops.push_back(op);
      // Later update targets assume every update applied.
      if (!op.ok) break;
    }
  });
  return t;
}

// ---- the oracle ------------------------------------------------------------

// Byte-compares the reference engine with the baseline on the current
// snapshot of `db`.
void CheckReferenceEngine(pf::xml::Database* db, const char* when,
                          RunOutcome* out) {
  pf::Pathfinder engine(db);
  pf::baseline::Baseline baseline(db);
  pf::baseline::BaselineOptions bo;
  bo.context_doc = kDoc;
  const auto& queries = pf::xmark::XMarkQueries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto r = engine.Run(queries[qi].text, ColdOptions(kDoc));
    auto b = baseline.Run(queries[qi].text, bo);
    auto rt = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
    auto bt = b.ok() ? b->Serialize() : pf::Result<std::string>(b.status());
    if (!rt.ok() || !bt.ok() || *rt != *bt) {
      ++out->failed;
      out->Fail(Tagged("Q", qi + 1) +
                " differs from the baseline on the " + when + " snapshot");
    }
  }
}

// Reference hashes: want[v][q] is the hash of a cold Run of query q on
// snapshot v, for the (v, q) pairs in `need`. The pairs are shared out
// by version over a few threads, each with its own replay of the update
// stream, so the oracle's time stays well under the run's.
using VersionQueries = std::vector<std::vector<int>>;
using VersionHashes = std::vector<std::unordered_map<int, uint64_t>>;

VersionHashes ReferenceHashes(const std::string& xml,
                              const UpdateStream& stream,
                              const VersionQueries& need, RunOutcome* out) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  VersionHashes want(need.size());
  std::vector<std::string> errors(threads);
  std::vector<std::thread> workers;
  for (size_t k = 0; k < threads; ++k) {
    workers.emplace_back([&, k] {
      const auto& queries = pf::xmark::XMarkQueries();
      Replay ref;
      if (!ref.Load(xml).ok()) {
        errors[k] = "reference load failed";
        return;
      }
      for (size_t v = 0; v < need.size(); ++v) {
        if (v % threads == k && !need[v].empty()) {
          pf::Pathfinder engine(ref.db());
          for (int q : need[v]) {
            if (want[v].count(q) != 0) continue;
            auto r = engine.Run(queries[static_cast<size_t>(q)].text,
                                ColdOptions(kDoc));
            auto text =
                r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
            want[v][q] = text.ok() ? HashBytes(*text) : 0;
          }
        }
        if (v + 1 < need.size() && !ref.Apply(stream.ops[v].u).ok()) {
          errors[k] = "reference replay failed at update " + std::to_string(v);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::string& e : errors) {
    if (!e.empty()) out->Fail(e);
  }
  return want;
}

// Checks every read against a snapshot it could have read and the final
// document against the replay. Returns the number of failed operations.
int64_t CheckTraffic(const Traffic& t, const UpdateStream& stream,
                     const ServeSetup& s, RunOutcome* out) {
  int64_t failed = 0;
  // Snapshot versions: an update whose ack arrived before a read was
  // sent is visible to it; one sent after the read's reply arrived is
  // not. Updates run one at a time, so both lists are sorted.
  std::vector<Clock::time_point> acks, sends;
  for (const Op& op : t.ops) {
    if (op.query >= 0) continue;
    if (!op.ok) {  // the sender stops at the first lost update
      ++failed;
      continue;
    }
    acks.push_back(op.done);
    sends.push_back(op.sent);
  }
  const size_t applied = acks.size();

  struct Check {
    size_t lo, hi;
    int query;
    uint64_t hash;
  };
  std::vector<Check> checks;
  for (const Op& op : t.ops) {
    if (op.query < 0) continue;
    if (!op.ok) {
      ++failed;
      continue;
    }
    size_t lo = static_cast<size_t>(
        std::upper_bound(acks.begin(), acks.end(), op.sent) - acks.begin());
    size_t hi = static_cast<size_t>(
        std::upper_bound(sends.begin(), sends.end(), op.done) - sends.begin());
    checks.push_back({lo, std::max(lo, hi), op.query, op.hash});
  }
  if (failed > 0) out->Fail(std::to_string(failed) + " operations failed");

  // First each read against the earliest snapshot it could have read;
  // then the reads that differ there against the later ones.
  VersionQueries need(applied + 1);
  for (const Check& c : checks) need[c.lo].push_back(c.query);
  VersionHashes want = ReferenceHashes(s.xml, stream, need, out);
  std::vector<const Check*> later;
  for (const Check& c : checks) {
    if (want[c.lo][c.query] != c.hash) later.push_back(&c);
  }
  VersionQueries need_later(applied + 1);
  for (const Check* c : later) {
    for (size_t v = c->lo + 1; v <= c->hi; ++v) {
      need_later[v].push_back(c->query);
    }
  }
  VersionHashes want_later =
      later.empty() ? VersionHashes()
                    : ReferenceHashes(s.xml, stream, need_later, out);
  int64_t mismatched = 0;
  for (const Check* c : later) {
    bool matched = false;
    for (size_t v = c->lo + 1; v <= c->hi && !matched; ++v) {
      matched = want_later[v][c->query] == c->hash;
    }
    mismatched += matched ? 0 : 1;
  }
  if (mismatched > 0) {
    out->Fail(std::to_string(mismatched) +
              " reads match no snapshot they could have read");
  }
  failed += mismatched;

  // The reference engine against the baseline on the first and the last
  // snapshot, and the server's final document against the replay and a
  // re-shred of it.
  Replay ref;
  if (!ref.Load(s.xml).ok()) {
    out->Fail("reference load failed");
    return failed + 1;
  }
  CheckReferenceEngine(ref.db(), "first", out);
  for (size_t v = 0; v < applied; ++v) {
    if (!ref.Apply(stream.ops[v].u).ok()) {
      out->Fail("reference replay failed at update " + std::to_string(v));
      return failed + 1;
    }
  }
  if (applied > 0) CheckReferenceEngine(ref.db(), "last", out);
  std::string final_doc = Replay::Serialized(*s.db);
  pf::xml::Database reshred;
  bool reshred_ok = reshred.LoadXml(kDoc, final_doc).ok();
  if (final_doc != Replay::Serialized(*ref.db()) || !reshred_ok ||
      Replay::Serialized(reshred) != final_doc) {
    ++failed;
    out->Fail("final document differs from the replay or its re-shred");
  }
  return failed;
}

// ---- idle probes (traced run) ----------------------------------------------

// Served latency minus in-process Run + Serialize of the same query, back
// to back on an idle server, split by response frame size.
void MeasureIdleServer(ServeSetup* s, RunOutcome* out) {
  Client& c = *s->clients.back();
  std::vector<double> ping;
  for (int i = 0; i < 50; ++i) {
    Clock::time_point t0 = Clock::now();
    bool ok = ReplyOk(c.Call(Client::PingFrame(), kReplyTimeoutMs));
    ping.push_back(MsSince(t0));
    if (!ok) out->Fail("ping failed");
  }
  pf::QueryOptions qo = Server::Options{}.query_options;
  qo.context_doc = kDoc;
  const auto& queries = pf::xmark::XMarkQueries();
  std::vector<double> small, large;
  for (int rep = 0; rep < 5; ++rep) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ++out->attempted;
      Clock::time_point t0 = Clock::now();
      bool sent = c.SendLine(Client::QueryFrame(Tagged("i", qi),
                                                queries[qi].text, kDoc))
                      .ok();
      auto line = sent ? c.ReadLine(kReplyTimeoutMs)
                       : pf::Result<std::string>(pf::Status::Internal("send"));
      double served = MsSince(t0);
      t0 = Clock::now();
      auto r = s->server->engine()->Run(queries[qi].text, qo);
      auto text = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
      double inproc = MsSince(t0);
      auto v = line.ok() ? pf::serve::ParseJson(*line)
                         : pf::Result<pf::serve::JsonValue>(line.status());
      const pf::serve::JsonValue* result = v.ok() ? v->Find("result") : nullptr;
      if (!text.ok() || result == nullptr || result->str != *text) {
        ++out->failed;
        out->Fail(Tagged("idle Q", qi + 1) + " differs in process");
        continue;
      }
      (line->size() + 1 > kLargeReplyBytes ? large : small)
          .push_back(served - inproc);
    }
  }
  Report& m = out->metrics;
  m.Set("serve.ping_rtt_ms", Median(ping), "ms");
  m.Set("serve.overhead_ms", Median(small), "ms");
  m.Set("serve.overhead_large_ms", Median(large), "ms");
}

}  // namespace

void RunServe(const RunArgs& args, bool concurrent, RunOutcome* out) {
  const auto& queries = pf::xmark::XMarkQueries();
  const int connections = concurrent ? static_cast<int>(kReaders) + 1 : 1;

  std::vector<double> setup_s;
  ServeSetup s;
  for (int i = 0; i < kSetups; ++i) {
    s = ServeSetup();  // tear the previous instance down first
    s = SetUp(connections, out);
    setup_s.push_back(s.setup_s);
    if (!out->correct) return;
  }

  // serve-mixed's schedule: Poisson arrivals at kRate operations per
  // second, each read on a random reader connection, so every connection
  // sees independent arrivals. serve-serial draws its reads as it goes.
  std::vector<Op> ops;
  pf::Rng rng(args.seed * 0xD1B54A32D192ED03ull + 7);
  QueryPicker picks(&rng);
  size_t updates =
      concurrent ? 0
                 : static_cast<size_t>(args.seconds * kSerialUpdates) + 1;
  for (double at = 0; concurrent && at < args.seconds;
       at -= std::log(1.0 - rng.NextDouble()) / kRate) {
    Op op;
    op.at_s = at;
    if (ops.size() % kUpdateEvery == kUpdateEvery - 1) {
      op.update = updates++;
    } else {
      op.query = picks.Next();
      op.conn = 1 + rng.Below(kReaders);
    }
    ops.push_back(op);
  }
  auto stream = BuildStream(s.xml, args.seed, updates);
  if (!stream.ok()) {
    out->Fail(stream.status().ToString());
    return;
  }
  const Server::Options so;
  out->config =
      JsonMember("sf", kSf) + ", " +
      JsonMember("doc_bytes", static_cast<double>(s.xml.size())) + ", " +
      (concurrent ? JsonMember("offered_ops_per_s", kRate) + ", " +
                        JsonMember("update_share", 1.0 / kUpdateEvery)
                  : JsonMember("updates_per_s", kSerialUpdates)) +
      ", " +
      JsonMember("connections", connections) + ", " +
      JsonMember("loop", concurrent ? "open, Poisson arrivals"
                                    : "closed, 1 connection") +
      ", " +
      JsonMember("server_max_inflight", so.max_inflight) + ", " +
      JsonMember("server_queue_depth", so.queue_depth) + ", " +
      JsonMember("server_timeout_ms", static_cast<double>(so.timeout_ms)) +
      ", " + JsonMember("server_mem_mb", static_cast<double>(so.mem_mb)) +
      ", " +
      JsonMember("server_max_line_bytes",
                 static_cast<double>(so.max_line_bytes));

  Report& m = out->metrics;
  if (args.trace) {
    // The per-layer split of a cold query at this scale, on a private
    // copy of the initial document, against baseline bytes.
    std::vector<double> load_ms;
    std::unique_ptr<pf::xml::Database> probe;
    for (int i = 0; i < kSetups; ++i) {
      probe = std::make_unique<pf::xml::Database>();
      Clock::time_point tl = Clock::now();
      bool ok = probe->LoadXml(kDoc, s.xml).ok();
      load_ms.push_back(MsSince(tl));
      if (!ok) out->Fail("probe load failed");
    }
    m.Set("xml.load_ms", Median(load_ms), "ms");
    std::vector<std::string> expected;
    pf::baseline::Baseline baseline(probe.get());
    pf::baseline::BaselineOptions bo;
    bo.context_doc = kDoc;
    for (const auto& q : queries) {
      auto r = baseline.Run(q.text, bo);
      auto text = r.ok() ? r->Serialize() : pf::Result<std::string>(r.status());
      expected.push_back(text.ok() ? *text : std::string());
    }
    TraceLayers(probe.get(), kDoc, expected, TraceSeconds(args), 3, out);
  }

  pf::serve::ServerStats before = s.server->Stats();
  pf::engine::CacheStats cache_before = s.server->engine()->cache()->Stats();
  Traffic t =
      concurrent
          ? RunTraffic(&s, *stream, std::move(ops), args.trace)
          : RunSerial(&s, *stream, &picks, args.seconds, args.trace);
  pf::serve::ServerStats after = s.server->Stats();
  pf::engine::CacheStats cache_after = s.server->engine()->cache()->Stats();
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  out->attempted += static_cast<int64_t>(t.ops.size());

  std::vector<std::vector<double>> per_query(queries.size());
  std::vector<double> read_ms, update_ms, lag_ms;
  Clock::time_point last = t.t0;
  for (const Op& op : t.ops) {
    if (op.sent != Clock::time_point()) {
      lag_ms.push_back(MsBetween(op.due, op.sent));
    }
    if (!op.ok) continue;
    double ms = MsBetween(op.due, op.done);
    last = std::max(last, op.done);
    if (op.query < 0) {
      update_ms.push_back(ms);
    } else {
      read_ms.push_back(ms);
      per_query[static_cast<size_t>(op.query)].push_back(ms);
    }
  }
  std::vector<double> means;  // per query, trimmed
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (per_query[qi].empty()) {
      out->Fail(Tagged("Q", qi + 1) + " has no completed read");
      continue;
    }
    means.push_back(TrimmedMean(per_query[qi]));
  }
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("geomean_ms", Geomean(means), "ms");
  m.Set("p50_ms", Median(read_ms), "ms");
  m.Set("p99_ms", Percentile(read_ms, 0.99), "ms");
  // Goodput at the offered rate (serve-mixed), or closed-loop throughput
  // over the time the ops took (serve-serial).
  double elapsed_s = MsBetween(t.t0, last) / 1000.0;
  m.Set("qps",
        static_cast<double>(read_ms.size()) /
            (concurrent ? std::max(args.seconds, elapsed_s) : elapsed_s),
        "1/s");
  m.Set("update_p50_ms", Median(update_ms), "ms");
  m.Set("update_p95_ms", Percentile(update_ms, 0.95), "ms");
  m.Set("loadgen.lag_p99_ms", Percentile(lag_ms, 0.99), "ms");

  if (args.trace) {
    auto delta = [](int64_t a, int64_t b) {
      return static_cast<double>(b - a);
    };
    double completed = delta(before.completed, after.completed);
    m.Set("cache.plan_hit_rate",
          completed > 0
              ? delta(before.plan_cache_hits, after.plan_cache_hits) / completed
              : 0,
          "ratio");
    double sub_hits =
        delta(cache_before.subplan.hits, cache_after.subplan.hits);
    double sub_all = sub_hits + delta(cache_before.subplan.misses,
                                      cache_after.subplan.misses);
    m.Set("cache.subplan_hit_rate", sub_all > 0 ? sub_hits / sub_all : 0,
          "ratio");
    m.Set("cache.subplan_repairs",
          delta(cache_before.subplan_repairs, cache_after.subplan_repairs),
          "count");
    m.Set("cache.per_doc_invalidations",
          delta(cache_before.per_doc_invalidations,
                cache_after.per_doc_invalidations),
          "count");
    m.Set("cache.evictions",
          delta(cache_before.plan.evictions + cache_before.subplan.evictions,
                cache_after.plan.evictions + cache_after.subplan.evictions),
          "count");
    m.Set("cache.admission_rejects",
          delta(cache_before.admission_rejects, cache_after.admission_rejects),
          "count");
    m.Set("serve.busy_rejects", delta(before.busy_rejects, after.busy_rejects),
          "count");
    double queued = 0;
    for (double q : t.queued_samples) queued += q;
    m.Set("serve.queue_depth_mean",
          t.queued_samples.empty()
              ? 0
              : queued / static_cast<double>(t.queued_samples.size()),
          "count");
    m.Set("xml.apply_update_ms", Median(stream->apply_ms), "ms");
    m.Set("xml.structural_update_frac",
          stream->ops.empty() ? 0
                              : static_cast<double>(stream->structural) /
                                    static_cast<double>(stream->ops.size()),
          "ratio");
    MeasureIdleServer(&s, out);
  }

  out->failed += CheckTraffic(t, *stream, s, out);
}

}  // namespace pfbench
