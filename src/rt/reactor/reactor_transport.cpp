#include "rt/reactor/reactor_transport.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <future>
#include <system_error>
#include <utility>

#include "common/assert.hpp"
#include "wire/frame.hpp"

namespace hpd::rt {

// ---- Internal state ---------------------------------------------------------

/// Per-node context. Everything here is owned by the node's worker thread
/// (`alive` is the one cross-thread flag). Implements SessionHost so the
/// NodeSession can dial/reset connections without knowing about epoll.
struct ReactorTransport::RNode final : SessionHost {
  ReactorTransport* t = nullptr;
  Worker* w = nullptr;
  ProcessId id = kNoProcess;
  transport::Node* node = nullptr;
  MetricsRegistry* metrics = nullptr;
  std::function<void()> on_revive;
  ReactorEndpoint endpoint;

  SockAddr addr;  ///< fixed at start(); stable across crash/revive
  Fd listener;
  std::atomic<bool> alive{false};

  std::map<int, std::unique_ptr<Conn>> inbound;  ///< keyed by fd
  std::map<ProcessId, std::unique_ptr<Conn>> outgoing;
  /// Sparse re-dial cooldowns (a node only talks to its tree neighbours;
  /// a dense n-vector per node would be O(n^2) at reactor scale).
  std::map<ProcessId, Clock::time_point> peer_down;

  struct TimerRec {
    int tag = 0;
    bool periodic = false;
    Clock::time_point due;
    Clock::duration period{};
  };
  std::map<transport::TimerId, TimerRec> timers;
  transport::TimerId next_timer = 1;

  NodeSession session;
  std::uint64_t accepted = 0;

  /// The node's single wheel entry: min over its Endpoint timers and the
  /// session's reliability deadline. 0 / max() = not armed.
  TimerWheel::TimerId armed_id = 0;
  Clock::time_point armed_due = Clock::time_point::max();

  // ---- SessionHost ---------------------------------------------------------
  void session_write(ProcessId dst,
                     const std::vector<std::uint8_t>& framed) override;
  void session_reset_conn(ProcessId dst) override {
    t->drop_outgoing(*this, dst, /*cooldown=*/false);
  }
  void session_peer_alive(ProcessId peer) override { peer_down.erase(peer); }
};

/// One reactor worker: an epoll loop plus the timer wheel, wake pipe and
/// control queue for the shard of nodes with id % W == index.
struct ReactorTransport::Worker {
  ReactorTransport* t = nullptr;
  int index = 0;
  Fd epoll;
  Fd wake_read;
  Fd wake_write;
  std::thread thread;

  Mutex ctl_mutex;
  struct CtlOp {
    ProcessId node = kNoProcess;  ///< kNoProcess = worker-level op
    std::function<void()> fn;
  };
  std::deque<CtlOp> ctl HPD_GUARDED_BY(ctl_mutex);
  bool stop_requested HPD_GUARDED_BY(ctl_mutex) = false;

  // ---- Worker-thread-only state --------------------------------------------
  TimerWheel wheel;
  struct FdRef {
    enum class Kind { kWake, kListener, kInbound, kOutgoing };
    ProcessId node = kNoProcess;
    Kind kind = Kind::kWake;
    ProcessId peer = kNoProcess;  ///< outgoing conns: destination id
  };
  /// fd -> owner. Resolved per event; a closed fd simply misses the map,
  /// so stale epoll events after a teardown are skipped harmlessly.
  std::unordered_map<int, FdRef> fds;
  /// Nodes whose session needs servicing (and wheel re-arming) before the
  /// next epoll_wait.
  std::set<ProcessId> dirty;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint8_t> read_buf;
  std::vector<RNode*> owned;  ///< this shard, ascending id
  bool busy_valid = false;
  Clock::time_point busy_start{};
  ReactorCounters counters;
};

void ReactorTransport::RNode::session_write(
    ProcessId dst, const std::vector<std::uint8_t>& framed) {
  Conn* conn = t->outgoing_conn(*this, dst);
  if (conn == nullptr) {
    return;  // cooling down or dial failed; the retransmit path recovers
  }
  conn->queue(framed);
  w->counters.max_outbound_backlog = std::max(
      w->counters.max_outbound_backlog,
      static_cast<std::uint64_t>(conn->backlog()));
  if (!conn->connecting && conn->flush() == Conn::FlushStatus::kBroken) {
    ++session.counters().conn_resets;
    t->drop_outgoing(*this, dst, /*cooldown=*/true);
  }
}

// ---- ReactorEndpoint --------------------------------------------------------

SimTime ReactorEndpoint::now() const { return transport_->now(); }

void ReactorEndpoint::send(transport::Message msg) {
  HPD_REQUIRE(msg.src == self_,
              "ReactorEndpoint::send: src must be the owning node");
  transport_->do_send(transport_->node_of(self_), std::move(msg));
}

transport::TimerId ReactorEndpoint::set_timer(ProcessId id, int tag,
                                              SimTime delay, bool periodic,
                                              SimTime period) {
  HPD_REQUIRE(id == self_,
              "ReactorEndpoint::set_timer: timers belong to the owning node");
  return transport_->do_set_timer(transport_->node_of(self_), tag, delay,
                                  periodic, period);
}

void ReactorEndpoint::cancel_timer(transport::TimerId id) {
  transport_->do_cancel_timer(transport_->node_of(self_), id);
}

bool ReactorEndpoint::alive(ProcessId id) const {
  return transport_->alive(id);
}

// ---- Construction / registration -------------------------------------------

ReactorTransport::ReactorTransport(std::size_t n, LiveConfig cfg)
    : cfg_(std::move(cfg)) {
  HPD_REQUIRE(n >= 1, "ReactorTransport: empty system");
  HPD_REQUIRE(cfg_.time_scale > 0.0,
              "ReactorTransport: time_scale must be > 0");
  HPD_REQUIRE(cfg_.retx_max_attempts >= 1,
              "ReactorTransport: retx_max_attempts must be >= 1");
  HPD_REQUIRE(cfg_.retx_queue_cap >= 1,
              "ReactorTransport: retx_queue_cap must be >= 1");
  HPD_REQUIRE(cfg_.reactor_workers >= 0,
              "ReactorTransport: reactor_workers must be >= 0");
  clock_.reset(Clock::now(), cfg_.time_scale);
  if (cfg_.socket_kind == SockAddr::Kind::kUnix && cfg_.socket_dir.empty()) {
    socket_dir_ = make_socket_dir();
    own_socket_dir_ = true;
  } else {
    socket_dir_ = cfg_.socket_dir;
  }

  std::size_t nworkers = static_cast<std::size_t>(cfg_.reactor_workers);
  if (nworkers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    nworkers = std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
  }
  nworkers = std::max<std::size_t>(1, std::min(nworkers, n));

  workers_.reserve(nworkers);
  for (std::size_t wi = 0; wi < nworkers; ++wi) {
    auto w = std::make_unique<Worker>();
    w->t = this;
    w->index = static_cast<int>(wi);
    w->epoll = Fd(::epoll_create1(0));
    if (!w->epoll.valid()) {
      throw TransportError("epoll_create1");
    }
    int pipefd[2];
    if (::pipe(pipefd) < 0) {
      throw TransportError("pipe: wake channel");
    }
    w->wake_read = Fd(pipefd[0]);
    w->wake_write = Fd(pipefd[1]);
    set_nonblocking(w->wake_read.get());
    set_nonblocking(w->wake_write.get());
    w->read_buf.resize(cfg_.read_chunk);
    w->counters.workers = 1;  // summed into the pool total by merge
    workers_.push_back(std::move(w));
  }

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto nd = std::make_unique<RNode>();
    nd->t = this;
    nd->w = workers_[i % nworkers].get();
    nd->id = static_cast<ProcessId>(i);
    nd->endpoint.transport_ = this;
    nd->endpoint.self_ = nd->id;
    nd->addr.kind = cfg_.socket_kind;
    if (cfg_.socket_kind == SockAddr::Kind::kUnix) {
      nd->addr.path = socket_dir_ + "/node-" + std::to_string(i) + ".sock";
    }
    nd->w->owned.push_back(nd.get());
    nodes_.push_back(std::move(nd));
  }
}

ReactorTransport::~ReactorTransport() {
  stop();
  if (own_socket_dir_) {
    remove_socket_dir(socket_dir_);
  }
}

ReactorTransport::RNode& ReactorTransport::node_of(ProcessId id) {
  HPD_REQUIRE(id >= 0 && idx(id) < nodes_.size(),
              "ReactorTransport: unknown node id");
  return *nodes_[idx(id)];
}

const ReactorTransport::RNode& ReactorTransport::node_of(ProcessId id) const {
  HPD_REQUIRE(id >= 0 && idx(id) < nodes_.size(),
              "ReactorTransport: unknown node id");
  return *nodes_[idx(id)];
}

ReactorTransport::Worker& ReactorTransport::worker_of(ProcessId id) {
  return *node_of(id).w;
}

void ReactorTransport::set_link_filter(
    std::function<bool(ProcessId, ProcessId)> link_ok) {
  HPD_REQUIRE(!started_, "ReactorTransport: link filter must precede start()");
  link_ok_ = std::move(link_ok);
}

void ReactorTransport::register_node(ProcessId id, transport::Node& node,
                                     MetricsRegistry* metrics,
                                     std::function<void()> on_revive) {
  HPD_REQUIRE(!started_,
              "ReactorTransport: register_node must precede start()");
  RNode& nd = node_of(id);
  nd.node = &node;
  nd.metrics = metrics;
  nd.on_revive = std::move(on_revive);
}

transport::Endpoint& ReactorTransport::endpoint(ProcessId id) {
  return node_of(id).endpoint;
}

// ---- Lifecycle --------------------------------------------------------------

void ReactorTransport::start() {
  HPD_REQUIRE(!started_, "ReactorTransport: started twice");
  for (auto& nd : nodes_) {
    HPD_REQUIRE(nd->node != nullptr, "ReactorTransport: node not registered");
    // Bind every listener before any worker runs: a refused connect can
    // then only mean "peer crashed".
    nd->listener = listen_on(nd->addr);
    nd->session.init(nd->id, nodes_.size(), &cfg_, &clock_, nd.get(),
                     nd->node, nd->metrics, &link_ok_);
  }
  clock_.reset(Clock::now(), cfg_.time_scale);
  started_ = true;
  for (auto& nd : nodes_) {
    nd->alive.store(true, std::memory_order_release);
  }
  for (auto& w : workers_) {
    Worker* p = w.get();
    w->thread = std::thread([this, p] { worker_main(*p); });
  }
}

void ReactorTransport::stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  for (auto& w : workers_) {
    {
      MutexLock lock(w->ctl_mutex);
      w->stop_requested = true;
    }
    wake(*w);
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

void ReactorTransport::crash(ProcessId id) {
  RNode& nd = node_of(id);
  if (!nd.alive.load(std::memory_order_acquire)) {
    return;
  }
  // Worker-level op: it must run even though the target node is alive-false
  // by the time queued node-bound ops would be gated.
  run_on_worker_sync(*nd.w, kNoProcess, [this, &nd] { do_crash(nd); });
}

std::uint64_t ReactorTransport::session_epoch(ProcessId id) const {
  return node_of(id).session.epoch();
}

void ReactorTransport::adopt_session_epoch(ProcessId id,
                                           std::uint64_t epoch) {
  RNode& nd = node_of(id);
  HPD_REQUIRE(!started_ || !nd.alive.load(std::memory_order_acquire),
              "ReactorTransport: adopt_session_epoch on a running node");
  nd.session.adopt_epoch(epoch);
}

void ReactorTransport::revive(ProcessId id) {
  RNode& nd = node_of(id);
  HPD_REQUIRE(started_, "ReactorTransport: revive before start");
  HPD_REQUIRE(!nd.alive.load(std::memory_order_acquire),
              "ReactorTransport: revive of a live node");
  // The node is provably not running (crash() synchronized with its
  // worker), so the driver may touch its session epoch directly.
  nd.session.bump_epoch();
  const bool ok = run_on_worker_sync(*nd.w, kNoProcess, [this, &nd] {
    Worker& w = *nd.w;
    nd.listener = listen_on(nd.addr);  // same path / port as before
    epoll_add(w, nd.listener.get(), EPOLLIN | EPOLLET);
    w.fds[nd.listener.get()] = {nd.id, Worker::FdRef::Kind::kListener,
                                kNoProcess};
    {
      MutexLock lock(events_mutex_);
      revives_.push_back({nd.id, now()});
    }
    nd.alive.store(true, std::memory_order_release);
    if (nd.on_revive) {
      nd.on_revive();
    }
    w.dirty.insert(nd.id);
  });
  HPD_REQUIRE(ok, "ReactorTransport: revive on a stopped pool");
  // Tell everyone the id is back with a new incarnation: expires re-dial
  // cooldowns and purges (surfaces) retransmit entries addressed to the
  // dead incarnation.
  const ProcessId rid = nd.id;
  const std::uint64_t e = nd.session.epoch();
  for (auto& other : nodes_) {
    if (other->id == rid) {
      continue;
    }
    RNode* oc = other.get();
    post_op(worker_of(other->id), other->id,
            [oc, rid, e] { oc->session.observe_peer(rid, e); });
  }
}

bool ReactorTransport::alive(ProcessId id) const {
  return node_of(id).alive.load(std::memory_order_acquire);
}

// ---- Time -------------------------------------------------------------------

SimTime ReactorTransport::now() const { return clock_.now(); }

void ReactorTransport::sleep_until(SimTime t) const {
  // Driver-side wait; workers never call this (they park in epoll only).
  clock_.sleep_until(t);
}

// ---- Control plane ----------------------------------------------------------

void ReactorTransport::wake(Worker& w) {
  const std::uint8_t b = 0;
  // EAGAIN means a wake byte is already pending, which is just as good.
  [[maybe_unused]] const ssize_t k = ::write(w.wake_write.get(), &b, 1);
}

bool ReactorTransport::post_op(Worker& w, ProcessId node,
                               std::function<void()> fn) {
  {
    MutexLock lock(w.ctl_mutex);
    if (w.stop_requested) {
      return false;
    }
    if (node != kNoProcess &&
        !node_of(node).alive.load(std::memory_order_acquire)) {
      return false;
    }
    w.ctl.push_back({node, std::move(fn)});
  }
  wake(w);
  return true;
}

bool ReactorTransport::run_on_worker_sync(Worker& w, ProcessId node,
                                          std::function<void()> fn) {
  auto prom = std::make_shared<std::promise<void>>();
  std::future<void> done = prom->get_future();
  const bool posted = post_op(w, node, [prom, fn = std::move(fn)] {
    fn();
    prom->set_value();
  });
  if (!posted) {
    return false;
  }
  try {
    done.get();
    return true;
  } catch (const std::future_error&) {
    return false;  // the node died before running fn (promise abandoned)
  }
}

bool ReactorTransport::run_on_node_sync(ProcessId id,
                                        std::function<void()> fn) {
  return run_on_worker_sync(worker_of(id), id, std::move(fn));
}

std::vector<LifeEvent> ReactorTransport::crash_events() const {
  MutexLock lock(events_mutex_);
  return crashes_;
}

std::vector<LifeEvent> ReactorTransport::revive_events() const {
  MutexLock lock(events_mutex_);
  return revives_;
}

// ---- Diagnostics ------------------------------------------------------------

std::uint64_t ReactorTransport::delivered_messages() const {
  std::uint64_t k = 0;
  for (const auto& nd : nodes_) {
    k += nd->session.counters().msgs_delivered;
  }
  return k;
}

std::uint64_t ReactorTransport::dropped_messages() const {
  std::uint64_t k = 0;
  for (const auto& nd : nodes_) {
    k += nd->session.counters().msgs_dropped;
  }
  return k;
}

std::uint64_t ReactorTransport::frame_errors() const {
  std::uint64_t k = 0;
  for (const auto& nd : nodes_) {
    k += nd->session.counters().frame_errors;
  }
  return k;
}

std::uint64_t ReactorTransport::connections_accepted() const {
  std::uint64_t k = 0;
  for (const auto& nd : nodes_) {
    k += nd->accepted;
  }
  return k;
}

TransportCounters ReactorTransport::stats() const {
  TransportCounters t;
  for (const auto& nd : nodes_) {
    t.add(nd->session.counters());
  }
  return t;
}

std::vector<ChaosEvent> ReactorTransport::chaos_events() const {
  std::vector<ChaosEvent> all;
  for (const auto& nd : nodes_) {
    all.insert(all.end(), nd->session.chaos_log().begin(),
               nd->session.chaos_log().end());
  }
  canonical_sort(all);
  return all;
}

ReactorCounters ReactorTransport::reactor_stats() const {
  ReactorCounters r;
  for (const auto& w : workers_) {
    r.add(w->counters);
  }
  return r;
}

// ---- Timers -----------------------------------------------------------------

transport::TimerId ReactorTransport::do_set_timer(RNode& nd, int tag,
                                                  SimTime delay, bool periodic,
                                                  SimTime period) {
  HPD_REQUIRE(!periodic || period > 0.0,
              "ReactorTransport: periodic timer needs a positive period");
  const transport::TimerId tid = nd.next_timer++;
  RNode::TimerRec rec;
  rec.tag = tag;
  rec.periodic = periodic;
  rec.due = Clock::now() + clock_.to_real(delay);
  rec.period = clock_.to_real(period);
  nd.timers.emplace(tid, rec);
  // The caller is inside one of the node's callbacks, so the node is (or is
  // about to be) dirty and service_node re-arms the wheel afterwards.
  nd.w->dirty.insert(nd.id);
  return tid;
}

void ReactorTransport::do_cancel_timer(RNode& nd, transport::TimerId id) {
  nd.timers.erase(id);
}

void ReactorTransport::fire_due_timers(RNode& nd, Clock::time_point now) {
  std::vector<transport::TimerId> due;
  for (const auto& [tid, rec] : nd.timers) {
    if (rec.due <= now) {
      due.push_back(tid);
    }
  }
  for (const transport::TimerId tid : due) {
    auto it = nd.timers.find(tid);
    if (it == nd.timers.end()) {
      continue;  // cancelled by an earlier callback this round
    }
    const int tag = it->second.tag;
    if (it->second.periodic) {
      it->second.due = now + it->second.period;
    } else {
      nd.timers.erase(it);
    }
    nd.node->on_timer(tag);
  }
}

// ---- Send path (runs on the node's worker) ----------------------------------

void ReactorTransport::do_send(RNode& nd, transport::Message msg) {
  if (!nd.alive.load(std::memory_order_relaxed)) {
    ++nd.session.counters().msgs_dropped;
    return;
  }
  nd.session.send(std::move(msg));
  nd.w->dirty.insert(nd.id);
}

Conn* ReactorTransport::outgoing_conn(RNode& nd, ProcessId dst) {
  auto it = nd.outgoing.find(dst);
  if (it != nd.outgoing.end()) {
    return it->second.get();
  }
  auto cd = nd.peer_down.find(dst);
  if (cd != nd.peer_down.end()) {
    if (Clock::now() < cd->second) {
      return nullptr;  // cooling down; skip the dial until it lapses
    }
    nd.peer_down.erase(cd);
  }
  // Nonblocking dial: no retry loop here — a failure starts the cooldown
  // and the session's retransmit path re-dials after it lapses.
  ConnectStart cs = connect_start(nodes_[idx(dst)]->addr);
  if (cs.status == ConnectStart::Status::kFailed) {
    nd.peer_down[dst] = Clock::now() + cfg_.peer_down_cooldown;
    return nullptr;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = std::move(cs.fd);
  conn->peer = dst;
  conn->connecting = cs.status == ConnectStart::Status::kPending;
  conn->outbuf = hello_frame(nd.id, nodes_.size(), nd.session.epoch());
  const int fd = conn->fd.get();
  epoll_add(*nd.w, fd, EPOLLIN | EPOLLOUT | EPOLLET);
  nd.w->fds[fd] = {nd.id, Worker::FdRef::Kind::kOutgoing, dst};
  Conn* p = conn.get();
  nd.outgoing.emplace(dst, std::move(conn));
  return p;
}

void ReactorTransport::drop_outgoing(RNode& nd, ProcessId peer,
                                     bool cooldown) {
  auto it = nd.outgoing.find(peer);
  if (it == nd.outgoing.end()) {
    return;
  }
  const int fd = it->second->fd.get();
  epoll_del(*nd.w, fd);
  nd.w->fds.erase(fd);
  nd.outgoing.erase(it);
  if (cooldown) {
    nd.peer_down[peer] = Clock::now() + cfg_.peer_down_cooldown;
  }
}

void ReactorTransport::drop_inbound(Worker& w, RNode& nd, int fd) {
  epoll_del(w, fd);
  w.fds.erase(fd);
  nd.inbound.erase(fd);
}

// ---- epoll plumbing ---------------------------------------------------------

void ReactorTransport::epoll_add(Worker& w, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(w.epoll.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw TransportError("epoll_ctl(ADD): " +
                         std::system_category().message(errno));
  }
}

void ReactorTransport::epoll_del(Worker& w, int fd) {
  // The fd is about to be closed anyway; ENOENT/EBADF are not actionable.
  epoll_event ev{};
  [[maybe_unused]] const int rc =
      ::epoll_ctl(w.epoll.get(), EPOLL_CTL_DEL, fd, &ev);
}

// ---- Worker loop ------------------------------------------------------------

void ReactorTransport::worker_main(Worker& w) {
  epoll_add(w, w.wake_read.get(), EPOLLIN);
  w.fds[w.wake_read.get()] = {kNoProcess, Worker::FdRef::Kind::kWake,
                              kNoProcess};
  for (RNode* nd : w.owned) {
    epoll_add(w, nd->listener.get(), EPOLLIN | EPOLLET);
    w.fds[nd->listener.get()] = {nd->id, Worker::FdRef::Kind::kListener,
                                 kNoProcess};
  }
  w.wheel.reset(Clock::now(), std::chrono::milliseconds(1));
  for (RNode* nd : w.owned) {
    nd->node->on_start();
    w.dirty.insert(nd->id);
  }
  for (;;) {
    // Control plane first: stop beats everything else.
    std::deque<Worker::CtlOp> ops;
    bool stop_now = false;
    {
      MutexLock lock(w.ctl_mutex);
      ops.swap(w.ctl);
      stop_now = w.stop_requested;
    }
    for (auto& op : ops) {
      if (op.node != kNoProcess) {
        RNode& nd = node_of(op.node);
        if (!nd.alive.load(std::memory_order_relaxed)) {
          continue;  // dropping the closure breaks any promise inside it
        }
        op.fn();
        w.dirty.insert(op.node);
      } else {
        op.fn();
      }
    }
    if (stop_now) {
      worker_shutdown(w);
      return;
    }
    worker_iteration(w);
  }
}

void ReactorTransport::worker_iteration(Worker& w) {
  Clock::time_point now = Clock::now();

  // Timer wheel: each fired datum is a node id whose deadline (Endpoint
  // timer or session reliability) matured.
  w.fired.clear();
  w.wheel.advance(now, w.fired);
  w.counters.timer_fires += w.fired.size();
  for (const std::uint64_t data : w.fired) {
    RNode& nd = node_of(static_cast<ProcessId>(data));
    nd.armed_id = 0;
    nd.armed_due = Clock::time_point::max();
    if (!nd.alive.load(std::memory_order_relaxed)) {
      continue;
    }
    fire_due_timers(nd, now);
    w.dirty.insert(nd.id);
  }

  // Service every touched node: deferred upcalls, matured retransmits,
  // coalesced ACKs — then re-arm its wheel entry.
  if (!w.dirty.empty()) {
    std::set<ProcessId> dirty;
    dirty.swap(w.dirty);
    now = Clock::now();
    for (const ProcessId id : dirty) {
      RNode& nd = node_of(id);
      if (!nd.alive.load(std::memory_order_relaxed)) {
        continue;
      }
      service_node(w, nd, now);
    }
  }

  // Park until the next wheel deadline (the wake pipe cuts it short).
  int timeout_ms = 100;
  const Clock::time_point next = w.wheel.next_due();
  if (next != Clock::time_point::max()) {
    // Round *up*: truncating a sub-millisecond wait to 0 would turn the
    // park into a busy spin until the deadline's tick arrives.
    const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
        next - Clock::now());
    timeout_ms = static_cast<int>(
        std::clamp<std::int64_t>((wait.count() + 999) / 1000, 0, timeout_ms));
  }
  if (w.busy_valid) {
    const auto busy = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - w.busy_start);
    w.counters.max_loop_micros = std::max(
        w.counters.max_loop_micros, static_cast<std::uint64_t>(busy.count()));
  }
  epoll_event evs[128];
  const int rc = ::epoll_wait(w.epoll.get(), evs, 128, timeout_ms);
  w.busy_start = Clock::now();
  w.busy_valid = true;
  ++w.counters.wakeups;
  if (rc < 0) {
    if (errno == EINTR) {
      return;
    }
    throw TransportError("epoll_wait: " +
                         std::system_category().message(errno));
  }
  w.counters.ready_events += static_cast<std::uint64_t>(rc);
  for (int i = 0; i < rc; ++i) {
    dispatch_event(w, evs[i].data.fd, evs[i].events);
  }
  // Dirty nodes from this batch are serviced (ACKs flushed, wheels
  // re-armed) at the top of the next iteration, before the next park.
}

void ReactorTransport::service_node(Worker& w, RNode& nd,
                                    Clock::time_point now) {
  // Each pass either delivers deferred upcalls or matures deadlines whose
  // replacements are strictly in the future, so this converges.
  while (nd.session.next_due() <= now) {
    nd.session.service(now);
  }
  nd.session.flush_acks();

  Clock::time_point due = nd.session.next_due();
  for (const auto& [tid, rec] : nd.timers) {
    due = std::min(due, rec.due);
  }
  if (due == Clock::time_point::max()) {
    if (nd.armed_id != 0) {
      w.wheel.cancel(nd.armed_id);
      nd.armed_id = 0;
      nd.armed_due = Clock::time_point::max();
    }
    return;
  }
  if (nd.armed_id != 0 && due >= nd.armed_due) {
    return;  // the armed entry already fires early enough
  }
  if (nd.armed_id != 0) {
    w.wheel.cancel(nd.armed_id);
  }
  nd.armed_id = w.wheel.schedule(due, static_cast<std::uint64_t>(nd.id));
  nd.armed_due = due;
  ++w.counters.timers_scheduled;
}

void ReactorTransport::dispatch_event(Worker& w, int fd,
                                      std::uint32_t events) {
  auto it = w.fds.find(fd);
  if (it == w.fds.end()) {
    return;  // stale event for an fd torn down earlier in this batch
  }
  const Worker::FdRef ref = it->second;
  switch (ref.kind) {
    case Worker::FdRef::Kind::kWake: {
      std::uint8_t buf[64];
      while (::read(w.wake_read.get(), buf, sizeof(buf)) > 0) {
      }
      break;
    }
    case Worker::FdRef::Kind::kListener: {
      RNode& nd = node_of(ref.node);
      for (;;) {  // edge-triggered: accept until EAGAIN
        Fd nc = accept_conn(nd.listener);
        if (!nc.valid()) {
          break;
        }
        auto conn = std::make_unique<Conn>();
        const int cfd = nc.get();
        conn->fd = std::move(nc);
        epoll_add(w, cfd, EPOLLIN | EPOLLET);
        w.fds[cfd] = {nd.id, Worker::FdRef::Kind::kInbound, kNoProcess};
        nd.inbound.emplace(cfd, std::move(conn));
        ++nd.accepted;
      }
      break;
    }
    case Worker::FdRef::Kind::kInbound: {
      RNode& nd = node_of(ref.node);
      auto ci = nd.inbound.find(fd);
      if (ci == nd.inbound.end()) {
        break;
      }
      Conn& conn = *ci->second;
      bool open = true;
      while (open) {  // edge-triggered: read until EAGAIN
        switch (conn.read_once(std::span<std::uint8_t>(w.read_buf),
                               nd.session)) {
          case Conn::ReadStatus::kData:
            break;
          case Conn::ReadStatus::kDrained:
            open = false;
            break;
          case Conn::ReadStatus::kProtocolError:
            ++nd.session.counters().frame_errors;
            ++nd.session.counters().conn_resets;
            drop_inbound(w, nd, fd);
            open = false;
            break;
          case Conn::ReadStatus::kClosed:
            drop_inbound(w, nd, fd);  // peer closed (crash/stop)
            open = false;
            break;
        }
      }
      w.dirty.insert(nd.id);
      break;
    }
    case Worker::FdRef::Kind::kOutgoing: {
      RNode& nd = node_of(ref.node);
      auto ci = nd.outgoing.find(ref.peer);
      if (ci == nd.outgoing.end() || ci->second->fd.get() != fd) {
        break;  // replaced since the event was queued
      }
      Conn& conn = *ci->second;
      bool broken = false;
      if ((events & EPOLLOUT) != 0) {
        if (conn.connecting) {
          if (connect_finish(conn.fd)) {
            conn.connecting = false;
          } else {
            broken = true;  // refused: the peer is down
          }
        }
        if (!broken && conn.flush() == Conn::FlushStatus::kBroken) {
          broken = true;  // queued frames lost; retransmission recovers
        }
      }
      if (!broken && (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        // Send-only connection: readable means the peer closed (or the
        // pending connect failed without a writable edge).
        for (;;) {
          const Conn::ReadStatus s =
              conn.drain_ignore(std::span<std::uint8_t>(w.read_buf));
          if (s == Conn::ReadStatus::kClosed) {
            broken = true;
            break;
          }
          if (s == Conn::ReadStatus::kDrained) {
            break;
          }
        }
      }
      if (broken) {
        ++nd.session.counters().conn_resets;
        drop_outgoing(nd, ref.peer, /*cooldown=*/true);
      }
      break;
    }
  }
}

// ---- Crash / shutdown (on the worker) ---------------------------------------

void ReactorTransport::do_crash(RNode& nd) {
  if (!nd.alive.load(std::memory_order_relaxed)) {
    return;
  }
  {
    MutexLock lock(events_mutex_);
    crashes_.push_back({nd.id, now()});
  }
  nd.node->on_crash();
  nd.alive.store(false, std::memory_order_release);
  {
    // Abandon queued posts for this node: their promises (if any) break,
    // which run_on_node_sync reports as failure.
    Worker& w = *nd.w;
    MutexLock lock(w.ctl_mutex);
    for (auto& op : w.ctl) {
      if (op.node == nd.id) {
        op.fn = nullptr;
        op.node = kNoProcess;
      }
    }
    w.ctl.erase(std::remove_if(w.ctl.begin(), w.ctl.end(),
                               [](const Worker::CtlOp& op) {
                                 return op.fn == nullptr;
                               }),
                w.ctl.end());
  }
  shutdown_io(nd);
}

void ReactorTransport::shutdown_io(RNode& nd) {
  Worker& w = *nd.w;
  nd.session.shutdown();
  nd.peer_down.clear();
  for (const auto& [fd, conn] : nd.inbound) {
    epoll_del(w, fd);
    w.fds.erase(fd);
  }
  nd.inbound.clear();
  for (const auto& [peer, conn] : nd.outgoing) {
    const int fd = conn->fd.get();
    epoll_del(w, fd);
    w.fds.erase(fd);
  }
  nd.outgoing.clear();
  nd.timers.clear();
  if (nd.armed_id != 0) {
    w.wheel.cancel(nd.armed_id);
    nd.armed_id = 0;
    nd.armed_due = Clock::time_point::max();
  }
  if (nd.listener.valid()) {
    epoll_del(w, nd.listener.get());
    w.fds.erase(nd.listener.get());
    nd.listener.reset();
  }
  w.dirty.erase(nd.id);
}

void ReactorTransport::worker_shutdown(Worker& w) {
  for (RNode* nd : w.owned) {
    if (nd->alive.load(std::memory_order_relaxed)) {
      nd->alive.store(false, std::memory_order_release);
      shutdown_io(*nd);
    }
  }
}

}  // namespace hpd::rt
