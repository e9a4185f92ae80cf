// The connection core under both servers — the daemon (net/server.h) and
// the fleet coordinator (orch/coordinator.h): a loopback listen socket, one
// poll(2) thread that owns every socket, and a bounded framed output queue
// per connection. The servers are Handlers; everything about sockets,
// framing, queues and eviction lives here and only here.
//
// ## Inbound
//
// Each connection must open with the protocol hello, then send frames with
// seq 0, 1, 2, … (the same contract DaemonClient enforces on the way back).
// Reads are drained before EOF is acted on, so frames that arrive in the
// same segment as the peer's FIN still reach the handler before on_close.
// Any ProtocolError — a damaged frame, a bad hello, a sequence gap (lost,
// duplicated or reordered frames), or one a handler throws — gets a
// best-effort ErrorMsg{400} and closes the connection: a damaged stream has
// no reliable resynchronization point.
//
// ## Outbound and backpressure
//
// send_message (the FrameSink entry point) frames the payload with the
// connection's next sequence number, appends it to the connection's output
// queue and flushes what the socket takes now. It never blocks on a peer: a
// connection whose unsent backlog exceeds max_queue_bytes is EVICTED —
// counted in Stats::evictions, closed by the poll thread, and reported to
// the caller as kEvicted so feeds drop it.
//
// ## Threading
//
// Handler hooks run on the poll thread holding no reactor lock, in arrival
// order, so a handler needs no locking between its own commands and may
// call send_message (directly or through a feed). send_message may be
// called from any thread. It takes io_mutex_, so a caller holding its own
// lock (a feed's mutex) must never be waited on by code holding io_mutex_:
// the lock order is feed -> io, never the reverse.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "net/feed.h"
#include "net/protocol.h"

namespace antalloc {

class Reactor final : public FrameSink {
 public:
  // The poll timeout when no handler timer is due sooner.
  static constexpr std::int64_t kMaxPollMs = 200;

  class Handler {
   public:
    virtual ~Handler() = default;
    // One decoded inbound message. May throw ProtocolError to refuse the
    // stream (400 + close).
    virtual void on_message(std::uint64_t conn_id, const Message& m) = 0;
    // The connection is gone (EOF, damage, I/O error or eviction); after
    // this, sends to conn_id return kGone. Not called for connections still
    // open at stop().
    virtual void on_close(std::uint64_t /*conn_id*/) {}
    // Runs before every poll(2) wait, and again before the input a wait
    // returned is serviced. Returns the milliseconds until the handler next
    // needs a tick (clamped to [0, kMaxPollMs]; read only before a wait).
    virtual std::int64_t on_tick() { return kMaxPollMs; }
  };

  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
    // Unsent-bytes bound per connection; crossing it evicts the connection.
    std::size_t max_queue_bytes = 4u << 20;
    // When > 0, each accepted socket's SO_SNDBUF, so backlog surfaces in the
    // user-space queue instead of the kernel's.
    int send_buffer_bytes = 0;
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t evictions = 0;
  };

  // `handler` is borrowed and must outlive stop().
  Reactor(Handler& handler, Options opts);
  ~Reactor() override;  // stop()

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Binds, listens (loopback only), and starts the poll thread. Throws
  // ProtocolIoError on any socket failure, std::logic_error when called
  // twice.
  void start();
  // Stops the poll thread after one best-effort flush pass, then closes
  // every socket. Idempotent.
  void stop();
  bool running() const { return running_.load(); }

  std::uint16_t port() const { return port_; }
  Stats stats() const;

  Send send_message(std::uint64_t conn_id, MsgType type,
                    std::span<const std::uint8_t> payload) override;
  // Encodes `m` and sends it as above.
  Send send(std::uint64_t conn_id, const Message& m);

 private:
  struct Connection;

  void poll_loop();
  void accept_connections();
  // Reads what is available, then parses and dispatches complete frames.
  // Returns false when the connection is done (EOF, damage, I/O error).
  bool service_input(Connection& conn);
  // Flushes conn's queue as far as the socket allows. Caller holds
  // io_mutex_. Returns false when the socket failed.
  bool flush_locked(Connection& conn);
  void close_connection(std::uint64_t conn_id);
  void wake_poll();

  Handler& handler_;
  const Options opts_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  std::atomic<bool> running_{false};

  // Connection table. Insert/erase happen only on the poll thread, but
  // send_message reads entries from any thread, so every access — including
  // per-connection queue and sequence state, and stats_ — holds io_mutex_.
  mutable std::mutex io_mutex_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  Stats stats_;

  std::thread poll_thread_;
};

}  // namespace antalloc
