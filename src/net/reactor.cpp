#include "net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace antalloc {

namespace {

constexpr int kListenBacklog = 16;

[[noreturn]] void throw_errno(const std::string& what) {
  throw ProtocolIoError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

struct Reactor::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  // Poll-thread-only read state.
  std::vector<std::uint8_t> inbuf;
  std::size_t in_head = 0;  // parsed prefix of inbuf
  bool hello_ok = false;
  std::uint32_t expect_seq = 0;  // inbound sequence contract
  // Write state, guarded by io_mutex_.
  std::vector<std::uint8_t> outbuf;
  std::size_t out_head = 0;  // flushed prefix of outbuf
  std::uint32_t next_seq = 0;
  bool dead = false;  // socket failed or evicted; the poll thread reaps it
};

Reactor::Reactor(Handler& handler, Options opts)
    : handler_(handler), opts_(opts) {}

Reactor::~Reactor() { stop(); }

// Lifecycle. -----------------------------------------------------------------

void Reactor::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("Reactor::start called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  if (::pipe(wake_fds_) < 0) throw_errno("pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);

  poll_thread_ = std::thread([this] { poll_loop(); });
}

void Reactor::stop() {
  if (!running_.exchange(false)) return;
  wake_poll();
  if (poll_thread_.joinable()) poll_thread_.join();

  std::lock_guard<std::mutex> lock(io_mutex_);
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

Reactor::Stats Reactor::stats() const {
  std::lock_guard<std::mutex> lock(io_mutex_);
  return stats_;
}

void Reactor::wake_poll() {
  const char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
}

// Publishing (any thread). ---------------------------------------------------

FrameSink::Send Reactor::send_message(std::uint64_t conn_id, MsgType type,
                                      std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(io_mutex_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->dead) return Send::kGone;
  Connection& conn = *it->second;
  const std::vector<std::uint8_t> frame =
      wrap_frame(type, conn.next_seq++, payload);
  conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
  if (!flush_locked(conn)) {
    conn.dead = true;
    wake_poll();
    return Send::kGone;
  }
  if (conn.outbuf.size() - conn.out_head > opts_.max_queue_bytes) {
    conn.dead = true;
    ++stats_.evictions;
    wake_poll();
    return Send::kEvicted;
  }
  return Send::kOk;
}

FrameSink::Send Reactor::send(std::uint64_t conn_id, const Message& m) {
  const std::vector<std::uint8_t> payload = encode_payload(m);
  return send_message(conn_id, message_type(m), payload);
}

bool Reactor::flush_locked(Connection& conn) {
  while (conn.out_head < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_head,
               conn.outbuf.size() - conn.out_head, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_head += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone or hard error
  }
  conn.outbuf.clear();
  conn.out_head = 0;
  return true;
}

// Poll thread. ---------------------------------------------------------------

void Reactor::poll_loop() {
  while (running_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;  // parallel to fds from index 2
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    std::vector<std::uint64_t> reap;
    {
      std::lock_guard<std::mutex> lock(io_mutex_);
      for (auto& [id, conn] : conns_) {
        if (conn->dead) {
          reap.push_back(id);
          continue;
        }
        short events = POLLIN;
        if (conn->out_head < conn->outbuf.size()) events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
        ids.push_back(id);
      }
    }
    for (const std::uint64_t id : reap) close_connection(id);

    const std::int64_t timeout =
        std::clamp<std::int64_t>(handler_.on_tick(), 0, kMaxPollMs);
    const int ready =
        ::poll(fds.data(), fds.size(), static_cast<int>(timeout));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    // Timers that fell due while this thread waited (or waited to be
    // scheduled) run before the input that woke it: an overdue lease is
    // revoked even when its results are already queued behind the deadline.
    handler_.on_tick();

    if (fds[1].revents != 0) {  // drain the self-pipe
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents != 0) accept_connections();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const std::uint64_t id = ids[i - 2];
      Connection* conn = nullptr;
      bool dead = false;
      {
        std::lock_guard<std::mutex> lock(io_mutex_);
        auto it = conns_.find(id);
        if (it == conns_.end() || it->second->dead) continue;
        conn = it->second.get();
        if ((fds[i].revents & POLLOUT) != 0 && !flush_locked(*conn)) {
          conn->dead = true;
        }
        dead = conn->dead;
      }
      if (dead) {
        close_connection(id);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Input is serviced WITHOUT io_mutex_: handlers re-enter
        // send_message (replies, feed fan-out), which takes it. The pointer
        // stays valid because only this thread erases from conns_.
        if (!service_input(*conn)) close_connection(id);
      }
    }
  }

  // Exit pass: one last opportunistic flush so terminal frames queued during
  // a drain reach peers that are still reading.
  std::lock_guard<std::mutex> lock(io_mutex_);
  for (auto& [id, conn] : conns_) {
    if (!conn->dead) flush_locked(*conn);
  }
}

void Reactor::accept_connections() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN and transient failures alike
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.send_buffer_bytes,
                   sizeof(opts_.send_buffer_bytes));
    }

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    // The server's hello goes out first (raw bytes, outside any frame).
    const auto hello = encode_hello();
    conn->outbuf.assign(hello.begin(), hello.end());

    std::lock_guard<std::mutex> lock(io_mutex_);
    conn->id = next_conn_id_++;
    if (!flush_locked(*conn)) conn->dead = true;
    conns_.emplace(conn->id, std::move(conn));
    ++stats_.connections_accepted;
  }
}

bool Reactor::service_input(Connection& conn) {
  // Drain first, parse second: a peer's last frames and its FIN can land in
  // the same poll event (send + immediate close), and those frames must
  // still be handled before the connection is declared gone.
  bool open = true;
  std::uint8_t buf[64 * 1024];
  while (open) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      open = false;  // EOF — after the buffered frames are handled
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      open = false;
    }
  }

  try {
    if (!conn.hello_ok) {
      if (conn.inbuf.size() - conn.in_head < kHelloBytes) return open;
      check_hello(std::span<const std::uint8_t>(conn.inbuf)
                      .subspan(conn.in_head, kHelloBytes));
      conn.in_head += kHelloBytes;
      conn.hello_ok = true;
    }
    while (true) {
      std::size_t consumed = 0;
      std::optional<Frame> frame = try_decode_frame(
          std::span<const std::uint8_t>(conn.inbuf).subspan(conn.in_head),
          &consumed);
      if (!frame.has_value()) break;
      conn.in_head += consumed;
      if (frame->header.seq != conn.expect_seq) {
        throw ProtocolError("sequence gap: expected " +
                            std::to_string(conn.expect_seq) + ", got " +
                            std::to_string(frame->header.seq));
      }
      ++conn.expect_seq;
      handler_.on_message(conn.id, decode_message(*frame));
    }
  } catch (const ProtocolError& e) {
    send(conn.id, Message{ErrorMsg{.code = 400, .message = e.what()}});
    return false;
  }

  if (conn.in_head > 0) {  // compact the parsed prefix
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn.in_head));
    conn.in_head = 0;
  }
  return open;
}

void Reactor::close_connection(std::uint64_t conn_id) {
  std::unique_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(io_mutex_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
  }
  if (conn->fd >= 0) ::close(conn->fd);
  handler_.on_close(conn_id);
}

}  // namespace antalloc
