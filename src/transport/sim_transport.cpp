#include "transport/sim_transport.hpp"

#include <cassert>
#include <string>

namespace gcs {

SimTransport::SimTransport(sim::Context& ctx, sim::Network& network)
    : ctx_(ctx), self_(ctx.self()), network_(network) {
  for (std::size_t t = 0; t < static_cast<std::size_t>(Tag::kMax); ++t) {
    const std::string base = tag_name(static_cast<Tag>(t));
    m_wire_bytes_[t] = metric_id(base + ".wire_bytes");
    m_wire_msgs_[t] = metric_id(base + ".wire_msgs");
  }
  // The liveness guard: once the process is killed, incoming datagrams are
  // dropped even if the network still has them in flight.
  network_.set_handler(self_, [this, alive = ctx.alive_flag()](ProcessId from, const Bytes& b) {
    if (!*alive) return;
    dispatch(from, b);
  });
}

Payload SimTransport::make_datagram(Tag tag, const Bytes& payload) {
  // Pooled: the buffer recirculates once the network's last in-flight
  // reference drops, so steady-state sends never grow a buffer.
  std::shared_ptr<Bytes> datagram = ctx_.pool().acquire();
  datagram->reserve(payload.size() + 1);
  datagram->push_back(static_cast<std::uint8_t>(tag));
  datagram->insert(datagram->end(), payload.begin(), payload.end());
  return Payload(std::shared_ptr<const Bytes>(std::move(datagram)));
}

void SimTransport::account(Tag tag, std::size_t payload_bytes, std::size_t copies) {
  const auto idx = static_cast<std::size_t>(tag);
  if (idx >= m_wire_bytes_.size() || copies == 0) return;
  ctx_.metrics().inc(m_wire_msgs_[idx], static_cast<std::int64_t>(copies));
  ctx_.metrics().inc(m_wire_bytes_[idx],
                     static_cast<std::int64_t>(copies * (payload_bytes + 1)));
}

void SimTransport::u_send(ProcessId to, Tag tag, const Bytes& payload) {
  account(tag, payload.size(), 1);
  network_.send(self_, to, make_datagram(tag, payload));
}

void SimTransport::u_send_group(const std::vector<ProcessId>& group, Tag tag,
                                const Bytes& payload) {
  if (group.empty()) return;
  account(tag, payload.size(), group.size());
  network_.multicast(self_, group, make_datagram(tag, payload));
}

void SimTransport::subscribe(Tag tag, Handler handler) {
  const auto idx = static_cast<std::size_t>(tag);
  assert(idx < handlers_.size());
  handlers_[idx] = std::move(handler);
}

void SimTransport::dispatch(ProcessId from, const Bytes& datagram) {
  if (datagram.empty()) return;
  const auto idx = static_cast<std::size_t>(datagram[0]);
  if (idx >= handlers_.size() || !handlers_[idx]) return;
  // Zero-copy up-call: the handler sees a view into the datagram buffer,
  // which the network keeps alive for the duration of this call.
  handlers_[idx](from, BytesView(datagram.data() + 1, datagram.size() - 1));
}

}  // namespace gcs
