#include "runtime/runtime.h"

#include <algorithm>
#include <utility>

#include "core/coherence.h"

namespace distcache {

DistCacheRuntime::DistCacheRuntime(const RuntimeConfig& config)
    : config_(config),
      placement_(config.num_racks, config.servers_per_rack,
                 HashCombine(config.seed, 0x91aceULL)) {
  // The runtime deployment is the paper's two-layer prototype, expressed through
  // the layer-generic allocation API: LayerSpec{0} is the spine layer, {1} the
  // rack-bound leaves. Deeper hierarchies stay a simulation-engine feature until
  // the thread-per-node runtime grows mid-layer switch loops.
  AllocationConfig alloc = AllocationConfig::TwoLayer(
      config_.mechanism, config_.num_spine, config_.num_racks,
      config_.per_switch_objects, HashCombine(config_.seed, 0xd15ca4eULL));
  // The runtime seeds a dense keyspace; cap the candidate pool accordingly.
  alloc.candidate_pool = static_cast<uint32_t>(
      std::min<uint64_t>(config_.num_keys,
                         uint64_t{8} * config_.per_switch_objects *
                             (config_.num_spine + config_.num_racks)));
  allocation_ = std::make_unique<CacheAllocation>(alloc, placement_);

  const uint32_t layer_size[kLayers] = {config_.num_spine, config_.num_racks};
  CacheSwitch::Config sw;
  for (uint32_t layer = 0; layer < kLayers; ++layer) {
    for (uint32_t i = 0; i < layer_size[layer]; ++i, ++sw.switch_id) {
      switches_[layer].push_back(std::make_unique<CacheSwitch>(sw));
      switch_inboxes_[layer].push_back(std::make_unique<Channel<Envelope>>());
    }
  }
  const uint32_t num_servers = config_.num_racks * config_.servers_per_rack;
  for (uint32_t v = 0; v < num_servers; ++v) {
    StorageServer::Config sc;
    sc.server_id = v;
    servers_.push_back(std::make_unique<StorageServer>(sc));
    server_inboxes_.push_back(std::make_unique<Channel<Envelope>>());
  }
}

DistCacheRuntime::~DistCacheRuntime() { Stop(); }

std::vector<CacheNodeId> DistCacheRuntime::CopyNodes(uint64_t key) const {
  const CacheCopies copies = allocation_->CopiesOf(key);
  std::vector<CacheNodeId> nodes;
  if (copies.replicated_all_spines) {
    for (uint32_t s = 0; s < config_.num_spine; ++s) {
      nodes.push_back(CacheNodeId{0, s});
    }
  }
  // The per-layer copies, ascending (spine copy then leaf copy in this
  // two-layer runtime).
  for (uint8_t i = 0; i < copies.num; ++i) {
    nodes.push_back(copies.nodes[i]);
  }
  return nodes;
}

void DistCacheRuntime::Start() {
  if (started_) {
    return;
  }
  started_ = true;

  // Seed primary copies.
  for (uint64_t key = 0; key < config_.num_keys; ++key) {
    servers_[ServerOf(key)]->Seed(key, ValueFor(key)).ok();
  }
  // Seed each switch per the controller's allocation (valid from the start; the
  // runtime exercise is query handling, not warm-up) and start its thread. Switch
  // threads come first in threads_: Stop() relies on that order.
  for (uint32_t layer = 0; layer < kLayers; ++layer) {
    for (uint32_t i = 0; i < switches_[layer].size(); ++i) {
      for (uint64_t key : allocation_->layer_contents(layer)[i]) {
        switches_[layer][i]->InsertInvalid(key, ValueFor(key).size()).ok();
        switches_[layer][i]->UpdateValue(key, ValueFor(key)).ok();
      }
      threads_.emplace_back([this, layer, i] { SwitchLoop(CacheNodeId{layer, i}); });
    }
  }
  for (uint32_t v = 0; v < servers_.size(); ++v) {
    threads_.emplace_back([this, v] { ServerLoop(v); });
  }
}

void DistCacheRuntime::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  // Servers drain first. A server acknowledges a write to its client before
  // §4.3 phase 2, so its cache updates may still be in flight when the client
  // returns; they must land in switch inboxes that are still open. Switch
  // forwards that reach a closed server inbox fail their client instead.
  // threads_ holds the switch threads first, then the server threads.
  const size_t switch_threads = switches_[0].size() + switches_[1].size();
  for (auto& inbox : server_inboxes_) {
    inbox->Close();
  }
  for (size_t t = switch_threads; t < threads_.size(); ++t) {
    threads_[t].join();
  }
  for (auto& layer : switch_inboxes_) {
    for (auto& inbox : layer) {
      inbox->Close();
    }
  }
  for (size_t t = 0; t < switch_threads; ++t) {
    threads_[t].join();
  }
  threads_.clear();
}

void DistCacheRuntime::SwitchLoop(CacheNodeId self) {
  CacheSwitch* sw = switches_[self.layer][self.index].get();
  Channel<Envelope>& inbox = SwitchInbox(self);

  while (auto env = inbox.Receive()) {
    Message& msg = env->msg;
    switch (msg.type) {
      case MsgType::kGetRequest: {
        std::string value;
        const LookupResult result = sw->Lookup(msg.key, &value);
        if (result == LookupResult::kHit) {
          counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
          Message reply = msg;
          reply.type = MsgType::kGetReply;
          reply.value = std::move(value);
          reply.cache_hit = true;
          reply.piggyback.push_back(LoadSample{self, sw->TelemetryLoad()});
          // Reply channels belong to the blocked requester and never close before
          // the reply lands; a rejection means the requester is gone — drop it.
          (void)env->reply_to->Send(std::move(reply));
        } else {
          // Invalid or miss: forward to the primary server, no routing detour (§4.2).
          counters_.cache_misses.fetch_add(1, std::memory_order_relaxed);
          if (sw->RecordMiss(msg.key)) {
            // A new heavy hitter was detected; the agent epoch would consider it.
          }
          // Capture the reply route before the envelope is consumed: if the server
          // inbox closed mid-flight (Stop() race), the forward is dropped and the
          // client would otherwise block in Receive() forever — its reply channel
          // is never closed. Fail loudly with an unavailable reply instead.
          Channel<Message>* reply_to = env->reply_to;
          const uint64_t key = msg.key;
          const uint64_t request_id = msg.request_id;
          const uint32_t client_id = msg.client_id;
          if (!server_inboxes_[ServerOf(key)]->Send(std::move(*env))) {
            Message failure;
            failure.type = MsgType::kGetReply;
            failure.key = key;
            failure.request_id = request_id;
            failure.client_id = client_id;
            failure.unavailable = true;
            (void)reply_to->Send(std::move(failure));
          }
        }
        break;
      }
      case MsgType::kInvalidate:
      case MsgType::kCacheUpdate: {
        const bool phase1 = msg.type == MsgType::kInvalidate;
        ApplyCoherence(*sw, phase1 ? CoherencePhase::kInvalidate : CoherencePhase::kUpdate,
                       msg.key, std::move(msg.value));
        (phase1 ? counters_.invalidations : counters_.cache_updates)
            .fetch_add(1, std::memory_order_relaxed);
        // The ack keeps msg.target, which tells the server's transport who acked.
        msg.type = phase1 ? MsgType::kInvalidateAck : MsgType::kCacheUpdateAck;
        (void)env->reply_to->Send(std::move(msg));
        break;
      }
      default:
        break;  // unexpected at a switch
    }
  }
}

void DistCacheRuntime::ServerLoop(uint32_t server_id) {
  StorageServer* server = servers_[server_id].get();
  Channel<Envelope>& inbox = *server_inboxes_[server_id];
  Channel<Message> acks;  // private channel for the protocol's round trips
  // Every packet of a phase goes out before the first ack is awaited, so the copies
  // apply it in parallel; an inbox that rejects the send leaves its copy pending.
  TwoPhaseCoherence coherence(
      [this, &acks](CoherencePhase phase, uint64_t key, const std::string& value,
                    std::vector<CacheNodeId>& pending) {
        size_t in_flight = 0;
        for (const CacheNodeId& node : pending) {
          Message packet;
          packet.type = phase == CoherencePhase::kInvalidate ? MsgType::kInvalidate
                                                             : MsgType::kCacheUpdate;
          packet.key = key;
          packet.value = value;
          packet.target = node;
          in_flight += SwitchInbox(node).Send(Envelope{std::move(packet), &acks});
        }
        for (; in_flight > 0; --in_flight) {
          std::erase(pending, acks.Receive()->target);  // never closed: always a value
        }
      },
      TwoPhaseCoherence::Config{});

  while (auto env = inbox.Receive()) {
    Message& msg = env->msg;
    switch (msg.type) {
      case MsgType::kGetRequest: {
        counters_.server_gets.fetch_add(1, std::memory_order_relaxed);
        Message reply = msg;
        reply.type = MsgType::kGetReply;
        auto value = server->Get(msg.key);
        if (value.ok()) {
          reply.value = std::move(value).value();
        }
        // Reply channels belong to the blocked requester and never close before
        // the reply lands; a rejection means the requester is gone — drop it.
        (void)env->reply_to->Send(std::move(reply));
        break;
      }
      case MsgType::kPutRequest: {
        counters_.writes.fetch_add(1, std::memory_order_relaxed);
        const auto ack_client = [&env](const Status& status) {
          Message reply = env->msg;
          reply.type = MsgType::kPutReply;
          reply.status = status;
          (void)env->reply_to->Send(std::move(reply));
        };
        coherence.Write(msg.key, std::move(msg.value), server, CopyNodes(msg.key), ack_client)
            .ok();
        break;
      }
      default:
        break;
    }
  }
}

DistCacheRuntime::Client::Client(DistCacheRuntime* runtime, uint64_t seed)
    : runtime_(runtime),
      tracker_(LoadTracker::Config{{runtime->config_.num_spine, runtime->config_.num_racks}}),
      router_(&tracker_, runtime->config_.routing, HashCombine(seed, 0xc11e7ULL)) {}

std::unique_ptr<DistCacheRuntime::Client> DistCacheRuntime::NewClient(uint64_t seed) {
  return std::make_unique<Client>(this, seed);
}

void DistCacheRuntime::Client::AbsorbPiggyback(const Message& reply) {
  for (const LoadSample& sample : reply.piggyback) {
    tracker_.Set(sample.node, static_cast<double>(sample.load));
  }
}

StatusOr<std::string> DistCacheRuntime::Client::Get(uint64_t key) {
  Message request;
  request.type = MsgType::kGetRequest;
  request.key = key;
  request.request_id = next_request_++;

  const std::vector<CacheNodeId> copies = runtime_->CopyNodes(key);
  bool sent = false;
  if (copies.empty()) {
    sent = runtime_->server_inboxes_[runtime_->ServerOf(key)]->Send(
        Envelope{std::move(request), &replies_});
  } else {
    const size_t choice = router_.Choose(copies);
    request.target = copies[choice];
    request.has_target = true;
    sent = runtime_->SwitchInbox(copies[choice]).Send(Envelope{std::move(request), &replies_});
  }
  if (!sent) {
    return Status::Unavailable("runtime stopped");
  }
  auto reply = replies_.Receive();
  if (!reply) {
    return Status::Unavailable("runtime stopped");
  }
  AbsorbPiggyback(*reply);
  if (reply->unavailable) {
    return Status::Unavailable("runtime stopped");
  }
  if (reply->value.empty()) {
    return Status::NotFound();
  }
  return std::move(reply->value);
}

Status DistCacheRuntime::Client::Put(uint64_t key, std::string value) {
  Message request;
  request.type = MsgType::kPutRequest;
  request.key = key;
  request.value = std::move(value);
  request.request_id = next_request_++;
  if (!runtime_->server_inboxes_[runtime_->ServerOf(key)]->Send(
          Envelope{std::move(request), &replies_})) {
    return Status::Unavailable("runtime stopped");
  }
  auto reply = replies_.Receive();
  if (!reply) {
    return Status::Unavailable("runtime stopped");
  }
  return reply->status;
}

std::vector<uint64_t> DistCacheRuntime::Loads(uint32_t layer) const {
  std::vector<uint64_t> loads;
  loads.reserve(switches_[layer].size());
  for (const auto& sw : switches_[layer]) {
    loads.push_back(sw->TelemetryLoad());
  }
  return loads;
}

}  // namespace distcache
