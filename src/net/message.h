// Message formats exchanged between clients, ToR routers, cache switches and storage
// servers. The paper reserves an L4 port and defines custom headers; our in-process
// equivalent is a tagged struct with the same information content, including the
// in-network-telemetry piggyback field (§4.2).
#ifndef DISTCACHE_NET_MESSAGE_H_
#define DISTCACHE_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/topology.h"

namespace distcache {

enum class MsgType : uint8_t {
  kGetRequest,
  kGetReply,
  kPutRequest,
  kPutReply,
  kInvalidate,      // coherence phase 1
  kInvalidateAck,
  kCacheUpdate,     // coherence phase 2
  kCacheUpdateAck,
};

// Telemetry piggyback: (cache node, its load this epoch). Every cache switch a reply
// traverses appends its own entry; the client ToR strips them and refreshes its
// load table.
struct LoadSample {
  CacheNodeId node;
  uint64_t load = 0;
};

struct Message {
  MsgType type = MsgType::kGetRequest;
  uint64_t key = 0;
  std::string value;
  uint32_t client_id = 0;
  uint64_t request_id = 0;
  bool cache_hit = false;
  // For requests: the cache node chosen by the PoT router (if any).
  CacheNodeId target{};
  bool has_target = false;
  // For replies: set when no node processed the request (shutdown race); the
  // client maps it to Status::Unavailable instead of treating it as a miss.
  bool unavailable = false;
  // For put replies: the primary update's status (e.g. an oversize value).
  Status status;
  std::vector<LoadSample> piggyback;
};

}  // namespace distcache

#endif  // DISTCACHE_NET_MESSAGE_H_
