// FaultPlan — a deterministic, seeded schedule of injected faults for the
// multiproc engine (the chaos layer behind --fault-plan / --fault-seed).
//
// The plan is a list of FaultEvents, each timestamped in *config requests*
// (the same clock ClusterEvent uses: an event at `at_request` fires when the
// owning shard's local request counter crosses at_request * quota_scale).
// Every fault class the multiproc substrate can suffer in production has an
// injectable equivalent:
//
//   kind       spec name  effect at the hook point
//   ---------  ---------  ------------------------------------------------
//   kCrashClean  exit     shard process _exit(0)s WITHOUT publishing its
//                         done-state — the "clean exit that wasn't": the
//                         supervisor must notice the missing state word, not
//                         trust the exit code.
//   kCrashKill   kill     raise(SIGKILL): the PR 8 crash class.
//   kCrashAbort  abort    abort() with core dumps disabled.
//   kStall       stall    the shard sleeps `param` wall-ms without bumping
//                         its heartbeat — a straggler; survivable when the
//                         supervisor's dead-deadline is larger.
//   kDropTelemetry drop   the shard skips its next `param` telemetry
//                         publishes (its slot keeps the older partial):
//                         peers' load views go stale.
//   kDelayControl delay   the shard sleeps `param` wall-ms before its next
//                         telemetry publish (its stats publish, when no
//                         epoch boundary is left).
//   kCorruptStats corrupt the shard's quota-end stats blob is corrupted
//                         after its CRC is computed; the supervisor must
//                         detect the mismatch and count the shard failed
//                         rather than deserialize garbage.
//   kArenaMapFail mapfail LayoutAndMapArena reports failure before any fork
//                         (allocation-failure path; the run fails cleanly).
//
// Injection is branch-free when the plan is empty: the engines test one
// unlikely flag per batch (exactly the idiom of the PR 8 crash hook), so an
// empty plan stays bit-identical to the fault-free goldens.
//
// Determinism: events fire on the deterministic per-shard request clock, and
// each event has a one-shot latch in the shared arena, so a respawned shard
// incarnation replays its stream without re-firing faults that already fired.
#ifndef DISTCACHE_RUNTIME_FAULT_PLAN_H_
#define DISTCACHE_RUNTIME_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace distcache {

enum class FaultKind : uint8_t {
  kCrashClean = 0,
  kCrashKill = 1,
  kCrashAbort = 2,
  kStall = 3,
  kDropTelemetry = 4,
  kDelayControl = 5,
  kCorruptStats = 6,
  kArenaMapFail = 7,
};

// Stable spec name ("exit", "kill", ...) for messages and JSON.
const char* FaultKindName(FaultKind kind);
// Parses a spec name back to a kind; false on unknown names.
bool ParseFaultKind(const std::string& name, FaultKind* kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrashKill;
  uint32_t shard = 0;        // target shard index (ignored for mapfail)
  uint64_t at_request = 0;   // config-request timestamp (ClusterEvent clock)
  uint64_t param = 0;        // stall/delay: wall ms; drop: publish count
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  // True when any event asks for the arena-map-failure simulation (checked
  // before the arena is mapped, so it cannot carry a shard/time).
  bool arena_map_failure() const;
  // Largest param among stall events (the supervisor sizes nothing off this;
  // benches use it to budget wall deadlines).
  uint64_t max_stall_ms() const;
};

// Parses a --fault-plan spec: comma-separated terms, each either
//   <kind>:<shard>@<at>[:<param>]   one explicit event, or
//   mapfail                          the arena-map-failure simulation, or
//   random:<count>[:<kind>]         `count` seeded events (uniform shard,
//                                    timestamps in the middle 70% of the run,
//                                    kind fixed or sampled per event)
// `shards`/`num_requests`/`seed` feed the random generator. Returns false and
// fills *error on malformed specs; an empty spec yields an empty plan.
bool ParseFaultPlan(const std::string& spec, uint32_t shards,
                    uint64_t num_requests, uint64_t seed, FaultPlan* plan,
                    std::string* error);

// The `random:` generator, directly: `count` events for `shards` shards over a
// `num_requests` run. Same seed ⇒ same plan (xoshiro stream keyed off `seed`).
// `kind_or_negative` < 0 samples a kind per event from the non-mapfail
// classes; otherwise every event uses that FaultKind.
FaultPlan GenerateFaultPlan(uint64_t seed, int kind_or_negative, uint32_t count,
                            uint32_t shards, uint64_t num_requests);

// Human-readable one-line form of the plan (spec grammar), for logs/JSON.
std::string FaultPlanToString(const FaultPlan& plan);

}  // namespace distcache

#endif  // DISTCACHE_RUNTIME_FAULT_PLAN_H_
