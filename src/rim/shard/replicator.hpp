#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"
#include "rim/svc/transport.hpp"

/// \file replicator.hpp
/// Snapshot + log session replication for the shard router (DESIGN.md
/// §14.2).
///
/// The PR 5 SessionManager spills LRU sessions to disk as versioned,
/// checksummed core::Snapshots and restores them bit-identically. The
/// Replicator promotes that path to *spill-to-peer*: the session's
/// designated peer shard holds the last full snapshot plus the acked
/// mutating requests since, and after every `ship_every` acked mutating
/// commands the router brings the peer up to date (replicate_session).
/// Between ships, acked mutating request payloads accumulate in a
/// per-session journal.
///
/// **Two request shapes, one rule.** A ship *appends* the journal to the
/// peer's replica — replicate_session{base, journal, origin, seq}, with no
/// owner exchange — when that peer holds the replica at `shipped_seq`, the
/// journal is whole, and the bytes appended since the last full ship plus
/// this journal do not exceed that snapshot's bytes. Otherwise (first
/// ship, a new peer, a truncated journal, a tail that would outgrow the
/// snapshot) it ships a *full* snapshot, which becomes the log's new base.
/// A peer that refuses an append (no replica, or a seq other than `base`)
/// gets a full ship in the same call. The tail never costs more than one
/// snapshot to store or replay.
///
/// **Forwarded, not re-encoded.** The router never builds a document it
/// ships. An append splices the journaled payloads (the codec's own
/// dumps) into a dumped header. A full ship cuts the snapshot value out of
/// the owner's canonical `{"id":0,"ok":true,"result":{"snapshot":…}}`
/// response, checks that the cut is exactly one well-formed JSON value
/// with io::Json::validate (the parser's grammar and depth limit, nothing
/// materialised), and splices those bytes after a dumped
/// {"cmd","id","origin","seq"} header. Either way the request equals what
/// parsing and re-dumping it would give, byte for byte. Any other owner
/// response shape is a failed ship. The peer decodes and verifies once.
///
/// **Exactly-once failover.** The replica + journal describe *acked*
/// state only: a command torn by a connection loss was never journaled,
/// so restore() — adopt the replica at the peer (which replays its own
/// tail), replay the journal in order — reconstructs precisely the state
/// every acked command produced, after which the router re-forwards the
/// torn command once. No command is applied twice and none is lost, which
/// is what makes the E24 kill-a-shard run checksum-identical to its
/// unkilled twin.
///
/// **One replica per session.** When a full ship lands on a different
/// peer than the one holding the replica (a ring change, or a peer that
/// failed and came back), the previous peer's copy is stale: the ship
/// sends it a best-effort drop_replica{origin} so stale origins do not
/// pile up toward its ReplicaStore cap. The Router's exchange refuses a
/// backend it has marked down at once, so a write never waits on a dead
/// backend's connect. A failed drop does not fail the ship; it is named
/// in last_ship_error(). A replica consumed by restore() (adopted) leaves
/// nothing to drop.
///
/// A *replicate* exchange can tear too: the peer stores the ship but the
/// response is lost. Two mechanisms keep that exactly-once: every ship
/// attempt uses a fresh sequence number strictly above any attempt ever
/// sent (a possibly-landed torn ship is never resent as "stale", and a
/// later append's `base` no longer matches, forcing a full ship), and
/// every journal entry is tagged with the first ship seq that carried its
/// effects — restore() drops entries the adopted replica's seq already
/// covers instead of replaying them twice.
///
/// The Replicator is transport-agnostic: every backend exchange goes
/// through an injected Exchange callable (the router wires it to its
/// per-backend connections; tests wire fakes). All per-session state
/// lives in ReplicaState, which the *caller* guards (the router holds the
/// session entry mutex across every call here).

namespace rim::shard {

/// One request/response exchange with a named backend. The payload is a
/// deframed protocol.hpp JSON document; implementations frame it, ship
/// it, and deframe the response.
using Exchange = std::function<svc::TransportStatus(
    const std::string& backend, const std::string& payload,
    std::string& response_payload)>;

struct ReplicationPolicy {
  /// Ship to the peer after this many acked mutating commands (1 = after
  /// every mutating command batch; the replication cadence).
  std::size_t ship_every = 1;
  /// Journal entries beyond this are a configuration error surfaced via
  /// ship-failure accounting (the journal only grows while ships fail).
  std::size_t max_journal = 4096;
};

/// Lock-free counters + replication lag histogram (registered under the
/// router's "shard.router" registry source).
struct ReplicatorCounters {
  obs::Counter shipped;             ///< ships a peer accepted (either shape)
  obs::Counter full_ships;          ///< of which full snapshots
  obs::Counter ship_failures;       ///< ships that ended without a replica
  obs::Counter journal_truncated;   ///< mutations dropped past max_journal
  obs::Counter replays;             ///< journal entries replayed on restore
  obs::Counter adoptions;           ///< replicas promoted on a peer
  obs::Counter adoption_failures;   ///< restore() runs that failed
  obs::Histogram lag_ns;            ///< mutation-ack → replica-shipped lag

  [[nodiscard]] io::Json to_json() const;
};

/// One acked mutating request awaiting a ship.
struct JournalEntry {
  std::string payload;  ///< acked mutating request (the replay script)
  /// Seq of the first ship attempt that carried this entry's effects, in
  /// a snapshot or an append (0 = never carried). Every later attempt
  /// carries them too (a full ship is full owner state, an append carries
  /// the whole journal), so a replica adopted at seq >= ship_seq already
  /// contains the mutation and replaying it would double-apply.
  std::uint64_t ship_seq = 0;
};

/// Per-session replication state. Guarded by the owning session entry's
/// mutex (router.hpp); the Replicator never locks.
struct ReplicaState {
  /// Acked mutating requests since the last successful ship, in ack
  /// order (the replay script).
  std::vector<JournalEntry> journal;
  std::uint64_t shipped_seq = 0;        ///< last ship acked by a peer
  /// Highest seq ever sent in a replicate exchange (>= shipped_seq). A
  /// torn replicate may have landed at the peer, so the next attempt
  /// must use a seq above every attempt, not just above the acked one.
  std::uint64_t ship_attempt_seq = 0;
  std::uint64_t muts_since_ship = 0;
  std::uint64_t oldest_unshipped_ns = 0;///< ack time of journal.front()
  std::string peer;                     ///< backend holding the replica
  bool has_replica = false;
  /// Bytes of the snapshot the replica's log is based on (its last full
  /// ship), and of the journal payloads appended to it since. An append
  /// is chosen only while the second stays within the first.
  std::size_t snapshot_bytes = 0;
  std::size_t tail_bytes = 0;
  /// The journal shed acked entries past max_journal: any replay now
  /// reconstructs partial state, so failover must report the session
  /// lost instead. Cleared by the next successful ship (the snapshot is
  /// full state, superseding everything the journal dropped).
  bool truncated = false;
};

class Replicator {
 public:
  explicit Replicator(ReplicationPolicy policy) : policy_(policy) {}

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Record one acked mutating request \p payload at \p now_ns. Returns
  /// true when the cadence says a ship is due.
  bool record_mutation(ReplicaState& state, std::string payload,
                       std::uint64_t now_ns);

  /// Bring \p peer's replica of \p origin up to date at the next ship
  /// sequence: append the journal when the rule above allows it, else (or
  /// when the peer refuses the append) fetch the snapshot from \p owner
  /// (backend session \p owner_session) and ship it in full. On success
  /// the journal resets and the replication lag is recorded. On failure
  /// the journal is kept — the next mutation retries — and the reason is
  /// kept in last_ship_error(). A full ship that moves the replica to a
  /// new peer then drops the old peer's copy (best effort, see above).
  bool ship(std::uint64_t origin, const std::string& owner,
            std::uint64_t owner_session, const std::string& peer,
            const Exchange& exchange, ReplicaState& state,
            std::uint64_t now_ns);

  /// Failover restore onto \p target: adopt the replica (or create a
  /// fresh session when nothing was ever shipped — the journal then holds
  /// the session's whole history) and replay the journal in order. On
  /// success \p backend_session is the promoted session's id on \p target
  /// and the state's replica bookkeeping resets (the caller re-ships to a
  /// new peer). False with \p error when the peer cannot reconstruct the
  /// session — the session is lost.
  bool restore(std::uint64_t origin, const std::string& target,
               const Exchange& exchange, ReplicaState& state,
               std::uint64_t& backend_session, std::string& error);

  [[nodiscard]] const ReplicatorCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const ReplicationPolicy& policy() const { return policy_; }

  /// "origin N: reason" for the most recent failed ship, refused append
  /// that fell back to a full ship, or stale replica that could not be
  /// dropped; empty when nothing has gone wrong yet.
  [[nodiscard]] std::string last_ship_error() const
      RIM_EXCLUDES(error_mutex_);

 private:
  /// Count a failed ship of \p origin and keep \p error.
  bool ship_failed(std::uint64_t origin, const std::string& error)
      RIM_EXCLUDES(error_mutex_);
  void keep_error(std::uint64_t origin, const std::string& error)
      RIM_EXCLUDES(error_mutex_);
  /// Book a ship \p peer accepted at \p seq.
  void shipped(ReplicaState& state, const std::string& peer,
               std::uint64_t seq, std::uint64_t now_ns);
  /// Best-effort drop_replica of \p origin on \p backend, which no longer
  /// holds the session's replica.
  void drop_stale(std::uint64_t origin, const std::string& backend,
                  const Exchange& exchange) RIM_EXCLUDES(error_mutex_);

  const ReplicationPolicy policy_;
  ReplicatorCounters counters_;
  mutable common::Mutex error_mutex_;
  std::string last_ship_error_ RIM_GUARDED_BY(error_mutex_);
};

}  // namespace rim::shard
