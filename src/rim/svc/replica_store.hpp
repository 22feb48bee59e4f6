#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"

/// \file replica_store.hpp
/// Peer-side storage for replicated sessions (DESIGN.md §14.2): the last
/// full snapshot plus the log of acked mutations since.
///
/// The shard router promotes the PR 5 spill-to-disk path to spill-to-peer.
/// A *full ship* sends the origin session's versioned, checksummed
/// core::Snapshot (replicate_session with "snapshot"); it lands here via
/// put(), which also empties the tail. Between full ships the router sends
/// *appends* (replicate_session with "base" and "journal"): the acked
/// mutating requests since its previous ship, which append() keeps as
/// bytes after the snapshot. Replicas are keyed by the router's session id
/// (the "origin" — backend-local session ids differ per process, so the
/// router id is the one stable name). On failover, adopt_session restores
/// the snapshot and replays the tail into a live session; on session
/// close, drop_replica discards the replica.
///
/// Monotonicity: each replica carries the router's ship sequence number
/// of the last ship it took, full or append. A put() with a stale seq is
/// rejected — a delayed duplicate ship can never roll a replica backwards.
/// A put() that exactly matches the stored replica (same seq, same
/// checksum) answers success instead: a router retrying a ship whose
/// response was torn must converge, not wedge on its own earlier delivery.
/// An append() lands only on the replica state it was cut against (stored
/// seq == its base), so a tail never skips or repeats an entry; any
/// mismatch is refused and the router falls back to a full ship.
///
/// Snapshots are validated (magic, version, checksum) and appended entries
/// checked to be mutating session commands by the replicate_session
/// handler *before* they land here, so everything in the store is
/// restorable modulo engine-option mismatches surfaced at adopt. That
/// decode computes the payload checksum once; the handler hands the
/// verified value to put() and echoes it in its response, so a ship
/// hashes the payload once on the peer, never under store_mutex_.

namespace rim::svc {

/// Lock-free counters (registered under the "svc" registry source).
struct ReplicaStoreCounters {
  obs::Counter stored;    ///< replicas accepted (new or newer-seq overwrite)
  obs::Counter appended;  ///< appends accepted onto a stored replica
  obs::Counter rejected;  ///< puts/appends refused (stale, mismatch, capacity)
  obs::Counter adopted;   ///< replicas promoted into live sessions
  obs::Counter replayed;  ///< tail entries replayed by adopt_session
  obs::Counter dropped;   ///< replicas discarded via drop_replica/close

  [[nodiscard]] io::Json to_json() const;
};

class ReplicaStore {
 public:
  struct Replica {
    std::uint64_t seq = 0;           ///< seq of the last ship taken
    std::uint64_t checksum = 0;      ///< snapshot payload checksum
    core::Snapshot snapshot;
    /// Acked mutating requests appended since the snapshot, in ack order,
    /// as the router's canonical request bytes (the replay script).
    std::vector<std::string> tail;
  };

  explicit ReplicaStore(std::size_t max_replicas = 1024)
      : max_replicas_(max_replicas) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Store \p snapshot as the replica of \p origin at ship sequence
  /// \p seq. \p checksum is the snapshot's payload_checksum() as the
  /// caller's decode verified it; the store trusts it rather than hashing
  /// ~100 KB again under its mutex. Idempotent: a duplicate of the stored
  /// replica (same seq and checksum) is success. False (with \p error)
  /// when seq is otherwise not newer than the stored one, or the store is
  /// at capacity with \p origin absent.
  [[nodiscard]] bool put(std::uint64_t origin, std::uint64_t seq,
                         std::uint64_t checksum, core::Snapshot snapshot,
                         std::string& error) RIM_EXCLUDES(store_mutex_);

  /// Append \p entries (mutating request payloads) to the replica of
  /// \p origin and move it from seq \p base to \p seq. False with
  /// \p error_code and \p error when no replica is stored (no_replica),
  /// or its seq is not \p base (replica_mismatch), or \p seq is not
  /// above \p base (bad_request).
  [[nodiscard]] bool append(std::uint64_t origin, std::uint64_t base,
                            std::uint64_t seq,
                            std::vector<std::string> entries,
                            const char*& error_code, std::string& error)
      RIM_EXCLUDES(store_mutex_);

  /// Count \p entries tail entries replayed into an adopted session.
  void record_replayed(std::size_t entries) { counters_.replayed += entries; }

  /// Remove and return the replica of \p origin (the adopt path: a
  /// promoted replica must not be adoptable twice). False when absent.
  [[nodiscard]] bool take(std::uint64_t origin, Replica& out)
      RIM_EXCLUDES(store_mutex_);

  /// Discard the replica of \p origin. True when one existed.
  bool drop(std::uint64_t origin) RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] std::size_t size() const RIM_EXCLUDES(store_mutex_);

  /// Ascending origin ids of all stored replicas (shard_status, tests).
  [[nodiscard]] std::vector<std::uint64_t> origins() const
      RIM_EXCLUDES(store_mutex_);

  [[nodiscard]] const ReplicaStoreCounters& counters() const {
    return counters_;
  }

 private:
  const std::size_t max_replicas_;
  ReplicaStoreCounters counters_;

  mutable common::Mutex store_mutex_;
  /// std::map: origins() iterates it into deterministic output.
  std::map<std::uint64_t, Replica> replicas_ RIM_GUARDED_BY(store_mutex_);
};

}  // namespace rim::svc
