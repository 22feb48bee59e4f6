#include "rim/svc/replica_store.hpp"

#include <iterator>
#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::svc {

io::Json ReplicaStoreCounters::to_json() const {
  io::JsonObject object;
  object["adopted"] = adopted.to_json();
  object["appended"] = appended.to_json();
  object["dropped"] = dropped.to_json();
  object["rejected"] = rejected.to_json();
  object["replayed"] = replayed.to_json();
  object["stored"] = stored.to_json();
  return io::Json(std::move(object));
}

bool ReplicaStore::put(std::uint64_t origin, std::uint64_t seq,
                       std::uint64_t checksum, core::Snapshot snapshot,
                       std::string& error) {
  common::MutexLock lock(store_mutex_);
  const auto it = replicas_.find(origin);
  if (it == replicas_.end() && replicas_.size() >= max_replicas_) {
    ++counters_.rejected;
    error = "replica store at capacity (" + std::to_string(max_replicas_) +
            ")";
    return false;
  }
  if (it != replicas_.end() && seq == it->second.seq &&
      checksum == it->second.checksum) {
    // A duplicate of the stored ship (the router retried after a torn
    // response): the replica is already durable, so answering success
    // keeps replication exactly-once instead of wedging every retry.
    return true;
  }
  if (it != replicas_.end() && seq <= it->second.seq) {
    ++counters_.rejected;
    error = "stale replica seq " + std::to_string(seq) + " for origin " +
            std::to_string(origin) + " (stored seq " +
            std::to_string(it->second.seq) + ")";
    return false;
  }
  Replica replica;
  replica.seq = seq;
  replica.checksum = checksum;
  replica.snapshot = std::move(snapshot);
  replicas_[origin] = std::move(replica);
  ++counters_.stored;
  return true;
}

bool ReplicaStore::append(std::uint64_t origin, std::uint64_t base,
                          std::uint64_t seq, std::vector<std::string> entries,
                          const char*& error_code, std::string& error) {
  common::MutexLock lock(store_mutex_);
  const auto it = replicas_.find(origin);
  if (it == replicas_.end()) {
    ++counters_.rejected;
    error_code = code::kNoReplica;
    error = "no replica for origin " + std::to_string(origin);
    return false;
  }
  Replica& replica = it->second;
  if (replica.seq != base) {
    // A torn ship that landed, or a ship this append never saw: the tail
    // would skip or repeat entries, so the router must ship in full.
    ++counters_.rejected;
    error_code = code::kReplicaMismatch;
    error = "append base " + std::to_string(base) + " for origin " +
            std::to_string(origin) + " does not match the stored seq " +
            std::to_string(replica.seq);
    return false;
  }
  if (seq <= base) {
    ++counters_.rejected;
    error_code = code::kBadRequest;
    error = "append seq " + std::to_string(seq) +
            " must be above its base " + std::to_string(base);
    return false;
  }
  replica.tail.insert(replica.tail.end(),
                      std::make_move_iterator(entries.begin()),
                      std::make_move_iterator(entries.end()));
  replica.seq = seq;
  ++counters_.appended;
  return true;
}

bool ReplicaStore::take(std::uint64_t origin, Replica& out) {
  common::MutexLock lock(store_mutex_);
  const auto it = replicas_.find(origin);
  if (it == replicas_.end()) return false;
  out = std::move(it->second);
  replicas_.erase(it);
  ++counters_.adopted;
  return true;
}

bool ReplicaStore::drop(std::uint64_t origin) {
  common::MutexLock lock(store_mutex_);
  const bool existed = replicas_.erase(origin) != 0;
  if (existed) ++counters_.dropped;
  return existed;
}

std::size_t ReplicaStore::size() const {
  common::MutexLock lock(store_mutex_);
  return replicas_.size();
}

std::vector<std::uint64_t> ReplicaStore::origins() const {
  common::MutexLock lock(store_mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(replicas_.size());
  for (const auto& [origin, replica] : replicas_) out.push_back(origin);
  return out;
}

}  // namespace rim::svc
