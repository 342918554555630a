#include "src/api/plan_cache.h"

#include <algorithm>

namespace bunshin {
namespace api {

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

PlanCache::PlanPtr PlanCache::LookupLocked(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: most recently used
  return it->second->plan;
}

void PlanCache::InsertLocked(const std::string& key, PlanPtr plan, size_t weight) {
  weight = std::max<size_t>(1, weight);
  if (weight > capacity_) {
    return;  // would evict everything and still not fit: serve it, keep nothing
  }
  lru_.push_front(Entry{key, std::move(plan), weight});
  index_[key] = lru_.begin();
  weight_ += weight;
  while (weight_ > capacity_) {  // never reaches the new entry: it fits alone
    weight_ -= lru_.back().weight;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

StatusOr<PlanCache::PlanPtr> PlanCache::GetOrPlan(const std::string& key, const Factory& factory,
                                                  bool* was_hit, size_t weight) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (PlanPtr plan = LookupLocked(key)) {
      ++hits_;
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return plan;
    }
    auto flight = inflight_.find(key);
    if (flight == inflight_.end()) {
      break;  // nobody is planning this key: become the planner
    }
    // Coalesce: another caller is already planning this key. Wait for it and
    // share its result (plan or error) — never produce a duplicate instance.
    std::shared_ptr<InFlight> entry = flight->second;
    done_cv_.wait(lock, [&entry] { return entry->done; });
    // Only a shared *plan* counts as a hit; a shared planner error is a miss
    // (nothing was served from the store — dashboards must not read reuse
    // into a failing configuration).
    const bool ok = entry->result.ok();
    if (ok) {
      ++hits_;
      ++coalesced_;
    } else {
      ++misses_;
    }
    if (was_hit != nullptr) {
      *was_hit = ok;
    }
    return entry->result;
  }

  ++misses_;
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  auto entry = std::make_shared<InFlight>();
  inflight_.emplace(key, entry);
  lock.unlock();

  // Planning runs outside the lock: other keys stay serviceable, and only
  // same-key callers wait (on the InFlight entry, not the mutex). A throwing
  // factory must not strand the InFlight entry (waiters would block forever),
  // so the exception is converted into a shared error status.
  StatusOr<PlanPtr> produced = Status(StatusCode::kInternal, "planner threw");
  try {
    StatusOr<VariantPlan> plan = factory();
    if (plan.ok()) {
      produced = PlanPtr(std::make_shared<const VariantPlan>(std::move(*plan)));
    } else {
      produced = plan.status();
    }
  } catch (const std::exception& e) {
    produced = Internal(std::string("planner threw: ") + e.what());
  } catch (...) {
  }

  lock.lock();
  if (produced.ok()) {
    InsertLocked(key, *produced, weight);
  }
  // Errors are handed to coalesced waiters but not cached: a transient
  // planning failure should not poison the key.
  entry->result = produced;
  entry->done = true;
  inflight_.erase(key);
  lock.unlock();
  done_cv_.notify_all();
  return produced;
}

PlanCache::PlanPtr PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  PlanPtr plan = LookupLocked(key);
  if (plan != nullptr) {
    ++hits_;
  } else {
    ++misses_;
  }
  return plan;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  weight_ = 0;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.coalesced = coalesced_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  stats.weight = weight_;
  stats.capacity = capacity_;
  return stats;
}

}  // namespace api
}  // namespace bunshin
